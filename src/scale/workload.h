#ifndef CRAYFISH_SCALE_WORKLOAD_H_
#define CRAYFISH_SCALE_WORKLOAD_H_

#include <cstdint>
#include <string>

#include "common/json.h"
#include "common/status.h"

namespace crayfish::scale {

/// Load-shape families for cluster-scale traffic generation. Every shape
/// is a pure function of (spec, seed, t): no RNG stream is consumed, so two
/// runs with the same config produce byte-identical producer pacing.
enum class ShapeKind {
  kConstant,    ///< flat base_rate
  kFlashCrowd,  ///< base, then ramp to base*spike_mult, hold, decay back
};

/// A deterministic, seeded load-shape driver. `RateAt(t)` modulates the
/// per-producer emission rate of `core::InputProducer` over simulated time;
/// optional multiplicative jitter is hashed from (seed, time window) — a
/// pure function, not an RNG stream — so shapes stay reproducible and
/// thread-count independent.
struct WorkloadShape {
  ShapeKind kind = ShapeKind::kConstant;
  double base_rate = 1000.0;  ///< events/s
  /// Multiplicative noise amplitude in [0, 1): each 1 s jitter window's
  /// factor is uniform in [1 - jitter, 1 + jitter], hashed from (seed,
  /// window).
  double jitter = 0.0;
  uint64_t seed = 42;

  // --- flash crowd ---
  double spike_at_s = 60.0;
  double spike_mult = 4.0;  ///< peak rate = base_rate * spike_mult
  double ramp_up_s = 5.0;
  double hold_s = 20.0;
  double decay_s = 30.0;

  /// Instantaneous target rate at simulated time `t`. Never below 1 event/s:
  /// the producer pacing loop divides by the rate.
  double RateAt(double t) const;

  /// Trapezoid integral of RateAt over [t0, t1]: the event volume the
  /// shape asks the producer for (tests compare events_sent against it).
  double IntegrateRate(double t0, double t1, int steps = 4096) const;

  Status Validate() const;
};

/// Full cluster-scale workload: the primary shape driving the scored
/// pipeline's producer, plus multi-tenant fan-out — background tenant
/// topics/producers co-located on the same brokers and an idle fleet of
/// registered hosts — so one config can stand up hundreds of partitions
/// across thousands of hosts.
struct WorkloadSpec {
  /// Inert until a shape/fan-out key is set (FromJson / ApplyOverride);
  /// an inert spec leaves the experiment byte-identical to before.
  bool enabled = false;

  WorkloadShape shape;

  /// Background tenants: each gets its own topic (tenant_partitions
  /// partitions), its own producer host, and the primary shape scaled by
  /// tenant_rate_factor. Tenant traffic loads brokers and the network but
  /// stays out of the scored pipeline.
  int tenants = 0;
  int tenant_partitions = 8;
  double tenant_rate_factor = 0.05;

  /// Extra registered (idle) hosts standing in for the rest of the fleet;
  /// they join the network topology.
  int fleet_hosts = 0;

  Status Validate() const;
  /// A flat object: the shape's keys sit beside the spec's own.
  static StatusOr<WorkloadSpec> FromJson(const JsonValue& v);
  static StatusOr<WorkloadSpec> FromJsonText(const std::string& text);
  static StatusOr<WorkloadSpec> FromFile(const std::string& path);
  /// Sets one field by key ("kind", "base_rate", "tenants", ...), as a
  /// member of the JSON object would. Marks the spec enabled.
  Status ApplyOverride(const std::string& key, const std::string& value);
};

}  // namespace crayfish::scale

#endif  // CRAYFISH_SCALE_WORKLOAD_H_
