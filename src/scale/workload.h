#ifndef CRAYFISH_SCALE_WORKLOAD_H_
#define CRAYFISH_SCALE_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"

namespace crayfish::scale {

/// Load-shape families for cluster-scale traffic generation (ROADMAP item
/// 2). Every shape is a pure function of (spec, seed, t): no RNG stream is
/// consumed, so two runs with the same config produce byte-identical
/// producer pacing.
enum class ShapeKind {
  kConstant,    ///< flat base_rate
  kDiurnal,     ///< sinusoid: base * (1 + amplitude * sin(2*pi*t/period))
  kFlashCrowd,  ///< base, then ramp to base*spike_mult, hold, decay back
  kRamp,        ///< linear base_rate -> end_rate over a window, flat after
  kReplay,      ///< piecewise-linear profile through (t, rate) points
};

const char* ShapeKindName(ShapeKind kind);
StatusOr<ShapeKind> ParseShapeKind(const std::string& name);

/// One (time, rate) knot of a replayed profile.
struct ProfilePoint {
  double t_s = 0.0;
  double rate = 0.0;
};

/// A deterministic, seeded load-shape driver. `RateAt(t)` modulates the
/// per-producer emission rate of `core::InputProducer` over simulated time;
/// optional multiplicative jitter is hashed from (seed, time window) — a
/// pure function, not an RNG stream — so shapes stay reproducible and
/// thread-count independent.
struct WorkloadShape {
  ShapeKind kind = ShapeKind::kConstant;
  double base_rate = 1000.0;  ///< events/s
  /// Rates never drop below this floor (the producer pacing loop divides
  /// by the rate, so it must stay strictly positive).
  double floor_rate = 1.0;
  /// Multiplicative noise amplitude in [0, 1): each jitter window's factor
  /// is uniform in [1 - jitter, 1 + jitter], hashed from (seed, window).
  double jitter = 0.0;
  double jitter_window_s = 1.0;
  uint64_t seed = 42;

  // --- diurnal ---
  double amplitude = 0.5;  ///< fraction of base_rate, in [0, 1]
  double period_s = 240.0;
  double phase_s = 0.0;

  // --- flash crowd ---
  double spike_at_s = 60.0;
  double spike_mult = 4.0;  ///< peak rate = base_rate * spike_mult
  double ramp_up_s = 5.0;
  double hold_s = 20.0;
  double decay_s = 30.0;

  // --- ramp ---
  double ramp_start_s = 0.0;
  double ramp_duration_s = 60.0;
  double end_rate = 2000.0;

  // --- replay ---
  /// Piecewise-linear profile; must be sorted by t_s. Before the first
  /// point and after the last the profile clamps to the edge rate.
  std::vector<ProfilePoint> points;

  /// Instantaneous target rate at simulated time `t` (>= floor_rate).
  double RateAt(double t) const;

  /// Trapezoid integral of RateAt over [t0, t1]: the event volume the
  /// shape asks the producer for (tests compare events_sent against it).
  double IntegrateRate(double t0, double t1, int steps = 4096) const;

  Status Validate() const;
  static StatusOr<WorkloadShape> FromJson(const JsonValue& v);
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
  std::string tenant_topic_prefix = "crayfish-bg-";
  std::string tenant_host_prefix = "tenant-";

  /// Extra registered (idle) hosts standing in for the rest of the fleet;
  /// they join the network topology.
  int fleet_hosts = 0;
  std::string fleet_host_prefix = "fleet-";

  Status Validate() const;
  static StatusOr<WorkloadSpec> FromJson(const JsonValue& v);
  static StatusOr<WorkloadSpec> FromJsonText(const std::string& text);
  static StatusOr<WorkloadSpec> FromFile(const std::string& path);
  /// Sets one field by key ("kind", "base_rate", "tenants", ...; "points"
  /// takes a JSON array text). Marks the spec enabled.
  Status ApplyOverride(const std::string& key, const std::string& value);
};

}  // namespace crayfish::scale

#endif  // CRAYFISH_SCALE_WORKLOAD_H_
