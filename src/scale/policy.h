#ifndef CRAYFISH_SCALE_POLICY_H_
#define CRAYFISH_SCALE_POLICY_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/json.h"
#include "common/status.h"

namespace crayfish::scale {

/// Autoscaler configuration: the control-loop cadence, the policy family
/// ("reactive" or "predictive"), its thresholds, and the guard rails the
/// Autoscaler enforces on every decision (bounds, cooldown, scale-in
/// hysteresis). JSON-loadable so `crayfish_run --autoscaler=policy.json`
/// and `autoscaler.*` sweep axes share one schema.
struct PolicyConfig {
  /// Inert until a key is set (FromJson / ApplyOverride).
  bool enabled = false;

  std::string kind = "reactive";  ///< "reactive" | "predictive"
  double interval_s = 5.0;        ///< control-loop evaluation period
  int min_replicas = 1;
  int max_replicas = 32;
  /// Max replicas added/removed per decision.
  int step = 1;
  /// Seconds after any resize during which further resizes are suppressed.
  double cooldown_s = 20.0;
  /// Consecutive scale-down votes required before shrinking (flap guard).
  int scale_in_hysteresis = 3;

  // --- reactive thresholds ---
  double scale_up_lag = 1000.0;        ///< records of total broker lag
  double scale_up_utilization = 0.9;   ///< busy fraction of serving pool
  double scale_down_lag = 100.0;
  double scale_down_utilization = 0.3;

  // --- predictive (Holt's linear trend over timeline windows) ---
  double hw_alpha = 0.5;   ///< level smoothing
  double hw_beta = 0.3;    ///< trend smoothing
  double horizon_s = 15.0; ///< forecast this far past `now`
  /// Sustainable events/s one replica can serve; required (> 0) for the
  /// predictive policy, which sizes the pool to the forecast demand.
  double rate_per_replica = 0.0;
  /// Headroom: target = ceil(forecast / (rate_per_replica * this)).
  double target_utilization = 0.8;

  uint64_t seed = 42;

  Status Validate() const;
  static StatusOr<PolicyConfig> FromJson(const JsonValue& v);
  static StatusOr<PolicyConfig> FromJsonText(const std::string& text);
  static StatusOr<PolicyConfig> FromFile(const std::string& path);
  /// Sets one field by key ("kind", "interval_s", ...). Marks the config
  /// enabled.
  Status ApplyOverride(const std::string& key, const std::string& value);
};

/// One control-loop sample, taken at a global sync point so every value is
/// the merged, deterministic cluster state.
struct PolicyInput {
  double now_s = 0.0;
  double total_lag = 0.0;          ///< sum of per-partition consumer lag
  double max_partition_lag = 0.0;
  double utilization = 0.0;        ///< serving-pool busy fraction in [0,1]
  double arrival_rate_eps = 0.0;   ///< observed producer rate this interval
  int current_replicas = 1;
};

/// What a policy wants, before the Autoscaler applies bounds/cooldown/
/// hysteresis. `reason` feeds the timeline annotation.
struct PolicyDecision {
  int target = 1;
  std::string reason;
};

/// A deterministic scaling policy. Implementations must be pure state
/// machines over their inputs: no wall clock, no RNG stream (seeded hashing
/// is fine), so decisions are identical across runs of one config.
class ScalingPolicy {
 public:
  virtual ~ScalingPolicy() = default;
  virtual PolicyDecision Evaluate(const PolicyInput& in) = 0;
  virtual const char* name() const = 0;
};

/// Threshold policy: scale up when lag or utilization crosses the high
/// water marks, down when both sit below the low water marks.
class ReactivePolicy : public ScalingPolicy {
 public:
  explicit ReactivePolicy(const PolicyConfig& config) : config_(config) {}
  PolicyDecision Evaluate(const PolicyInput& in) override;
  const char* name() const override { return "reactive"; }

 private:
  PolicyConfig config_;
};

/// Holt's linear-trend forecaster over the observed arrival rate: smooths
/// level and trend each tick, forecasts demand at `now + horizon_s`, and
/// sizes the pool to `ceil(forecast / (rate_per_replica *
/// target_utilization))` plus any backlog drain.
class PredictivePolicy : public ScalingPolicy {
 public:
  explicit PredictivePolicy(const PolicyConfig& config) : config_(config) {}
  PolicyDecision Evaluate(const PolicyInput& in) override;
  const char* name() const override { return "predictive"; }

 private:
  PolicyConfig config_;
  bool primed_ = false;
  double level_ = 0.0;
  double trend_ = 0.0;
};

/// Instantiates the policy named by `config.kind`.
StatusOr<std::unique_ptr<ScalingPolicy>> CreatePolicy(
    const PolicyConfig& config);

}  // namespace crayfish::scale

#endif  // CRAYFISH_SCALE_POLICY_H_
