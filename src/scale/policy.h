#ifndef CRAYFISH_SCALE_POLICY_H_
#define CRAYFISH_SCALE_POLICY_H_

#include <string>

#include "common/json.h"
#include "common/status.h"

namespace crayfish::scale {

/// Autoscaler configuration: the control-loop cadence, the reactive
/// thresholds, and the guard rails the Autoscaler enforces on every
/// decision (bounds, cooldown, scale-in hysteresis). JSON-loadable so
/// `crayfish_run --autoscaler=policy.json` and `autoscaler.*` sweep axes
/// share one schema.
struct PolicyConfig {
  /// Inert until a key is set (FromJson / ApplyOverride).
  bool enabled = false;

  /// The policy family. "reactive" is the only one; any other value is
  /// InvalidArgument.
  std::string kind = "reactive";
  double interval_s = 5.0;  ///< control-loop evaluation period
  int min_replicas = 1;
  int max_replicas = 32;
  /// Replicas added/removed per decision.
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
  double total_lag = 0.0;    ///< sum of per-partition consumer lag
  double utilization = 0.0;  ///< serving-pool busy fraction in [0,1]
};

}  // namespace crayfish::scale

#endif  // CRAYFISH_SCALE_POLICY_H_
