#ifndef CRAYFISH_FAULT_PLAN_H_
#define CRAYFISH_FAULT_PLAN_H_

#include <string>
#include <vector>

#include "common/retry.h"
#include "common/status.h"

namespace crayfish::fault {

/// What a single fault does to the simulated stack.
enum class FaultKind {
  /// Broker host crash at `at_s`, restart at `until_s` (its partitions are
  /// unavailable in between; producers get retriable errors; offset commits
  /// to a group it coordinates are lost).
  kBrokerCrash,
  /// Network degradation on a (from, to) host pair ("" = wildcard):
  /// latency/bandwidth multipliers, or a full partition with `drop`.
  kLinkDegrade,
  /// Straggler serving server: compute time multiplied by `factor`.
  kServingSlowdown,
  /// Serving process down: requests are dropped until `until_s`.
  kServingDown,
};

const char* FaultKindName(FaultKind kind);
StatusOr<FaultKind> ParseFaultKind(const std::string& name);

/// One scheduled fault. All times are simulated seconds from run start.
struct FaultSpec {
  FaultKind kind = FaultKind::kBrokerCrash;
  /// Unique label (auto-derived "<kind>-<index>" when absent from JSON);
  /// names fault windows in metrics and addresses the spec in overrides.
  std::string name;
  double at_s = 0.0;
  /// Repair instant; < 0 = never repaired.
  double until_s = -1.0;

  // kBrokerCrash
  int broker = 0;
  // kLinkDegrade
  std::string from;
  std::string to;
  double latency_mult = 1.0;
  double bandwidth_mult = 1.0;
  bool drop = false;
  // kServingSlowdown
  double factor = 2.0;

  Status Validate() const;
  /// True when the fault makes part of the pipeline unavailable (counts
  /// toward downtime; degradations and slowdowns do not).
  bool outage() const;
};

/// A deterministic, JSON-loadable fault schedule plus the client-side
/// robustness policy it pairs with. Scheduling happens on the DES clock and
/// all randomness (retry jitter) flows from the experiment seed, so a
/// faulted run is byte-for-byte reproducible.
struct FaultPlan {
  std::vector<FaultSpec> faults;
  /// Applied as the cluster-wide client default for producers, consumers,
  /// and the external-serving client; enabled whenever the plan is active.
  crayfish::RetryPolicy retry{.max_retries = 10,
                              .timeout_s = 1.0,
                              .initial_backoff_s = 0.05,
                              .backoff_multiplier = 2.0,
                              .max_backoff_s = 2.0,
                              .jitter = 0.2};
  /// Consumers commit delivered offsets this often (Kafka
  /// enable.auto.commit).
  double auto_commit_interval_s = 1.0;

  bool active() const { return !faults.empty(); }
  Status Validate() const;

  /// Parses the schema documented in README.md:
  ///   {"retry": {...}, "auto_commit_interval_s": 1.0,
  ///    "faults": [{"kind": "broker_crash", "at_s": 30, ...}, ...]}
  static StatusOr<FaultPlan> FromJsonText(const std::string& text);
  static StatusOr<FaultPlan> FromFile(const std::string& path);

  /// Sets one plan parameter from a dotted config key (the sweep axis
  /// mechanism): "retry.<field>", "auto_commit_interval_s", or
  /// "<fault-name-or-index>.<field>" (e.g. "crash0.at_s", "0.factor").
  Status ApplyOverride(const std::string& key, const std::string& value);
};

}  // namespace crayfish::fault

#endif  // CRAYFISH_FAULT_PLAN_H_
