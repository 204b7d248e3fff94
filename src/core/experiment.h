#ifndef CRAYFISH_CORE_EXPERIMENT_H_
#define CRAYFISH_CORE_EXPERIMENT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "core/breakdown.h"
#include "core/generator.h"
#include "core/metrics.h"
#include "core/output_consumer.h"
#include "fault/plan.h"
#include "fault/recovery.h"
#include "obs/registry.h"
#include "obs/slo.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "scale/autoscaler.h"
#include "scale/policy.h"
#include "scale/workload.h"
#include "serving/model_profile.h"

namespace crayfish::core {

/// One Crayfish benchmark configuration: an SPS, a serving tool, a
/// pre-trained model, and the Table 1 workload parameters.
struct ExperimentConfig {
  // --- SUT selection ---
  std::string engine = "flink";  ///< flink|kafka-streams|spark|ray
  /// Serving tool: embedded ("dl4j"|"onnx"|"savedmodel") or external
  /// ("tf-serving"|"torchserve"|"ray-serve").
  std::string serving = "onnx";
  std::string model = "ffnn";  ///< "ffnn" | "resnet50"
  /// User-supplied model (§3.2: "users can indicate ... any stored model
  /// they wish to test"). When set, overrides `model`; unknown models
  /// derive service times from their FLOP counts. Build one with
  /// serving::ModelProfile::FromGraph on any ModelGraph.
  std::optional<serving::ModelProfile> custom_model;
  /// Per-sample tensor shape for a custom model (defaults to flat
  /// [input_elements]).
  std::vector<int64_t> custom_shape;
  /// Optional JSON-lines dataset to replay instead of synthetic data
  /// (§3.1); overrides batch_size/shape with the dataset's.
  std::string dataset_path;
  /// Validation mode: materialize real payloads and have the embedded
  /// scoring operators run *true* inference on every batch (load a real
  /// model through the library's native format, parse the JSON, forward
  /// pass) while the simulation keeps its calibrated timing. Supported
  /// for embedded serving with model="ffnn" (ResNet50's real compute is
  /// deliberately out of the simulated hot path); RunExperiment rejects
  /// any other combination with InvalidArgument.
  bool validate_real_inference = false;

  // --- workload (Table 1) ---
  int batch_size = 1;       ///< bsz
  double input_rate = 1.0;  ///< ir, events/s
  int parallelism = 1;      ///< mp
  bool bursty = false;
  double burst_rate = 0.0;            ///< events/s during bursts
  double burst_duration_s = 30.0;     ///< bd
  double time_between_bursts_s = 120.0;  ///< tbb
  double first_burst_at_s = 60.0;

  // --- deployment ---
  bool use_gpu = false;
  /// Flink operator-level parallelism (Fig. 12); 0 = chained default.
  int source_parallelism = 0;
  int sink_parallelism = 0;
  int topic_partitions = 32;
  /// Per-partition retention (records); bounds memory in overload runs.
  size_t retention_records = 20000;
  crayfish::Config engine_overrides;

  // --- run control ---
  double duration_s = 30.0;  ///< producer generation window (sim time)
  double drain_s = 10.0;     ///< extra time for in-flight work
  uint64_t max_events = 0;
  uint64_t max_measurements = 0;
  uint64_t seed = 42;

  // --- fault injection ---
  /// Deterministic fault schedule (empty = fault-free run). When active,
  /// the cluster-wide client retry/auto-commit defaults come from
  /// `fault_plan.retry` / `fault_plan.auto_commit_interval_s`, a
  /// RecoveryTracker scores the run, and `ExperimentResult.fault_metrics`
  /// is populated.
  fault::FaultPlan fault_plan;

  // --- cluster-scale workload shaping (src/scale) ---
  /// Workload generator: when `workload.enabled`, the input producer's
  /// rate follows `workload.shape` (RateSchedule::rate_fn) instead of the
  /// constant/bursty Table 1 schedule, and the run can stand up a
  /// multi-tenant fleet (background tenant topics + idle fleet hosts).
  /// Inert by default.
  scale::WorkloadSpec workload;

  /// Elastic autoscaler: when `autoscaler.enabled`, a DES-scheduled
  /// control loop samples broker lag / serving utilization every
  /// `interval_s` and resizes the external serving worker pool. Requires
  /// an external serving tool (the embedded libraries have no worker pool
  /// to resize). A RecoveryTracker scores the run (as in fault runs) so
  /// scale-in can be asserted loss-free. Inert by default.
  scale::PolicyConfig autoscaler;

  // --- observability ---
  /// Attach a TraceRecorder + MetricsRegistry to the run. Recording is
  /// passive (simulated clock only, no events, no RNG), so enabling it
  /// does not change the run's results; disabled, every hook is a single
  /// null-pointer branch.
  bool enable_tracing = false;

  /// Tumbling-window width of the continuous telemetry timeline; <= 0
  /// disables it (unless an SLO config forces the 1 s default). Sampling
  /// is driven by the DES clock inside Simulation::Run — passive like
  /// tracing, so the timeline cannot perturb a run either.
  double timeline_interval_s = 0.0;

  /// Declarative SLOs evaluated per timeline window after the run. Active
  /// SLOs imply a timeline (default 1 s windows when timeline_interval_s
  /// is unset).
  obs::SloConfig slo;

  /// Per-sample tensor shape for the generator, by model name.
  std::vector<int64_t> SampleShape() const;
  RateSchedule Schedule() const;
  std::string Label() const;
};

/// Everything a bench needs from one run.
struct ExperimentResult {
  MetricsSummary summary;
  std::vector<Measurement> measurements;
  std::vector<BurstRecovery> recoveries;
  uint64_t events_sent = 0;
  uint64_t events_scored = 0;
  /// Real forward passes executed inside the pipeline (validation mode).
  uint64_t real_inferences = 0;
  double sim_end_s = 0.0;
  uint64_t sim_events_executed = 0;
  /// Scheduled actions whose captures spilled to the heap
  /// (Simulation::heap_actions); in memory only, never exported.
  uint64_t sim_heap_actions = 0;

  // --- populated only when config.fault_plan is active ---
  bool has_fault_metrics = false;
  fault::FaultMetrics fault_metrics;

  // --- populated only when config.enable_tracing is set ---
  /// Per-stage latency decomposition of the post-warmup window.
  LatencyBreakdown breakdown;
  /// The raw trace (Chrome-trace / CSV exportable) and metrics registry.
  /// shared_ptr so ExperimentResult stays copyable.
  std::shared_ptr<obs::TraceRecorder> trace;
  std::shared_ptr<obs::MetricsRegistry> metrics;

  // --- populated only when config.autoscaler is enabled ---
  bool has_autoscale = false;
  scale::AutoscaleSummary autoscale;

  // --- populated only when the telemetry timeline is active ---
  /// Finalized windowed timeline (JSONL / CSV exportable).
  std::shared_ptr<obs::TimelineSampler> timeline;
  /// SLO verdicts (populated only when config.slo is also active).
  bool has_slo_report = false;
  obs::SloReport slo_report;
};

/// Builds the full simulated deployment (9-VM-style topology: producer,
/// 4 Kafka brokers, data processor, serving VM, output consumer), runs the
/// workload, and analyzes the output log. Each call is hermetic and
/// deterministic under its seed.
crayfish::StatusOr<ExperimentResult> RunExperiment(
    const ExperimentConfig& config);

/// Mean / stddev of a metric across repeated results.
struct Aggregate {
  double mean = 0.0;
  double stddev = 0.0;
};
Aggregate AggregateThroughput(const std::vector<ExperimentResult>& results);
Aggregate AggregateLatencyMean(const std::vector<ExperimentResult>& results);

}  // namespace crayfish::core

#endif  // CRAYFISH_CORE_EXPERIMENT_H_
