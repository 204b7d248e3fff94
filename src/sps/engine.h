#ifndef CRAYFISH_SPS_ENGINE_H_
#define CRAYFISH_SPS_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "broker/cluster.h"
#include "broker/producer.h"
#include "common/config.h"
#include "common/rng.h"
#include "common/status.h"
#include "obs/stage.h"  // lint: layering-ok instrumentation hook; obs reads state, never feeds it back
#include "serving/embedded_library.h"
#include "serving/external_server.h"
#include "serving/model_profile.h"
#include "sim/network.h"
#include "sim/simulation.h"

namespace crayfish::sps {

/// What the scoring operator (S/E in Fig. 4) does with each record:
/// embedded apply through an interoperability library, or a blocking RPC
/// to an external serving service (§4.3: all external calls blocking).
struct ScoringConfig {
  bool external = false;
  /// Embedded path (owned by the experiment; must outlive the engine).
  serving::EmbeddedLibrary* library = nullptr;
  /// External path (owned by the experiment; must outlive the engine).
  serving::ExternalServingServer* server = nullptr;
  serving::ModelProfile model;
  bool use_gpu = false;
  /// Timeout/backoff policy for the external-serving RPC (disabled by
  /// default). When active, an unanswered Invoke is re-issued with
  /// backoff; after max_retries the record proceeds anyway (scoring work
  /// is lost but the record is not).
  crayfish::RetryPolicy retry;
};

/// Deployment parameters of the data-processor component.
struct EngineConfig {
  /// Host of the SPS VM (paper: 64 vCPUs / 240 GB).
  std::string host = "processor";
  /// Default parallelism of the streaming DAG — the experiments' `mp`.
  int parallelism = 1;
  /// Flink only: operator-level parallelism for source/sink (Fig. 12's
  /// flink[32-N-32]). 0 keeps the default (fully chained) pipeline.
  int source_parallelism = 0;
  int sink_parallelism = 0;
  std::string input_topic = "crayfish-in";
  std::string output_topic = "crayfish-out";
  /// Free-form engine-specific overrides (e.g.
  /// "spark.max_offsets_per_trigger").
  crayfish::Config overrides;
};

/// Read-only runtime telemetry snapshot of a deployed engine, sampled at
/// tumbling-window boundaries by the telemetry timeline. Collecting it
/// must not mutate engine state.
struct EngineTelemetry {
  /// Sum over all engine consumers of records appended to their assigned
  /// partitions but not yet delivered (Theodolite's demand signal).
  int64_t consumer_lag = 0;
  /// Largest single-partition lag across all engine consumers.
  int64_t max_partition_lag = 0;
  /// Records buffered inside the engine: client-side prefetch buffers plus
  /// operator task queues.
  int64_t queue_depth = 0;
  /// Cumulative backpressure stall seconds across operator tasks
  /// (monotone; the timeline reports per-window deltas).
  double backpressure_stall_s = 0.0;
};

/// A deployed stream processor running the three-operator Crayfish DAG
/// (inputOp -> scoringOp -> outputOp, §3.2). Engines consume the input
/// topic, score every CrayfishDataBatch, and produce to the output topic;
/// all timestamps are taken outside the engine (SUT separation, §3.5).
class StreamEngine {
 public:
  StreamEngine(sim::Simulation* sim, sim::Network* network,
               broker::KafkaCluster* cluster, EngineConfig config,
               ScoringConfig scoring);
  virtual ~StreamEngine() = default;

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  virtual const char* name() const = 0;

  /// Deploys tasks and starts consuming. Loads the model into the scoring
  /// operators first (embedded) — the streaming job begins after the load
  /// completes, as in the paper's adapters.
  virtual crayfish::Status Start() = 0;

  /// Stops all task loops (used at experiment teardown).
  virtual void Stop() = 0;

  /// Number of operator tasks InjectTaskFailure can restart, known before
  /// Start() — 0 when the engine does not model restartable tasks.
  virtual int RestartableTasks() const { return 0; }

  /// Fault hook: crash-restarts operator task `task_index`, which must be
  /// below RestartableTasks(). The task's consumer session dies uncommitted
  /// and resumes from the group's committed offsets after
  /// `restart_delay_s` (at-least-once: duplicates possible, no loss).
  /// Returns the number of tasks restarted.
  virtual int InjectTaskFailure(int task_index, double restart_delay_s) {
    (void)task_index;
    (void)restart_delay_s;
    return 0;
  }

  /// Snapshot of the engine's current lag/queue/backpressure state. The
  /// default is empty; engines override to aggregate over their consumers
  /// and tasks.
  virtual EngineTelemetry Telemetry() const { return EngineTelemetry{}; }

  uint64_t events_scored() const { return events_scored_; }
  uint64_t records_emitted() const { return records_emitted_; }
  uint64_t serving_retries() const { return serving_retries_; }
  const EngineConfig& config() const { return config_; }
  const ScoringConfig& scoring() const { return scoring_; }

 protected:
  /// Effective parallelism used for the embedded-library contention model.
  /// Engines that schedule work onto shared cores more efficiently (the
  /// paper credits Kafka Streams' pull model, §5.3.3) map `mp` to a lower
  /// effective contention level.
  virtual double EffectiveContentionParallelism() const {
    return static_cast<double>(config_.parallelism);
  }

  /// Simulated duration of one embedded apply() on a scoring task.
  /// Includes the GC-debt stress multiplier.
  double EmbeddedApplySeconds(int batch_size, size_t queue_depth);

  /// GC-debt stress: sustained deep input queues (> 128 records) degrade
  /// scoring service by up to `gamma`, building with tau_up and decaying
  /// with tau_down. History dependence is the point — short saturation
  /// probes see little of it, long burst backlogs see all of it (Fig. 8).
  /// Returns the current multiplier and advances the state to Now().
  double StressMultiplier(size_t queue_depth);

  /// Slow mean-one capacity drift of the embedded library (GC cycles,
  /// JIT): a lognormal factor resampled every ~10 s of simulated time.
  /// External tools model the equivalent drift server-side.
  double SlowDriftFactor();

  /// JVM/JIT warmup multiplier of the hosting SPS process: decays from
  /// the library's warmup_factor to 1 over warmup_duration_s after the
  /// first scored event. The metrics analyzer's 25% warmup discard
  /// removes its effect from all reported statistics (§4.2).
  double WarmupFactor();

  /// Blocking external call with the stress model applied: the scoring
  /// thread stays occupied for the round trip plus the stress-induced
  /// stall (client-side churn under sustained backlog).
  void InvokeExternalWithStress(int batch_size, size_t queue_depth,
                                std::function<void()> done);

  /// Record-aware variant that also traces the RPC: marks kScore at issue
  /// (client-side preparation ends here) and kServeRpc at completion.
  void InvokeExternalWithStress(const broker::Record& record,
                                size_t queue_depth,
                                std::function<void()> done);

  /// Stage-mark hook: no-op when tracing is disabled.
  void TraceMark(uint64_t batch_id, obs::Stage stage);

  /// Emits the scored record to the output topic through `producer`,
  /// preserving batch identity and the original create_time.
  crayfish::Status EmitScored(broker::KafkaProducer* producer,
                              const broker::Record& in);

  /// Validation mode: when the embedded library holds a real model and
  /// the record carries a materialized payload, actually runs inference
  /// on it (true JSON parse -> tensor -> forward pass). The result is
  /// checked for shape sanity and counted; simulated timing is untouched
  /// — the real math validates that `load`/`apply` honor the contract
  /// end-to-end inside the pipeline.
  void MaybeRealApply(const broker::Record& record);

 public:
  uint64_t real_inferences() const { return real_inferences_; }

 protected:

  sim::Simulation* sim_;
  sim::Network* network_;
  broker::KafkaCluster* cluster_;
  EngineConfig config_;
  ScoringConfig scoring_;
  crayfish::Rng rng_;
  bool stopped_ = false;
  uint64_t events_scored_ = 0;
  uint64_t records_emitted_ = 0;
  uint64_t real_inferences_ = 0;
  uint64_t serving_retries_ = 0;

 private:
  /// One timed attempt of the external RPC; re-issues with backoff until
  /// the retry budget runs out, then completes `done` regardless.
  void InvokeExternalAttempt(int batch_size, double multiplier, int attempt,
                             std::shared_ptr<std::function<void()>> done);

  double stress_ = 0.0;
  double stress_updated_at_ = 0.0;
  double slow_factor_ = 1.0;
  double slow_resample_at_ = 0.0;
  double first_apply_at_ = -1.0;
};

/// Factory: "flink" | "kafka-streams" | "spark" | "ray".
crayfish::StatusOr<std::unique_ptr<StreamEngine>> CreateEngine(
    const std::string& engine_name, sim::Simulation* sim,
    sim::Network* network, broker::KafkaCluster* cluster,
    EngineConfig config, ScoringConfig scoring);

/// Canonical engine names in paper order.
std::vector<std::string> EngineNames();

}  // namespace crayfish::sps

#endif  // CRAYFISH_SPS_ENGINE_H_
