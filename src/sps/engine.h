#ifndef CRAYFISH_SPS_ENGINE_H_
#define CRAYFISH_SPS_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "broker/cluster.h"
#include "broker/consumer.h"
#include "broker/producer.h"
#include "common/config.h"
#include "common/rng.h"
#include "common/status.h"
#include "obs/stage.h"
#include "serving/embedded_library.h"
#include "serving/external_server.h"
#include "serving/model_profile.h"
#include "sim/network.h"
#include "sim/simulation.h"
#include "sps/operator_task.h"

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
  /// Engine cost-model overrides, `<engine>.<field>` (e.g.
  /// "spark.max_offsets_per_trigger"), checked by CheckEngineOverrides; a
  /// known field of another engine is checked and then left unused.
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
///
/// The base owns the scoring step (Score), the external RPC, telemetry and
/// teardown. An engine supplies its DAG shape and costs: it creates its
/// consumers and operator tasks through AddConsumer/AddTask, routes each
/// record into Score, and may override the two cost hooks below.
class StreamEngine {
 public:
  StreamEngine(sim::Simulation* sim, sim::Network* network,
               broker::KafkaCluster* cluster, EngineConfig config,
               ScoringConfig scoring);
  /// Stops the engine; its consumers and tasks are base members, so they
  /// are still alive here.
  virtual ~StreamEngine();

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  virtual const char* name() const = 0;

  /// Deploys tasks and starts consuming. Loads the model into the scoring
  /// operators first (embedded) — the streaming job begins after the load
  /// completes, as in the paper's adapters.
  virtual crayfish::Status Start() = 0;

  /// Stops all task loops (used at experiment teardown): closes every
  /// consumer and stops every operator task. Work still in flight is
  /// dropped.
  void Stop();

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

  /// Snapshot of the engine's current lag/queue/backpressure state, folded
  /// over its consumers and then its operator tasks in creation order.
  EngineTelemetry Telemetry() const;

  uint64_t events_scored() const { return events_scored_; }
  uint64_t records_emitted() const { return records_emitted_; }
  uint64_t serving_retries() const { return serving_retries_; }
  uint64_t real_inferences() const { return real_inferences_; }
  const EngineConfig& config() const { return config_; }
  const ScoringConfig& scoring() const { return scoring_; }

 protected:
  /// Creates a consumer in `group` on the engine host, assigned share
  /// `share_index` of `share_count` of the input topic's partitions
  /// (KafkaCluster::RangeAssign). The base owns it.
  crayfish::StatusOr<broker::KafkaConsumer*> AddConsumer(
      const std::string& group, int share_count, int share_index,
      broker::ConsumerConfig consumer_config = {});

  /// Creates an operator task on the engine host. The base owns it.
  OperatorTask* AddTask(std::string name, OperatorTask::ProcessFn process,
                        size_t max_queue);

  /// The scoring operator's step for one record, after `pre_s` seconds of
  /// the engine's own per-record work; `queue_depth` is the input backlog
  /// the stress model sees. External serving issues the blocking RPC
  /// after the client overhead (kScore at issue, kServeRpc at the reply).
  /// Embedded serving runs validation-mode inference, draws the apply
  /// time and marks kScore when it ends. `done` runs when scoring ends,
  /// and never after Stop().
  void Score(const broker::Record& record, double pre_s, size_t queue_depth,
             std::function<void()> done);

  /// The blocking external-serving RPC with the stress model applied: the
  /// scoring thread stays occupied for the round trip plus the
  /// stress-induced stall. Marks kScore at issue and kServeRpc before
  /// `done`. With the retry policy active, an unanswered attempt is
  /// re-issued with backoff, and after max_retries `done` runs anyway
  /// (scoring work is lost, the record is not). A re-issue passes its
  /// `attempt` number and the first attempt's `multiplier`; callers leave
  /// both at their defaults.
  void InvokeExternal(uint64_t batch_id, int batch_size, size_t queue_depth,
                      std::function<void()> done, int attempt = 0,
                      double multiplier = 1.0);

  /// Cost hook: client-side seconds before an external RPC leaves.
  virtual double ClientOverheadSeconds() const;

  /// Cost hook: simulated duration of one embedded apply() on a scoring
  /// task — the library's apply time under contention, stress, drift and
  /// warmup.
  virtual double EmbeddedApplySeconds(int batch_size, size_t queue_depth);

  /// Effective parallelism used for the embedded-library contention model.
  /// Engines that schedule work onto shared cores more efficiently (the
  /// paper credits Kafka Streams' pull model, §5.3.3) map `mp` to a lower
  /// effective contention level.
  virtual double EffectiveContentionParallelism() const {
    return static_cast<double>(config_.parallelism);
  }

  /// Seconds the embedded library takes to load the model into the
  /// scoring operators before the job starts (§3.4.1); 0 for external
  /// serving, whose servers load on their own host.
  double ModelLoadSeconds() const;

  /// Stage-mark hook: no-op when tracing is disabled.
  void TraceMark(uint64_t batch_id, obs::Stage stage);

  /// Emits the scored record to the output topic through `producer`,
  /// preserving batch identity and the original create_time.
  crayfish::Status EmitScored(broker::KafkaProducer* producer,
                              const broker::Record& in);

  sim::Simulation* sim_;
  sim::Network* network_;
  broker::KafkaCluster* cluster_;
  EngineConfig config_;
  ScoringConfig scoring_;
  crayfish::Rng rng_;
  /// The engine host and the output topic, resolved once (the output
  /// topic on the first emit, as it may be created after the engine).
  sim::HostId host_id_{};
  std::optional<broker::TopicId> output_topic_;
  bool stopped_ = false;
  uint64_t events_scored_ = 0;
  uint64_t records_emitted_ = 0;
  /// In creation order, which is the order Telemetry() folds them in.
  std::vector<std::unique_ptr<broker::KafkaConsumer>> consumers_;
  std::vector<std::unique_ptr<OperatorTask>> tasks_;

 private:
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

  /// Validation mode: when the embedded library holds a real model and
  /// the record carries a materialized payload, actually runs inference
  /// on it (true JSON parse -> tensor -> forward pass). The result is
  /// checked for shape sanity and counted; simulated timing is untouched
  /// — the real math validates that `load`/`apply` honor the contract
  /// end-to-end inside the pipeline.
  void MaybeRealApply(const broker::Record& record);

  uint64_t real_inferences_ = 0;
  uint64_t serving_retries_ = 0;
  double stress_ = 0.0;
  double stress_updated_at_ = 0.0;
  double slow_factor_ = 1.0;
  double slow_resample_at_ = 0.0;
  double first_apply_at_ = -1.0;
};

/// Checks every `<engine>.<field>` cost override in `overrides` against the
/// four engines' override tables: InvalidArgument on a malformed value, an
/// unknown field or any other prefix. A known field of another engine
/// passes, so a sweep base shared across engines fails on a typo whichever
/// engine runs. CreateEngine applies the overrides through the same check.
crayfish::Status CheckEngineOverrides(const crayfish::Config& overrides);

/// Factory: "flink" | "kafka-streams" | "spark" | "ray". Applies
/// `config.overrides` to the engine's costs first (InvalidArgument on a bad
/// one).
crayfish::StatusOr<std::unique_ptr<StreamEngine>> CreateEngine(
    const std::string& engine_name, sim::Simulation* sim,
    sim::Network* network, broker::KafkaCluster* cluster,
    EngineConfig config, ScoringConfig scoring);

/// Canonical engine names in paper order.
std::vector<std::string> EngineNames();

}  // namespace crayfish::sps

#endif  // CRAYFISH_SPS_ENGINE_H_
