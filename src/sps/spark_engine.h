#ifndef CRAYFISH_SPS_SPARK_ENGINE_H_
#define CRAYFISH_SPS_SPARK_ENGINE_H_

#include <memory>
#include <vector>

#include "broker/consumer.h"
#include "broker/producer.h"
#include "sps/engine.h"

namespace crayfish::sps {

/// Calibrated costs of the Spark Structured Streaming adapter
/// (micro-batch mode, minimum trigger interval, append output mode —
/// §3.4.1/§4.3).
struct SparkCosts {
  /// Driver poll for new offsets when idle.
  double poll_timeout_s = 0.05;
  double empty_cycle_s = 0.02;
  /// Per-micro-batch driver planning/scheduling.
  double schedule_s = 15e-3;
  /// Offset WAL + commit-log checkpoint, paid at batch start (source of
  /// Spark's latency floor; §5.3.1 reports 290.78 ms/event at ir=512).
  double checkpoint_s = 150e-3;
  /// Task launch per chunk.
  double task_launch_s = 2e-3;
  /// Serial driver-side cost per record (offset/plan bookkeeping,
  /// collect) — Spark's throughput asymptote (~23k ev/s, Fig. 11).
  double driver_record_s = 34e-6;
  /// Executor-side per-record deserialization.
  double record_per_byte_s = 25e-9;
  double record_fixed_s = 30e-6;
  double produce_fixed_s = 30e-6;
  /// Executor cores (paper: 60).
  int executor_cores = 60;
  /// Kafka input partitions bound the chunk fan-out.
  int max_chunks = 32;
  /// Rate limit per trigger (spark maxOffsetsPerTrigger); 0 = unbounded.
  int64_t max_offsets_per_trigger = 0;
  /// Continuous processing mode ("spark.continuous"): the experimental
  /// event-at-a-time alternative the paper declined to use (§3.4.1).
  /// Long-running tasks process records as they arrive with only
  /// lightweight asynchronous epoch markers — no per-batch checkpoint,
  /// no per-batch scheduling, at-least-once semantics.
  bool continuous = false;
  double epoch_marker_s = 0.5e-3;
};

/// Spark Structured Streaming adapter: the driver runs a trigger loop;
/// each micro-batch checkpoints offsets, splits the batch into chunks (one
/// per input partition, bounded by executor cores) and executes chunks in
/// parallel; records within a chunk are processed sequentially.
///
/// Because chunk fan-out follows the input partitions, not `mp`, vertical
/// scaling is flat (Fig. 11) while the external-serving path benefits from
/// the wide per-batch fan-out (Table 5's near-identical ONNX/TF-Serving
/// throughput).
class SparkEngine : public StreamEngine {
 public:
  SparkEngine(sim::Simulation* sim, sim::Network* network,
              broker::KafkaCluster* cluster, EngineConfig config,
              ScoringConfig scoring, SparkCosts costs);

  const char* name() const override { return "spark"; }
  crayfish::Status Start() override;

  const SparkCosts& costs() const { return costs_; }
  uint64_t micro_batches() const { return micro_batches_; }

 private:
  void TriggerLoop();
  void RunMicroBatch(std::vector<broker::Record> records);
  /// Processes chunk records [begin, end) sequentially; calls on_done at
  /// the end.
  void RunChunk(std::shared_ptr<std::vector<broker::Record>> records,
                size_t begin, size_t end, std::function<void()> on_done);

  SparkCosts costs_;
  broker::KafkaConsumer* consumer_ = nullptr;
  std::unique_ptr<broker::KafkaProducer> producer_;
  uint64_t micro_batches_ = 0;
};

}  // namespace crayfish::sps

#endif  // CRAYFISH_SPS_SPARK_ENGINE_H_
