#ifndef CRAYFISH_SPS_FLINK_ENGINE_H_
#define CRAYFISH_SPS_FLINK_ENGINE_H_

#include <map>
#include <memory>
#include <vector>

#include "broker/consumer.h"
#include "broker/producer.h"
#include "sps/engine.h"
#include "sim/resource.h"
#include "sps/operator_task.h"

namespace crayfish::sps {

/// Calibrated per-event costs of the Flink adapter. Source+sink together
/// cost ~0.54 ms/event and the scoring wrapper ~0.04 ms, consistent with
/// Table 4 vs Fig. 12 (see serving/calibration.cc for the derivation).
struct FlinkCosts {
  double source_fixed_s = 250e-6;
  double source_per_byte_s = 30e-9;
  double scoring_wrapper_s = 40e-6;
  double sink_fixed_s = 200e-6;
  double sink_per_byte_s = 15e-9;
  /// Flink network-buffer quota: records spanning multiple 32 KB buffers
  /// pay a flush/copy cycle per extra buffer — the paper's explanation
  /// for Flink's large-record latency (§5.3.2).
  uint64_t network_buffer_bytes = 32 * 1024;
  double buffer_cycle_s = 3e-3;
  /// Bounded handoff queue between unchained stages (records).
  size_t stage_queue_capacity = 64;
  /// Consumer poll timeout of the source loop.
  double poll_timeout_s = 0.1;
  /// Asynchronous I/O for external serving (Flink's AsyncWaitOperator).
  /// The paper deliberately runs all external calls as *blocking* for
  /// engine parity (§4.3); enabling this ("flink.async_io = true") shows
  /// what that choice costs: the slot keeps processing while up to
  /// `async_capacity` RPCs are in flight (unordered mode).
  bool async_io = false;
  int async_capacity = 100;
  /// Exactly-once checkpointing ("flink.checkpoint_interval_s"): every
  /// interval each task stalls for the barrier alignment + state
  /// snapshot. Off (0) in the paper's runs — §7.2 notes the guarantees /
  /// performance trade-off without measuring it; this knob makes it
  /// measurable.
  double checkpoint_interval_s = 0.0;
  double checkpoint_stall_s = 50e-3;

  /// Source cost of one input record of `wire_bytes`.
  double SourceSeconds(uint64_t wire_bytes) const {
    return source_fixed_s +
           source_per_byte_s * static_cast<double>(wire_bytes);
  }
  /// Flush-wait latency of a record of `wire_bytes`: one buffer cycle per
  /// full network buffer it spans. Pure latency: no task is occupied.
  double BufferPenaltySeconds(uint64_t wire_bytes) const {
    return static_cast<double>(wire_bytes / network_buffer_bytes) *
           buffer_cycle_s;
  }
  /// Sink cost of one scored record of `out_bytes`.
  double SinkSeconds(uint64_t out_bytes) const {
    return sink_fixed_s + sink_per_byte_s * static_cast<double>(out_bytes);
  }
};

/// Apache Flink adapter: a push-based, pipelined dataflow engine.
///
/// Default mode replicates the fully *chained* pipeline the paper uses for
/// flink[N-N-N]: `parallelism` task slots, each running
/// source->score->sink serially over its share of the input partitions.
/// Setting source/sink parallelism in EngineConfig breaks the chain into
/// independent stages with bounded (credit-based) handoff queues —
/// flink[32-N-32] in Fig. 12.
class FlinkEngine : public StreamEngine {
 public:
  FlinkEngine(sim::Simulation* sim, sim::Network* network,
              broker::KafkaCluster* cluster, EngineConfig config,
              ScoringConfig scoring, FlinkCosts costs);

  const char* name() const override { return "flink"; }
  crayfish::Status Start() override;

  const FlinkCosts& costs() const { return costs_; }

 private:
  struct SlotState {
    broker::KafkaConsumer* consumer = nullptr;
    std::unique_ptr<broker::KafkaProducer> producer;
    // Async-I/O mode state: in-flight external requests and whether the
    // slot is parked waiting for capacity.
    int in_flight = 0;
    bool parked = false;
    std::function<void()> resume;
    /// Next checkpoint-barrier time (checkpointing mode).
    double next_checkpoint_at = 0.0;
    /// Serializes sink work for async completions (the slot's mailbox).
    std::unique_ptr<sim::SerialExecutor> emitter;
  };

  crayfish::Status StartChained();
  crayfish::Status StartUnchained();
  void ChainedPollLoop(int slot);
  void ProcessChainedRecords(
      int slot, std::shared_ptr<std::vector<broker::Record>> records,
      size_t index);
  void SourcePollLoop(int source_idx);
  void ForwardToScoring(int source_idx,
                        std::shared_ptr<std::vector<broker::Record>> records,
                        size_t index);
  /// Source-side handoff after the source charge: rebalance across
  /// scoring tasks with backpressure.
  void OfferToScoring(int source_idx,
                      std::shared_ptr<std::vector<broker::Record>> records,
                      size_t index);

  /// Scoring-side handoff of a scored record to sink task `sink`; parks
  /// on the sink's space-available callback while its queue is full and
  /// runs `done` (freeing the scoring task) once the sink accepts.
  void OfferToSink(size_t sink, broker::Record r, std::function<void()> done);
  /// Runs and clears the continuations parked on `task`.
  static void WakeWaiters(
      std::map<int, std::vector<std::function<void()>>>* waiters, int task);

  FlinkCosts costs_;
  bool chained_ = true;
  // Chained mode: one slot = consumer + producer + serial loop.
  std::vector<SlotState> slots_;
  // Unchained mode: one consumer per source task; the base owns the
  // consumers and the stage tasks.
  std::vector<OperatorTask*> scoring_tasks_;
  std::vector<OperatorTask*> sink_tasks_;
  std::vector<std::unique_ptr<broker::KafkaProducer>> sink_producers_;
  /// Ordered (lint R3): async-I/O wakeups fire in key order; an unordered
  /// container here would reorder scoring completions between runs.
  std::map<int, std::vector<std::function<void()>>> scoring_waiters_;
  /// Scoring tasks parked on a full sink queue, by sink index.
  std::map<int, std::vector<std::function<void()>>> sink_waiters_;
  int source_rr_ = 0;
  int scoring_rr_ = 0;
};

}  // namespace crayfish::sps

#endif  // CRAYFISH_SPS_FLINK_ENGINE_H_
