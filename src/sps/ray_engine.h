#ifndef CRAYFISH_SPS_RAY_ENGINE_H_
#define CRAYFISH_SPS_RAY_ENGINE_H_

#include <memory>
#include <vector>

#include "broker/consumer.h"
#include "broker/producer.h"
#include "sps/engine.h"
#include "sps/operator_task.h"

namespace crayfish::sps {

/// Calibrated costs of the Ray adapter: Python actors with object-store
/// hops between them. Per-record Python handling dominates (Table 5: Ray
/// sustains only ~157 ev/s embedded / ~122 ev/s external at mp=1), but
/// transport costs per batch are low, so large-batch latency stays
/// competitive (Fig. 10: 169.7 ms at bsz=128 vs Flink's 167.4).
struct RayCosts {
  /// Actor mailbox hop: object-store put/get + Python dispatch.
  double actor_msg_s = 1.2e-3;
  /// Per-record Python handling in the scoring actor.
  double py_record_s = 4.0e-3;
  /// Additional Python per-sample handling for samples beyond the first
  /// (list slicing / array views — cheap relative to the per-record path).
  double py_per_sample_s = 0.15e-3;
  /// Python-side per-byte deserialization in the input actor.
  double record_per_byte_s = 40e-9;
  double input_record_s = 1.0e-3;
  double output_record_s = 0.8e-3;
  /// Native in-process (Python) inference per-sample times — Ray needs no
  /// interoperability library (§3.4.4). Table 5: 157.4 ev/s solves the
  /// scoring-actor occupancy to ~6.35 ms/event.
  double py_infer_ffnn_s = 1.15e-3;
  double py_infer_flops_per_s = 0.8e9;
  /// Batched Python inference vectorizes: samples beyond the first cost
  /// this fraction of the single-sample time (numpy amortization).
  double py_infer_batch_factor = 0.1;
  /// HTTP client call overhead to Ray Serve.
  double http_client_s = 0.05e-3;
  double poll_timeout_s = 0.1;
  size_t actor_queue_capacity = 64;
  /// Service inflation per extra actor chain (GIL/object-store pressure);
  /// Fig. 11: embedded Ray peaks ~1.2k ev/s.
  double contention_alpha = 0.07;
};

/// Ray adapter: `mp` chains of input -> scoring -> output actors with
/// one-to-one forwarding (§4.3). Embedded serving applies the model
/// natively in the scoring actor; external serving calls Ray Serve over
/// HTTP (through its single per-node proxy, modeled in the server).
class RayEngine : public StreamEngine {
 public:
  RayEngine(sim::Simulation* sim, sim::Network* network,
            broker::KafkaCluster* cluster, EngineConfig config,
            ScoringConfig scoring, RayCosts costs);

  const char* name() const override { return "ray"; }
  crayfish::Status Start() override;

  const RayCosts& costs() const { return costs_; }

 protected:
  /// Ray Serve is called over HTTP.
  double ClientOverheadSeconds() const override;
  /// Ray needs no interoperability library (§3.4.4): the scoring actor
  /// runs the model natively in Python, inflated per extra actor chain.
  double EmbeddedApplySeconds(int batch_size, size_t queue_depth) override;

 private:
  /// The base owns the consumer and the two actors.
  struct ActorChain {
    broker::KafkaConsumer* consumer = nullptr;
    OperatorTask* scoring_actor = nullptr;
    OperatorTask* output_actor = nullptr;
    std::unique_ptr<broker::KafkaProducer> producer;
  };

  void InputPollLoop(int chain);
  void ForwardRecords(int chain,
                      std::shared_ptr<std::vector<broker::Record>> records,
                      size_t index);
  double PyInferSeconds(int batch_size) const;

  RayCosts costs_;
  /// Service inflation of this deployment's `mp` chains.
  const double inflation_;
  std::vector<std::unique_ptr<ActorChain>> chains_;
};

}  // namespace crayfish::sps

#endif  // CRAYFISH_SPS_RAY_ENGINE_H_
