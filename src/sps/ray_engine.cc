#include "sps/ray_engine.h"

#include "common/logging.h"

namespace crayfish::sps {

RayEngine::RayEngine(sim::Simulation* sim, sim::Network* network,
                     broker::KafkaCluster* cluster, EngineConfig config,
                     ScoringConfig scoring, RayCosts costs)
    : StreamEngine(sim, network, cluster, std::move(config),
                   std::move(scoring)),
      costs_(costs),
      inflation_(1.0 + costs_.contention_alpha *
                           static_cast<double>(config_.parallelism - 1)) {}

double RayEngine::PyInferSeconds(int batch_size) const {
  double per_sample;
  if (scoring_.model.name == "ffnn") {
    per_sample = costs_.py_infer_ffnn_s;
  } else {
    per_sample = static_cast<double>(scoring_.model.flops_per_sample) /
                 costs_.py_infer_flops_per_s;
  }
  // Vectorized batch execution: first sample full price, the rest at the
  // amortized batch factor.
  return per_sample *
         (1.0 + costs_.py_infer_batch_factor *
                    static_cast<double>(batch_size - 1));
}

double RayEngine::ClientOverheadSeconds() const {
  return costs_.http_client_s;
}

double RayEngine::EmbeddedApplySeconds(int batch_size, size_t queue_depth) {
  (void)queue_depth;
  return PyInferSeconds(batch_size) * inflation_;
}

crayfish::Status RayEngine::Start() {
  const int n = config_.parallelism;
  for (int i = 0; i < n; ++i) {
    auto chain = std::make_unique<ActorChain>();
    CRAYFISH_ASSIGN_OR_RETURN(chain->consumer, AddConsumer("ray", n, i));
    chain->producer =
        std::make_unique<broker::KafkaProducer>(cluster_, config_.host);

    ActorChain* c = chain.get();
    chain->scoring_actor = AddTask(
        "ray-score-" + std::to_string(i),
        [this, c](broker::Record r, std::function<void()> done) {
          TraceMark(r.batch_id, obs::Stage::kQueueWait);
          const double base =
              (costs_.actor_msg_s + costs_.py_record_s +
               costs_.py_per_sample_s *
                   static_cast<double>(r.batch_size > 0 ? r.batch_size - 1
                                                        : 0)) *
              inflation_;
          Score(r, base, c->scoring_actor->queue_depth(),
                [this, c, r, done = std::move(done)]() {
                  ++events_scored_;
                  // 1:1 forwarding to the paired output actor; its queue
                  // is effectively unbounded relative to scoring
                  // throughput.
                  c->output_actor->Offer(r);
                  done();
                });
        },
        costs_.actor_queue_capacity);
    chain->output_actor = AddTask(
        "ray-output-" + std::to_string(i),
        [this, c](broker::Record r, std::function<void()> done) {
          TraceMark(r.batch_id, obs::Stage::kQueueWait);
          const double t =
              (costs_.actor_msg_s + costs_.output_record_s) * inflation_;
          sim_->Schedule(t, [this, c, r = std::move(r),
                             done = std::move(done)]() {
            if (!stopped_) {
              TraceMark(r.batch_id, obs::Stage::kSerialize);
              CRAYFISH_CHECK_OK(EmitScored(c->producer.get(), r));
            }
            done();
          });
        },
        costs_.actor_queue_capacity);
    chains_.push_back(std::move(chain));
  }
  // Python-native model load in each scoring actor (no interop library).
  const double load_delay =
      scoring_.external
          ? 0.0
          : 0.5 + static_cast<double>(scoring_.model.weight_bytes) /
                      (300.0 * 1024 * 1024);
  sim_->Schedule(load_delay, [this]() {
    if (stopped_) return;
    for (int i = 0; i < static_cast<int>(chains_.size()); ++i) {
      InputPollLoop(i);
    }
  });
  return crayfish::Status::Ok();
}

void RayEngine::InputPollLoop(int chain) {
  if (stopped_) return;
  ActorChain* c = chains_[static_cast<size_t>(chain)].get();
  c->consumer->Poll(costs_.poll_timeout_s,
                    [this, chain](std::vector<broker::Record> records) {
                      if (stopped_) return;
                      if (records.empty()) {
                        InputPollLoop(chain);
                        return;
                      }
                      auto batch =
                          std::make_shared<std::vector<broker::Record>>(
                              std::move(records));
                      ForwardRecords(chain, std::move(batch), 0);
                    });
}

void RayEngine::ForwardRecords(
    int chain, std::shared_ptr<std::vector<broker::Record>> records,
    size_t index) {
  if (stopped_) return;
  if (index >= records->size()) {
    InputPollLoop(chain);
    return;
  }
  const broker::Record& r = (*records)[index];
  // The input actor takes the record out of the poll buffer.
  TraceMark(r.batch_id, obs::Stage::kQueueWait);
  const double input_time =
      costs_.input_record_s +
      costs_.record_per_byte_s * static_cast<double>(r.wire_size) +
      costs_.actor_msg_s;
  sim_->Schedule(input_time, [this, chain, records, index]() {
    if (stopped_) return;
    ActorChain* ch = chains_[static_cast<size_t>(chain)].get();
    if (ch->scoring_actor->Offer((*records)[index])) {
      ForwardRecords(chain, records, index + 1);
      return;
    }
    // Backpressure: park; resume when the scoring actor frees space.
    ch->scoring_actor->SetSpaceAvailableCallback(
        [this, chain, records, index]() {
          ForwardRecords(chain, records, index);
        });
  });
}

}  // namespace crayfish::sps
