#include "sps/ray_engine.h"

#include <algorithm>

#include "common/logging.h"

namespace crayfish::sps {

RayEngine::RayEngine(sim::Simulation* sim, sim::Network* network,
                     broker::KafkaCluster* cluster, EngineConfig config,
                     ScoringConfig scoring)
    : StreamEngine(sim, network, cluster, std::move(config),
                   std::move(scoring)) {
  costs_.py_record_s = config_.overrides.GetDoubleOr("ray.py_record_s",
                                                     costs_.py_record_s);
}

RayEngine::~RayEngine() { Stop(); }

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

crayfish::Status RayEngine::Start() {
  CRAYFISH_ASSIGN_OR_RETURN(int partitions,
                            cluster_->NumPartitions(config_.input_topic));
  const int n = config_.parallelism;
  const double inflation =
      1.0 + costs_.contention_alpha * static_cast<double>(n - 1);
  for (int i = 0; i < n; ++i) {
    auto chain = std::make_unique<ActorChain>();
    chain->consumer = std::make_unique<broker::KafkaConsumer>(
        cluster_, config_.host, "ray");
    CRAYFISH_RETURN_IF_ERROR(chain->consumer->Assign(
        config_.input_topic,
        broker::KafkaCluster::RangeAssign(partitions, n, i)));
    chain->producer =
        std::make_unique<broker::KafkaProducer>(cluster_, config_.host);

    ActorChain* c = chain.get();
    chain->output_actor = std::make_unique<OperatorTask>(
        sim_, "ray-output-" + std::to_string(i),
        [this, c, inflation](broker::Record r, std::function<void()> done) {
          TraceMark(r.batch_id, obs::Stage::kQueueWait);
          const double t =
              (costs_.actor_msg_s + costs_.output_record_s) * inflation;
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

    chain->scoring_actor = std::make_unique<OperatorTask>(
        sim_, "ray-score-" + std::to_string(i),
        [this, c, inflation](broker::Record r, std::function<void()> done) {
          TraceMark(r.batch_id, obs::Stage::kQueueWait);
          auto deliver = [this, c, r,
                          done = std::move(done)]() mutable {
            if (stopped_) {
              done();
              return;
            }
            ++events_scored_;
            // 1:1 forwarding to the paired output actor; its queue is
            // effectively unbounded relative to scoring throughput.
            c->output_actor->Offer(r);
            done();
          };
          const double base =
              (costs_.actor_msg_s + costs_.py_record_s +
               costs_.py_per_sample_s *
                   static_cast<double>(r.batch_size > 0 ? r.batch_size - 1
                                                        : 0)) *
              inflation;
          if (scoring_.external) {
            const size_t depth = c->scoring_actor
                                     ? c->scoring_actor->queue_depth()
                                     : 0;
            sim_->Schedule(base + costs_.http_client_s,
                           [this, r, depth,
                            deliver = std::move(deliver)]() mutable {
                             if (stopped_) {
                               deliver();
                               return;
                             }
                             InvokeExternalWithStress(
                                 r, depth, std::move(deliver));
                           });
            return;
          }
          MaybeRealApply(r);
          const uint64_t batch_id = r.batch_id;
          sim_->Schedule(base + PyInferSeconds(static_cast<int>(
                                    r.batch_size)) *
                                    inflation,
                         [this, batch_id,
                          deliver = std::move(deliver)]() mutable {
                           TraceMark(batch_id, obs::Stage::kScore);
                           deliver();
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
    ch->input_parked = true;
    ch->scoring_actor->SetSpaceAvailableCallback(
        [this, chain, records, index]() {
          ActorChain* ch2 = chains_[static_cast<size_t>(chain)].get();
          ch2->input_parked = false;
          ForwardRecords(chain, records, index);
        });
  });
}

EngineTelemetry RayEngine::Telemetry() const {
  EngineTelemetry t;
  for (const auto& chain : chains_) {
    if (chain->consumer) {
      t.consumer_lag += chain->consumer->TotalLag();
      t.max_partition_lag =
          std::max(t.max_partition_lag, chain->consumer->MaxPartitionLag());
      t.queue_depth += static_cast<int64_t>(chain->consumer->buffered());
    }
    for (const OperatorTask* actor :
         {chain->scoring_actor.get(), chain->output_actor.get()}) {
      if (actor == nullptr) continue;
      t.queue_depth += static_cast<int64_t>(actor->queue_depth());
      t.backpressure_stall_s += actor->stall_time_s();
    }
  }
  return t;
}

void RayEngine::Stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& c : chains_) {
    if (c->consumer) c->consumer->Close();
    if (c->scoring_actor) c->scoring_actor->Stop();
    if (c->output_actor) c->output_actor->Stop();
  }
}

}  // namespace crayfish::sps
