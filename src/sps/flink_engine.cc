#include "sps/flink_engine.h"

#include <algorithm>

#include "common/logging.h"

namespace crayfish::sps {

FlinkEngine::FlinkEngine(sim::Simulation* sim, sim::Network* network,
                         broker::KafkaCluster* cluster, EngineConfig config,
                         ScoringConfig scoring, FlinkCosts costs)
    : StreamEngine(sim, network, cluster, std::move(config),
                   std::move(scoring)),
      costs_(costs) {
  chained_ =
      config_.source_parallelism == 0 && config_.sink_parallelism == 0;
}

crayfish::Status FlinkEngine::Start() {
  CRAYFISH_RETURN_IF_ERROR(chained_ ? StartChained() : StartUnchained());
  sim_->Schedule(ModelLoadSeconds(), [this]() {
    if (stopped_) return;
    // One poll loop per slot (chained) or per source task (unchained).
    for (int i = 0; i < static_cast<int>(consumers_.size()); ++i) {
      if (chained_) {
        ChainedPollLoop(i);
      } else {
        SourcePollLoop(i);
      }
    }
  });
  return crayfish::Status::Ok();
}

crayfish::Status FlinkEngine::StartChained() {
  const int n = config_.parallelism;
  for (int i = 0; i < n; ++i) {
    SlotState slot;
    CRAYFISH_ASSIGN_OR_RETURN(slot.consumer, AddConsumer("flink", n, i));
    slot.producer = std::make_unique<broker::KafkaProducer>(cluster_,
                                                            config_.host);
    slot.emitter = std::make_unique<sim::SerialExecutor>(
        sim_, "flink-slot-emitter-" + std::to_string(i));
    slots_.push_back(std::move(slot));
  }
  return crayfish::Status::Ok();
}

void FlinkEngine::ChainedPollLoop(int slot) {
  if (stopped_) return;
  slots_[static_cast<size_t>(slot)].consumer->Poll(
      costs_.poll_timeout_s,
      [this, slot](std::vector<broker::Record> records) {
        if (stopped_) return;
        if (records.empty()) {
          ChainedPollLoop(slot);
          return;
        }
        auto batch = std::make_shared<std::vector<broker::Record>>(
            std::move(records));
        ProcessChainedRecords(slot, std::move(batch), 0);
      });
}

void FlinkEngine::ProcessChainedRecords(
    int slot, std::shared_ptr<std::vector<broker::Record>> records,
    size_t index) {
  if (stopped_) return;
  if (index >= records->size()) {
    ChainedPollLoop(slot);
    return;
  }
  const broker::Record& r = (*records)[index];
  // The record leaves the consumer buffer here: queue-wait ends, operator
  // service begins.
  TraceMark(r.batch_id, obs::Stage::kQueueWait);
  double source_time =
      costs_.SourceSeconds(r.wire_size) + costs_.scoring_wrapper_s;
  // Checkpoint barrier: periodically stall the task for alignment and
  // the state snapshot (exactly-once mode; off by default).
  if (costs_.checkpoint_interval_s > 0.0) {
    SlotState& cp_slot = slots_[static_cast<size_t>(slot)];
    if (sim_->Now() >= cp_slot.next_checkpoint_at) {
      source_time += costs_.checkpoint_stall_s;
      cp_slot.next_checkpoint_at =
          sim_->Now() + costs_.checkpoint_interval_s;
    }
  }
  const size_t depth =
      slots_[static_cast<size_t>(slot)].consumer->buffered();
  if (scoring_.external && costs_.async_io) {
    // AsyncWaitOperator semantics: issue the RPC and keep processing,
    // bounded by async_capacity in-flight requests (unordered emit).
    sim_->Schedule(
        source_time + ClientOverheadSeconds(),
        [this, slot, records, index, depth]() {
          if (stopped_) return;
          SlotState& s = slots_[static_cast<size_t>(slot)];
          ++s.in_flight;
          const broker::Record& issued = (*records)[index];
          InvokeExternal(
              issued.batch_id, static_cast<int>(issued.batch_size), depth,
              [this, slot, records, index]() {
                SlotState& s2 = slots_[static_cast<size_t>(slot)];
                --s2.in_flight;
                ++events_scored_;
                const broker::Record rec = (*records)[index];
                const double penalty =
                    costs_.BufferPenaltySeconds(rec.wire_size);
                s2.emitter->Post(
                    costs_.SinkSeconds(OutputWireBytes(rec)),
                    [this, slot, rec, penalty]() {
                      TraceMark(rec.batch_id, obs::Stage::kSerialize);
                      sim_->Schedule(penalty, [this, slot, rec]() {
                        if (stopped_) return;
                        TraceMark(rec.batch_id,
                                  obs::Stage::kBufferFlushWait);
                        CRAYFISH_CHECK_OK(EmitScored(
                            slots_[static_cast<size_t>(slot)]
                                .producer.get(),
                            rec));
                      });
                    });
                if (s2.parked && s2.in_flight < costs_.async_capacity) {
                  s2.parked = false;
                  std::function<void()> resume = std::move(s2.resume);
                  s2.resume = nullptr;
                  if (resume) resume();
                }
              });
          if (s.in_flight < costs_.async_capacity) {
            ProcessChainedRecords(slot, records, index + 1);
          } else {
            s.parked = true;
            s.resume = [this, slot, records, index]() {
              ProcessChainedRecords(slot, records, index + 1);
            };
          }
        });
    return;
  }
  // Synchronous scoring: the slot thread is occupied until it ends.
  Score(r, source_time, depth, [this, slot, records, index]() {
    const broker::Record& rec = (*records)[index];
    ++events_scored_;
    // The buffer-quota penalty is a *flush-wait* latency (records spanning
    // several network buffers sit in partially filled buffers), not CPU
    // occupancy: it delays the emit but does not block the task, so it
    // vanishes from throughput measurements and dominates large-record
    // closed-loop latency (§5.3.2).
    const double penalty = costs_.BufferPenaltySeconds(rec.wire_size);
    const double sink = costs_.SinkSeconds(OutputWireBytes(rec));
    sim_->Schedule(sink, [this, slot, records, index, penalty]() {
      if (stopped_) return;
      TraceMark((*records)[index].batch_id, obs::Stage::kSerialize);
      sim_->Schedule(penalty, [this, slot, records, index]() {
        if (stopped_) return;
        TraceMark((*records)[index].batch_id,
                  obs::Stage::kBufferFlushWait);
        CRAYFISH_CHECK_OK(EmitScored(
            slots_[static_cast<size_t>(slot)].producer.get(),
            (*records)[index]));
      });
      ProcessChainedRecords(slot, records, index + 1);
    });
  });
}

crayfish::Status FlinkEngine::StartUnchained() {
  const int s = std::max(1, config_.source_parallelism);
  const int n = config_.parallelism;
  const int k = std::max(1, config_.sink_parallelism);

  for (int i = 0; i < n; ++i) {
    OperatorTask* task = AddTask(
        "flink-score-" + std::to_string(i),
        [this](broker::Record r, std::function<void()> done) {
          TraceMark(r.batch_id, obs::Stage::kQueueWait);
          const size_t depth = scoring_tasks_.front()->queue_depth();
          Score(r, costs_.scoring_wrapper_s, depth,
                [this, r, done = std::move(done)]() mutable {
                  ++events_scored_;
                  // Rebalance to a sink task, round-robin.
                  const size_t sink = static_cast<size_t>(scoring_rr_) %
                                      sink_tasks_.size();
                  scoring_rr_ = (scoring_rr_ + 1) %
                                static_cast<int>(sink_tasks_.size());
                  OfferToSink(sink, std::move(r), std::move(done));
                });
        },
        costs_.stage_queue_capacity);
    task->SetSpaceAvailableCallback(
        [this, i]() { WakeWaiters(&scoring_waiters_, i); });
    scoring_tasks_.push_back(task);
  }

  for (int i = 0; i < k; ++i) {
    sink_producers_.push_back(
        std::make_unique<broker::KafkaProducer>(cluster_, config_.host));
    auto* producer = sink_producers_.back().get();
    sink_tasks_.push_back(AddTask(
        "flink-sink-" + std::to_string(i),
        [this, producer](broker::Record r, std::function<void()> done) {
          TraceMark(r.batch_id, obs::Stage::kQueueWait);
          const double penalty = costs_.BufferPenaltySeconds(r.wire_size);
          sim_->Schedule(costs_.SinkSeconds(OutputWireBytes(r)),
                         [this, producer, penalty, r = std::move(r),
                          done = std::move(done)]() {
                           TraceMark(r.batch_id, obs::Stage::kSerialize);
                           // Flush-wait latency without occupying the
                           // sink task (see the chained path).
                           sim_->Schedule(penalty, [this, producer, r]() {
                             if (!stopped_) {
                               TraceMark(r.batch_id,
                                         obs::Stage::kBufferFlushWait);
                               CRAYFISH_CHECK_OK(EmitScored(producer, r));
                             }
                           });
                           done();
                         });
        },
        costs_.stage_queue_capacity));
    sink_tasks_.back()->SetSpaceAvailableCallback(
        [this, i]() { WakeWaiters(&sink_waiters_, i); });
  }

  for (int i = 0; i < s; ++i) {
    CRAYFISH_RETURN_IF_ERROR(AddConsumer("flink", s, i).status());
  }
  return crayfish::Status::Ok();
}

void FlinkEngine::SourcePollLoop(int source_idx) {
  if (stopped_) return;
  consumers_[static_cast<size_t>(source_idx)]->Poll(
      costs_.poll_timeout_s,
      [this, source_idx](std::vector<broker::Record> records) {
        if (stopped_) return;
        if (records.empty()) {
          SourcePollLoop(source_idx);
          return;
        }
        auto batch = std::make_shared<std::vector<broker::Record>>(
            std::move(records));
        ForwardToScoring(source_idx, std::move(batch), 0);
      });
}

void FlinkEngine::ForwardToScoring(
    int source_idx, std::shared_ptr<std::vector<broker::Record>> records,
    size_t index) {
  if (stopped_) return;
  if (index >= records->size()) {
    SourcePollLoop(source_idx);
    return;
  }
  const broker::Record& r = (*records)[index];
  // Source task picks the record out of the consumer buffer.
  TraceMark(r.batch_id, obs::Stage::kQueueWait);
  const double source_time = costs_.SourceSeconds(r.wire_size);
  sim_->Schedule(source_time, [this, source_idx, records, index]() {
    OfferToScoring(source_idx, records, index);
  });
}

void FlinkEngine::OfferToScoring(
    int source_idx, std::shared_ptr<std::vector<broker::Record>> records,
    size_t index) {
  if (stopped_) return;
  broker::Record& rec = (*records)[index];
  const int n = static_cast<int>(scoring_tasks_.size());
  // Rebalance: round-robin, skipping backpressured tasks so one full
  // queue never starves the others.
  for (int k = 0; k < n; ++k) {
    const int t = (source_rr_ + k) % n;
    if (scoring_tasks_[static_cast<size_t>(t)]->Offer(rec)) {
      source_rr_ = (t + 1) % n;
      ForwardToScoring(source_idx, records, index + 1);
      return;
    }
  }
  // All scoring queues full: park this source until the next-in-line task
  // frees space (credit-based backpressure up to the Kafka source).
  const int target = source_rr_ % n;
  scoring_waiters_[target].push_back([this, source_idx, records, index]() {
    OfferToScoring(source_idx, records, index);
  });
}

void FlinkEngine::OfferToSink(size_t sink, broker::Record r,
                              std::function<void()> done) {
  if (stopped_) return;
  if (!sink_tasks_[sink]->Offer(r)) {
    // Sink queue full: the scoring task stays busy (its `done` waits)
    // until the sink frees space, so backpressure reaches the sources.
    sink_waiters_[static_cast<int>(sink)].push_back(
        [this, sink, r = std::move(r), done = std::move(done)]() mutable {
          OfferToSink(sink, std::move(r), std::move(done));
        });
    return;
  }
  done();
}

void FlinkEngine::WakeWaiters(
    std::map<int, std::vector<std::function<void()>>>* waiters, int task) {
  auto it = waiters->find(task);
  if (it == waiters->end()) return;
  std::vector<std::function<void()>> ready = std::move(it->second);
  waiters->erase(it);
  for (auto& w : ready) w();
}

int FlinkEngine::RestartableTasks() const {
  // The counts StartChained / StartUnchained create.
  return chained_ ? config_.parallelism
                  : std::max(1, config_.source_parallelism);
}

int FlinkEngine::InjectTaskFailure(int task_index, double restart_delay_s) {
  if (stopped_) return 0;
  // Task i's consumer is the slot's (chained) or the source's (unchained).
  const auto index = static_cast<size_t>(task_index);
  CRAYFISH_CHECK_LT(index, consumers_.size());
  consumers_[index]->FailAndRestart(restart_delay_s);
  return 1;
}

}  // namespace crayfish::sps
