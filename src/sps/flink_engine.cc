#include "sps/flink_engine.h"

#include <algorithm>

#include "common/logging.h"

namespace crayfish::sps {

FlinkEngine::FlinkEngine(sim::Simulation* sim, sim::Network* network,
                         broker::KafkaCluster* cluster, EngineConfig config,
                         ScoringConfig scoring)
    : StreamEngine(sim, network, cluster, std::move(config),
                   std::move(scoring)) {
  costs_.buffer_cycle_s = config_.overrides.GetDoubleOr(
      "flink.buffer_cycle_s", costs_.buffer_cycle_s);
  costs_.async_io =
      config_.overrides.GetBoolOr("flink.async_io", costs_.async_io);
  costs_.async_capacity = static_cast<int>(config_.overrides.GetIntOr(
      "flink.async_capacity", costs_.async_capacity));
  costs_.checkpoint_interval_s = config_.overrides.GetDoubleOr(
      "flink.checkpoint_interval_s", costs_.checkpoint_interval_s);
  costs_.checkpoint_stall_s = config_.overrides.GetDoubleOr(
      "flink.checkpoint_stall_s", costs_.checkpoint_stall_s);
  costs_.stage_queue_capacity = static_cast<size_t>(
      config_.overrides.GetIntOr("flink.stage_queue_capacity",
                                 static_cast<int64_t>(
                                     costs_.stage_queue_capacity)));
  chained_ =
      config_.source_parallelism == 0 && config_.sink_parallelism == 0;
}

FlinkEngine::~FlinkEngine() { Stop(); }

double FlinkEngine::SourceSeconds(const broker::Record& r) const {
  return costs_.source_fixed_s +
         costs_.source_per_byte_s * static_cast<double>(r.wire_size);
}

double FlinkEngine::BufferPenaltySeconds(const broker::Record& r) const {
  const uint64_t extra_buffers = r.wire_size / costs_.network_buffer_bytes;
  return static_cast<double>(extra_buffers) * costs_.buffer_cycle_s;
}

double FlinkEngine::SinkSeconds(const broker::Record& r) const {
  const uint64_t out_bytes = scoring_.model.OutputBatchWireBytes(
      static_cast<int>(r.batch_size));
  return costs_.sink_fixed_s +
         costs_.sink_per_byte_s * static_cast<double>(out_bytes);
}

crayfish::Status FlinkEngine::Start() {
  // Embedded serving loads the model into the scoring operators before
  // the job starts (§3.4.1); external servers load on their own host.
  double load_delay = 0.0;
  if (!scoring_.external) {
    load_delay = scoring_.library->LoadTimeSeconds(scoring_.model);
  }
  crayfish::Status setup =
      chained_ ? StartChained() : StartUnchained();
  CRAYFISH_RETURN_IF_ERROR(setup);
  sim_->Schedule(load_delay, [this]() {
    if (stopped_) return;
    if (chained_) {
      for (int i = 0; i < static_cast<int>(slots_.size()); ++i) {
        ChainedPollLoop(i);
      }
    } else {
      for (int i = 0; i < static_cast<int>(source_consumers_.size()); ++i) {
        SourcePollLoop(i);
      }
    }
  });
  return crayfish::Status::Ok();
}

crayfish::Status FlinkEngine::StartChained() {
  CRAYFISH_ASSIGN_OR_RETURN(int partitions,
                            cluster_->NumPartitions(config_.input_topic));
  const int n = config_.parallelism;
  for (int i = 0; i < n; ++i) {
    SlotState slot;
    slot.consumer = std::make_unique<broker::KafkaConsumer>(
        cluster_, config_.host, "flink");
    CRAYFISH_RETURN_IF_ERROR(slot.consumer->Assign(
        config_.input_topic, broker::KafkaCluster::RangeAssign(partitions,
                                                               n, i)));
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
  double source_time = SourceSeconds(r) + costs_.scoring_wrapper_s;
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
  auto finish = [this, slot, records, index]() {
    if (stopped_) return;
    const broker::Record& rec = (*records)[index];
    ++events_scored_;
    // The buffer-quota penalty is a *flush-wait* latency (records spanning
    // several network buffers sit in partially filled buffers), not CPU
    // occupancy: it delays the emit but does not block the task, so it
    // vanishes from throughput measurements and dominates large-record
    // closed-loop latency (§5.3.2).
    const double penalty = BufferPenaltySeconds(rec);
    sim_->Schedule(SinkSeconds(rec), [this, slot, records, index,
                                      penalty]() {
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
  };
  const size_t depth =
      slots_[static_cast<size_t>(slot)].consumer->buffered();
  if (scoring_.external && costs_.async_io) {
    // AsyncWaitOperator semantics: issue the RPC and keep processing,
    // bounded by async_capacity in-flight requests (unordered emit).
    sim_->Schedule(
        source_time + scoring_.server->costs().client_overhead_s,
        [this, slot, records, index, depth]() {
          if (stopped_) return;
          SlotState& s = slots_[static_cast<size_t>(slot)];
          ++s.in_flight;
          InvokeExternalWithStress(
              (*records)[index], depth,
              [this, slot, records, index]() {
                if (stopped_) return;
                SlotState& s2 = slots_[static_cast<size_t>(slot)];
                --s2.in_flight;
                ++events_scored_;
                const broker::Record rec = (*records)[index];
                const double penalty = BufferPenaltySeconds(rec);
                s2.emitter->Post(
                    SinkSeconds(rec), [this, slot, rec, penalty]() {
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
  if (scoring_.external) {
    // Blocking call: the slot thread is occupied for the full round trip.
    sim_->Schedule(
        source_time + scoring_.server->costs().client_overhead_s,
        [this, records, index, depth, finish]() {
          if (stopped_) return;
          InvokeExternalWithStress((*records)[index], depth, finish);
        });
    return;
  }
  MaybeRealApply(r);
  const double apply =
      EmbeddedApplySeconds(static_cast<int>(r.batch_size), depth);
  sim_->Schedule(source_time + apply, [this, records, index, finish]() {
    if (stopped_) return;
    TraceMark((*records)[index].batch_id, obs::Stage::kScore);
    finish();
  });
}

crayfish::Status FlinkEngine::StartUnchained() {
  CRAYFISH_ASSIGN_OR_RETURN(int partitions,
                            cluster_->NumPartitions(config_.input_topic));
  const int s = std::max(1, config_.source_parallelism);
  const int n = config_.parallelism;
  const int k = std::max(1, config_.sink_parallelism);

  for (int i = 0; i < k; ++i) {
    sink_producers_.push_back(
        std::make_unique<broker::KafkaProducer>(cluster_, config_.host));
    auto* producer = sink_producers_.back().get();
    sink_tasks_.push_back(std::make_unique<OperatorTask>(
        sim_, "flink-sink-" + std::to_string(i),
        [this, producer](broker::Record r, std::function<void()> done) {
          TraceMark(r.batch_id, obs::Stage::kQueueWait);
          const double penalty = BufferPenaltySeconds(r);
          sim_->Schedule(SinkSeconds(r),
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
  }

  for (int i = 0; i < n; ++i) {
    scoring_tasks_.push_back(std::make_unique<OperatorTask>(
        sim_, "flink-score-" + std::to_string(i),
        [this](broker::Record r, std::function<void()> done) {
          TraceMark(r.batch_id, obs::Stage::kQueueWait);
          auto forward = [this, r, done = std::move(done)]() mutable {
            if (stopped_) {
              done();
              return;
            }
            ++events_scored_;
            // Rebalance to a sink task; sinks are provisioned to match
            // the Kafka partitions, so they do not backpressure in
            // practice — but handle a full queue by waiting anyway.
            OperatorTask* sink =
                sink_tasks_[static_cast<size_t>(scoring_rr_) %
                            sink_tasks_.size()]
                    .get();
            scoring_rr_ = (scoring_rr_ + 1) %
                          static_cast<int>(sink_tasks_.size());
            if (!sink->Offer(r)) {
              // Rare: retry shortly rather than wiring a second credit
              // channel.
              sim_->Schedule(0.001, [sink, r, done]() mutable {
                while (!sink->Offer(r)) {
                  // Queue still full: drop into lossless retry.
                  break;
                }
                done();
              });
              return;
            }
            done();
          };
          if (scoring_.external) {
            const size_t depth = scoring_tasks_.empty()
                                     ? 0
                                     : scoring_tasks_.front()->queue_depth();
            sim_->Schedule(
                costs_.scoring_wrapper_s +
                    scoring_.server->costs().client_overhead_s,
                [this, r, depth, forward = std::move(forward)]() mutable {
                  if (stopped_) {
                    forward();
                    return;
                  }
                  InvokeExternalWithStress(r, depth, std::move(forward));
                });
            return;
          }
          const double apply = EmbeddedApplySeconds(
              static_cast<int>(r.batch_size),
              scoring_tasks_.empty()
                  ? 0
                  : scoring_tasks_.front()->queue_depth());
          const uint64_t batch_id = r.batch_id;
          sim_->Schedule(costs_.scoring_wrapper_s + apply,
                         [this, batch_id,
                          forward = std::move(forward)]() mutable {
                           TraceMark(batch_id, obs::Stage::kScore);
                           forward();
                         });
        },
        costs_.stage_queue_capacity));
    const int idx = i;
    scoring_tasks_.back()->SetSpaceAvailableCallback([this, idx]() {
      auto it = scoring_waiters_.find(idx);
      if (it == scoring_waiters_.end()) return;
      std::vector<std::function<void()>> waiters = std::move(it->second);
      scoring_waiters_.erase(it);
      for (auto& w : waiters) w();
    });
  }

  for (int i = 0; i < s; ++i) {
    auto consumer = std::make_unique<broker::KafkaConsumer>(
        cluster_, config_.host, "flink");
    CRAYFISH_RETURN_IF_ERROR(consumer->Assign(
        config_.input_topic,
        broker::KafkaCluster::RangeAssign(partitions, s, i)));
    source_consumers_.push_back(std::move(consumer));
  }
  return crayfish::Status::Ok();
}

void FlinkEngine::SourcePollLoop(int source_idx) {
  if (stopped_) return;
  source_consumers_[static_cast<size_t>(source_idx)]->Poll(
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
  const double source_time = SourceSeconds(r);
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

int FlinkEngine::RestartableTasks() const {
  // The counts StartChained / StartUnchained create.
  return chained_ ? config_.parallelism
                  : std::max(1, config_.source_parallelism);
}

int FlinkEngine::InjectTaskFailure(int task_index, double restart_delay_s) {
  if (stopped_) return 0;
  const auto index = static_cast<size_t>(task_index);
  if (chained_) {
    CRAYFISH_CHECK_LT(index, slots_.size());
    SlotState& slot = slots_[index];
    if (!slot.consumer) return 0;
    slot.consumer->FailAndRestart(restart_delay_s);
    return 1;
  }
  CRAYFISH_CHECK_LT(index, source_consumers_.size());
  source_consumers_[index]->FailAndRestart(restart_delay_s);
  return 1;
}

EngineTelemetry FlinkEngine::Telemetry() const {
  EngineTelemetry t;
  const auto fold_consumer = [&t](const broker::KafkaConsumer& c) {
    t.consumer_lag += c.TotalLag();
    t.max_partition_lag = std::max(t.max_partition_lag, c.MaxPartitionLag());
    t.queue_depth += static_cast<int64_t>(c.buffered());
  };
  for (const SlotState& slot : slots_) {
    if (slot.consumer) fold_consumer(*slot.consumer);
  }
  for (const auto& c : source_consumers_) fold_consumer(*c);
  for (const auto& task : scoring_tasks_) {
    t.queue_depth += static_cast<int64_t>(task->queue_depth());
    t.backpressure_stall_s += task->stall_time_s();
  }
  for (const auto& task : sink_tasks_) {
    t.queue_depth += static_cast<int64_t>(task->queue_depth());
    t.backpressure_stall_s += task->stall_time_s();
  }
  return t;
}

void FlinkEngine::Stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& slot : slots_) {
    if (slot.consumer) slot.consumer->Close();
  }
  for (auto& c : source_consumers_) c->Close();
  for (auto& t : scoring_tasks_) t->Stop();
  for (auto& t : sink_tasks_) t->Stop();
}

}  // namespace crayfish::sps
