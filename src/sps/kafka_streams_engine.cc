#include "sps/kafka_streams_engine.h"

#include "common/logging.h"

namespace crayfish::sps {

KafkaStreamsEngine::KafkaStreamsEngine(sim::Simulation* sim,
                                       sim::Network* network,
                                       broker::KafkaCluster* cluster,
                                       EngineConfig config,
                                       ScoringConfig scoring,
                                       KafkaStreamsCosts costs)
    : StreamEngine(sim, network, cluster, std::move(config),
                   std::move(scoring)),
      costs_(costs) {}

crayfish::Status KafkaStreamsEngine::Start() {
  const int n = config_.parallelism;
  for (int i = 0; i < n; ++i) {
    StreamThread thread;
    CRAYFISH_ASSIGN_OR_RETURN(thread.consumer,
                              AddConsumer("kafka-streams", n, i));
    thread.producer =
        std::make_unique<broker::KafkaProducer>(cluster_, config_.host);
    threads_.push_back(std::move(thread));
  }
  // The transform operator loads the model at initialization time
  // (§3.4.1) before the threads start pulling.
  sim_->Schedule(ModelLoadSeconds(), [this]() {
    if (stopped_) return;
    for (int i = 0; i < static_cast<int>(threads_.size()); ++i) {
      PollLoop(i);
    }
  });
  return crayfish::Status::Ok();
}

void KafkaStreamsEngine::PollLoop(int thread) {
  if (stopped_) return;
  StreamThread& t = threads_[static_cast<size_t>(thread)];
  // Periodic offset commit (commit.interval.ms).
  if (sim_->Now() - t.last_commit >= costs_.commit_interval_s) {
    t.last_commit = sim_->Now();
    t.consumer->CommitPositions();
    sim_->Schedule(costs_.commit_s, [this, thread]() { PollLoop(thread); });
    return;
  }
  t.consumer->Poll(costs_.poll_timeout_s,
                   [this, thread](std::vector<broker::Record> records) {
                     if (stopped_) return;
                     StreamThread& th =
                         threads_[static_cast<size_t>(thread)];
                     if (records.empty()) {
                       th.was_idle = true;
                       PollLoop(thread);
                       return;
                     }
                     auto batch =
                         std::make_shared<std::vector<broker::Record>>(
                             std::move(records));
                     if (th.was_idle) {
                       // Idle->active wake-up path (see KafkaStreamsCosts).
                       th.was_idle = false;
                       sim_->Schedule(costs_.idle_pickup_s,
                                      [this, thread, batch]() {
                                        ProcessRecords(thread, batch, 0);
                                      });
                       return;
                     }
                     ProcessRecords(thread, std::move(batch), 0);
                   });
}

void KafkaStreamsEngine::ProcessRecords(
    int thread, std::shared_ptr<std::vector<broker::Record>> records,
    size_t index) {
  if (stopped_) return;
  if (index >= records->size()) {
    // Depth-first processing finished: pull the next batch.
    PollLoop(thread);
    return;
  }
  const broker::Record& r = (*records)[index];
  // The stream thread takes the record out of the poll buffer.
  TraceMark(r.batch_id, obs::Stage::kQueueWait);
  const double ingest = costs_.record_fixed_s +
                        costs_.record_per_byte_s *
                            static_cast<double>(r.wire_size) +
                        costs_.transform_wrapper_s;
  const size_t depth =
      threads_[static_cast<size_t>(thread)].consumer->buffered();
  Score(r, ingest, depth, [this, thread, records, index]() {
    ++events_scored_;
    const broker::Record& rec = (*records)[index];
    const double produce =
        costs_.produce_fixed_s +
        costs_.produce_per_byte_s *
            static_cast<double>(scoring_.model.OutputBatchWireBytes(
                static_cast<int>(rec.batch_size)));
    sim_->Schedule(produce, [this, thread, records, index]() {
      if (stopped_) return;
      TraceMark((*records)[index].batch_id, obs::Stage::kSerialize);
      CRAYFISH_CHECK_OK(EmitScored(
          threads_[static_cast<size_t>(thread)].producer.get(),
          (*records)[index]));
      ProcessRecords(thread, records, index + 1);
    });
  });
}

}  // namespace crayfish::sps
