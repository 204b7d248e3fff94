#include "sps/spark_engine.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"

namespace crayfish::sps {

SparkEngine::SparkEngine(sim::Simulation* sim, sim::Network* network,
                         broker::KafkaCluster* cluster, EngineConfig config,
                         ScoringConfig scoring, SparkCosts costs)
    : StreamEngine(sim, network, cluster, std::move(config),
                   std::move(scoring)),
      costs_(costs) {}

crayfish::Status SparkEngine::Start() {
  broker::ConsumerConfig cc;
  // The driver drains whole trigger intervals at once; with a rate limit
  // (maxOffsetsPerTrigger) the poll itself is capped so no prefetched
  // record is ever dropped.
  cc.max_poll_records = costs_.max_offsets_per_trigger > 0
                            ? static_cast<size_t>(
                                  costs_.max_offsets_per_trigger)
                            : 100000;
  cc.fetch_max_records = 2000;
  cc.max_buffered_records = 200000;
  // One driver consumer over every input partition.
  CRAYFISH_ASSIGN_OR_RETURN(consumer_, AddConsumer("spark", 1, 0, cc));
  producer_ = std::make_unique<broker::KafkaProducer>(cluster_, config_.host);
  // Executors load the model once before the query starts.
  sim_->Schedule(ModelLoadSeconds(), [this]() {
    if (!stopped_) TriggerLoop();
  });
  return crayfish::Status::Ok();
}

void SparkEngine::TriggerLoop() {
  if (stopped_) return;
  consumer_->Poll(costs_.poll_timeout_s,
                  [this](std::vector<broker::Record> records) {
                    if (stopped_) return;
                    if (records.empty()) {
                      sim_->Schedule(costs_.continuous ? 0.0
                                                       : costs_.empty_cycle_s,
                                     [this]() { TriggerLoop(); });
                      return;
                    }
                    RunMicroBatch(std::move(records));
                  });
}

void SparkEngine::RunMicroBatch(std::vector<broker::Record> records) {
  ++micro_batches_;
  auto batch = std::make_shared<std::vector<broker::Record>>(
      std::move(records));
  const size_t n = batch->size();
  // Driver cost: micro-batch mode pays the offset WAL checkpoint plus
  // planning and serial per-record bookkeeping; continuous mode only
  // emits an asynchronous epoch marker (§3.4.1's experimental
  // alternative — at-least-once, no per-batch scheduling).
  const double driver_time =
      costs_.continuous
          ? costs_.epoch_marker_s
          : costs_.checkpoint_s + costs_.schedule_s +
                costs_.driver_record_s * static_cast<double>(n);
  sim_->Schedule(driver_time, [this, batch, n]() {
    if (stopped_) return;
    const int chunks = static_cast<int>(std::min<size_t>(
        {n, static_cast<size_t>(costs_.executor_cores),
         static_cast<size_t>(costs_.max_chunks)}));
    auto remaining = std::make_shared<int>(chunks);
    const size_t per_chunk = (n + static_cast<size_t>(chunks) - 1) /
                             static_cast<size_t>(chunks);
    for (int c = 0; c < chunks; ++c) {
      const size_t begin = static_cast<size_t>(c) * per_chunk;
      const size_t end = std::min(n, begin + per_chunk);
      if (begin >= end) {
        if (--*remaining == 0) TriggerLoop();
        continue;
      }
      sim_->Schedule(costs_.task_launch_s, [this, batch, begin, end,
                                            remaining]() {
        RunChunk(batch, begin, end, [this, remaining]() {
          if (--*remaining == 0 && !stopped_) {
            // Batch complete: next trigger immediately (minimum trigger
            // interval).
            TriggerLoop();
          }
        });
      });
    }
  });
}

void SparkEngine::RunChunk(
    std::shared_ptr<std::vector<broker::Record>> records, size_t begin,
    size_t end, std::function<void()> on_done) {
  if (stopped_) return;
  if (begin >= end) {
    on_done();
    return;
  }
  const broker::Record& r = (*records)[begin];
  // The executor task picks the record up: trigger/scheduling wait ends.
  TraceMark(r.batch_id, obs::Stage::kQueueWait);
  const double ingest =
      costs_.record_fixed_s +
      costs_.record_per_byte_s * static_cast<double>(r.wire_size);
  Score(r, ingest, consumer_->buffered(),
        [this, records, begin, end, on_done = std::move(on_done)]() mutable {
          ++events_scored_;
          sim_->Schedule(costs_.produce_fixed_s,
                         [this, records, begin, end,
                          on_done = std::move(on_done)]() mutable {
                           if (stopped_) return;
                           TraceMark((*records)[begin].batch_id,
                                     obs::Stage::kSerialize);
                           CRAYFISH_CHECK_OK(EmitScored(producer_.get(),
                                                        (*records)[begin]));
                           RunChunk(records, begin + 1, end,
                                    std::move(on_done));
                         });
        });
}

}  // namespace crayfish::sps
