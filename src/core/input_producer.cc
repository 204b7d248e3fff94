#include "core/input_producer.h"

#include "common/logging.h"
#include "obs/trace.h"

namespace crayfish::core {

InputProducer::InputProducer(sim::Simulation* sim,
                             broker::KafkaCluster* cluster,
                             DataGenerator generator, Options options)
    : sim_(sim), cluster_(cluster), generator_(std::move(generator)),
      options_(std::move(options)) {
  if (!cluster_->network()->HasHost(options_.client_host)) {
    CRAYFISH_CHECK_OK(cluster_->network()->AddHost(
        sim::Host{options_.client_host, /*vcpus=*/4,
                  /*memory_bytes=*/15ULL << 30, /*has_gpu=*/false}));
  }
  producer_ = std::make_unique<broker::KafkaProducer>(cluster_,
                                                      options_.client_host);
}

void InputProducer::Start() {
  next_emit_time_ = sim_->Now();
  EmitNext();
}

void InputProducer::EmitNext() {
  if (stopped_) return;
  if (options_.max_events > 0 && events_sent_ >= options_.max_events) {
    producer_->Flush();
    return;
  }
  const double now = sim_->Now();
  if (options_.stop_at_s > 0.0 && now >= options_.stop_at_s) {
    producer_->Flush();
    return;
  }

  // Start timestamp recorded prior to the Kafka write (§3.3 step 1).
  const double generate = options_.generate_per_sample_s *
                          static_cast<double>(generator_.batch_size());
  sim_->Schedule(generate, [this]() {
    if (stopped_) return;
    broker::Record record;
    if (options_.materialize_payloads) {
      CrayfishDataBatch batch = generator_.NextMaterialized(sim_->Now());
      const std::string json = batch.ToJson();
      record.batch_id = batch.id;
      record.create_time = batch.created_at;
      record.SetPayload(Bytes(json.begin(), json.end()));
      record.wire_size = record.payload->size();
    } else {
      CrayfishDataBatch batch = generator_.NextMetadataOnly(sim_->Now());
      record.batch_id = batch.id;
      record.create_time = batch.created_at;
      record.wire_size = generator_.BatchWireBytes();
    }
    record.batch_size = static_cast<uint32_t>(generator_.batch_size());
    CRAYFISH_TRACE_WITH(sim_, tracer, {
      tracer->StartBatch(record.batch_id, record.create_time);
    });
    if (!topic_) {
      auto topic = cluster_->FindTopic(options_.topic);
      CRAYFISH_CHECK(topic.ok()) << topic.status().ToString();
      topic_ = *topic;
    }
    CRAYFISH_CHECK_OK(producer_->Send(*topic_, std::move(record)));
    ++events_sent_;

    // Pace the next event from the *scheduled* emission time, not the
    // completion time, so the configured rate is maintained (open loop).
    const double rate = options_.schedule.RateAt(sim_->Now());
    CRAYFISH_CHECK_GT(rate, 0.0);
    next_emit_time_ += 1.0 / rate;
    sim_->ScheduleAt(next_emit_time_, [this]() { EmitNext(); });
  });
}

}  // namespace crayfish::core
