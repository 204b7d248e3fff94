#include "core/output_consumer.h"

#include "common/logging.h"
#include "obs/timeline.h"

namespace crayfish::core {

OutputConsumer::OutputConsumer(sim::Simulation* sim,
                               broker::KafkaCluster* cluster,
                               Options options)
    : sim_(sim), cluster_(cluster), options_(std::move(options)) {
  if (!cluster_->network()->HasHost(options_.client_host)) {
    CRAYFISH_CHECK_OK(cluster_->network()->AddHost(
        sim::Host{options_.client_host, /*vcpus=*/4,
                  /*memory_bytes=*/15ULL << 30, /*has_gpu=*/false}));
  }
  broker::ConsumerConfig cc;
  cc.max_poll_records = 2000;
  cc.max_buffered_records = 20000;
  consumer_ = std::make_unique<broker::KafkaConsumer>(
      cluster_, options_.client_host, "crayfish-metrics", cc);
}

void OutputConsumer::Start() {
  auto topic = cluster_->FindTopic(options_.topic);
  CRAYFISH_CHECK(topic.ok()) << topic.status().ToString();
  const int partitions = *cluster_->NumPartitions(*topic);
  std::vector<int> all(static_cast<size_t>(partitions));
  for (int p = 0; p < partitions; ++p) all[static_cast<size_t>(p)] = p;
  CRAYFISH_CHECK_OK(consumer_->Assign(options_.topic, all));
  PollLoop();
}

void OutputConsumer::PollLoop() {
  if (stopped_) return;
  consumer_->Poll(0.5, [this](std::vector<broker::Record> records) {
    if (stopped_) return;
    for (const broker::Record& r : records) {
      Measurement m;
      m.batch_id = r.batch_id;
      m.create_time = r.create_time;
      m.append_time = r.log_append_time;
      m.batch_size = r.batch_size;
      if (obs::TimelineSampler* tl = sim_->timeline()) {
        // Completion instant = output-topic append time, so windows line up
        // with the paper's end-to-end latency definition.
        tl->ObserveLatency(m.append_time, m.latency_s(), m.batch_size);
      }
      measurements_.push_back(m);
      if (options_.max_measurements > 0 &&
          measurements_.size() >= options_.max_measurements) {
        done_ = true;
        Stop();
        return;
      }
    }
    PollLoop();
  });
}

void OutputConsumer::Stop() {
  if (stopped_) return;
  stopped_ = true;
  consumer_->Close();
}

}  // namespace crayfish::core
