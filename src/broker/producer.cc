#include "broker/producer.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/registry.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace crayfish::broker {

KafkaProducer::KafkaProducer(KafkaCluster* cluster, std::string client_host,
                             ProducerConfig config)
    : cluster_(cluster), client_host_(std::move(client_host)),
      config_(config), alive_(std::make_shared<bool>(true)) {
  CRAYFISH_CHECK(cluster != nullptr);
  CRAYFISH_CHECK(cluster->network()->HasHost(client_host_))
      << "producer host " << client_host_ << " not on the network";
  retry_ = config_.retry.enabled() ? config_.retry
                                   : cluster->default_client_retry();
  if (retry_.enabled()) {
    CRAYFISH_CHECK_OK(retry_.Validate());
    rng_.emplace(cluster->simulation()->ForkRng());
  }
}

KafkaProducer::~KafkaProducer() { *alive_ = false; }

crayfish::Status KafkaProducer::Send(const std::string& topic, Record record,
                                     AckCallback on_ack) {
  CRAYFISH_ASSIGN_OR_RETURN(int partitions, cluster_->NumPartitions(topic));
  int& rr = round_robin_[topic];
  const int partition = rr;
  rr = (rr + 1) % partitions;
  return SendToPartition(TopicPartition{topic, partition}, std::move(record),
                         std::move(on_ack));
}

crayfish::Status KafkaProducer::SendToPartition(const TopicPartition& tp,
                                                Record record,
                                                AckCallback on_ack) {
  CRAYFISH_ASSIGN_OR_RETURN(int partitions, cluster_->NumPartitions(tp.topic));
  if (tp.partition < 0 || tp.partition >= partitions) {
    return crayfish::Status::InvalidArgument("partition out of range: " +
                                             tp.ToString());
  }
  const uint64_t record_bytes = record.wire_size + kRecordEnvelopeBytes;
  if (record_bytes > cluster_->config().max_request_bytes) {
    return crayfish::Status::InvalidArgument(
        "record larger than max.request.size");
  }
  PendingBatch& batch = pending_[tp];
  batch.records.push_back(std::move(record));
  batch.acks.push_back(std::move(on_ack));
  batch.bytes += record_bytes;
  if (batch.bytes >= config_.batch_bytes) {
    FlushPartition(tp);
    return crayfish::Status::Ok();
  }
  if (!batch.flush_scheduled) {
    batch.flush_scheduled = true;
    // linger: coalesces records produced within the window into one
    // request; linger 0 still coalesces same-instant sends.
    cluster_->simulation()->Schedule(
        config_.linger_s, [this, tp, alive = alive_]() {
          if (*alive) FlushPartition(tp);
        });
  }
  return crayfish::Status::Ok();
}

void KafkaProducer::FlushPartition(const TopicPartition& tp) {
  auto it = pending_.find(tp);
  if (it == pending_.end() || it->second.records.empty()) return;
  PendingBatch batch = std::move(it->second);
  pending_.erase(it);

  const auto record_count = batch.records.size();
  // Client-side serialization occupies the producer before the request
  // goes out.
  const double serialize =
      config_.serialize_per_record_s * static_cast<double>(record_count);
  // The send itself proceeds even if the producer object is destroyed in
  // the meantime (records handed to Flush() are owed to the broker); only
  // the statistics counters are guarded by the lifetime token.
  KafkaCluster* cluster = cluster_;
  std::string host = client_host_;
  sim::Simulation* sim = cluster->simulation();
  sim->Schedule(serialize, [this, cluster, host = std::move(host), tp,
                            record_count, alive = alive_,
                            batch = std::move(batch)]() mutable {
    auto acks =
        std::make_shared<std::vector<AckCallback>>(std::move(batch.acks));
    // The produce request leaves the client here: linger + client-side
    // serialization end, network transfer begins. MarkProduce resolves to
    // the input- or output-side stage from the batch's append count.
    if (obs::TraceRecorder* tracer = cluster->simulation()->tracer()) {
      const double now = cluster->simulation()->Now();
      for (const Record& r : batch.records) {
        tracer->MarkProduce(r.batch_id, now);
      }
    }
    if (*alive) {
      ++batches_sent_;
      records_sent_ += record_count;
    }
    if (*alive && retry_.enabled()) {
      SendBatch(tp, std::move(batch.records), std::move(acks), /*attempt=*/0);
      return;
    }
    // Retry disabled (or the producer is gone): the legacy single-attempt
    // path. Records handed to Flush() are still owed to the broker.
    cluster->Produce(host, tp, std::move(batch.records),
                     [this, alive, acks](crayfish::Status s) {
                       if (*alive && !s.ok()) ++send_errors_;
                       for (const AckCallback& cb : *acks) {
                         if (cb) cb(s);
                       }
                     });
  });
}

void KafkaProducer::SendBatch(const TopicPartition& tp,
                              std::vector<Record> records,
                              std::shared_ptr<std::vector<AckCallback>> acks,
                              int attempt) {
  // A retriable failure never surfaces to the ack: like Kafka's
  // retries=MAX_INT producer default, the batch re-sends until the
  // partition leader is back. `attempt` only drives the backoff exponent,
  // capped at max_retries - 1 (the re-send copy is cheap: record payloads
  // are shared_ptrs).
  auto backup = std::make_shared<std::vector<Record>>(records);

  // One attempt settles exactly once: whichever of {timeout, ack} arrives
  // first wins, the loser is ignored.
  auto settled = std::make_shared<bool>(false);
  auto fail = [this, tp, acks, attempt, backup,
               alive = alive_](crayfish::Status s) {
    if (*alive && crayfish::RetryPolicy::IsRetriable(s)) {
      ++retries_;
      if (obs::MetricsRegistry* reg = cluster_->simulation()->metrics()) {
        reg->Counter("fault_retries", {{"component", "producer"}})
            ->Increment(1.0);
      }
      if (obs::TimelineSampler* tl = cluster_->simulation()->timeline()) {
        tl->Count("produce_retries", cluster_->simulation()->Now());
      }
      const double delay = retry_.BackoffFor(
          std::min(attempt, retry_.max_retries - 1), &*rng_);
      cluster_->simulation()->Schedule(
          delay, [this, tp, acks, attempt, backup, alive]() mutable {
        if (!*alive) return;  // teardown mid-backoff: drop the re-send
        SendBatch(tp, std::move(*backup), acks, attempt + 1);
      });
      return;
    }
    if (*alive) ++send_errors_;
    for (const AckCallback& cb : *acks) {
      if (cb) cb(s);
    }
  };

  cluster_->simulation()->Schedule(retry_.timeout_s, [settled, fail, tp]() {
    if (*settled) return;
    *settled = true;
    fail(crayfish::Status::Timeout("produce timed out: " + tp.ToString()));
  });

  cluster_->Produce(client_host_, tp, std::move(records),
                    [settled, fail, acks](crayfish::Status s) {
                      if (*settled) return;  // late reply after timeout
                      *settled = true;
                      if (!s.ok()) {
                        fail(s);
                        return;
                      }
                      for (const AckCallback& cb : *acks) {
                        if (cb) cb(s);
                      }
                    });
}

void KafkaProducer::Flush() {
  std::vector<TopicPartition> keys;
  keys.reserve(pending_.size());
  for (const auto& [tp, batch] : pending_) keys.push_back(tp);
  for (const TopicPartition& tp : keys) FlushPartition(tp);
}

}  // namespace crayfish::broker
