#include "broker/producer.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/registry.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace crayfish::broker {

KafkaProducer::KafkaProducer(KafkaCluster* cluster,
                             const std::string& client_host,
                             ProducerConfig config)
    : cluster_(cluster), config_(config),
      alive_(std::make_shared<bool>(true)) {
  CRAYFISH_CHECK(cluster != nullptr);
  auto id = cluster->network()->FindHost(client_host);
  CRAYFISH_CHECK(id.ok()) << "producer host " << client_host
                          << " not on the network";
  client_id_ = *id;
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
  CRAYFISH_ASSIGN_OR_RETURN(TopicId id, cluster_->FindTopic(topic));
  return Send(id, std::move(record), std::move(on_ack));
}

crayfish::Status KafkaProducer::Send(TopicId topic, Record record,
                                     AckCallback on_ack) {
  CRAYFISH_ASSIGN_OR_RETURN(int partitions, cluster_->NumPartitions(topic));
  const auto t = static_cast<size_t>(topic);
  if (t >= round_robin_.size()) round_robin_.resize(t + 1, 0);
  int& rr = round_robin_[t];
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
                                             cluster_->PartitionName(tp));
  }
  const uint64_t record_bytes = record.wire_size + kRecordEnvelopeBytes;
  if (record_bytes > cluster_->config().max_request_bytes) {
    return crayfish::Status::InvalidArgument(
        "record larger than max.request.size");
  }
  const auto t = static_cast<size_t>(tp.topic);
  const auto p = static_cast<size_t>(tp.partition);
  if (t >= pending_.size()) pending_.resize(t + 1);
  if (p >= pending_[t].size()) pending_[t].resize(p + 1);
  PendingBatch& batch = pending_[t][p];
  batch.records.push_back(std::move(record));
  if (on_ack) batch.acks.push_back(std::move(on_ack));
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
  PendingBatch& pending = pending_[static_cast<size_t>(tp.topic)]
                                  [static_cast<size_t>(tp.partition)];
  if (pending.records.empty()) return;
  PendingBatch batch = std::move(pending);
  pending = PendingBatch{};

  // Client-side serialization occupies the producer before the request
  // goes out.
  const double serialize = config_.serialize_per_record_s *
                           static_cast<double>(batch.records.size());
  // The batch goes to a cluster request slot now, so it is sent even if
  // the producer is destroyed meanwhile (flushed records are owed to the
  // broker); statistics, retries and retrying acks are guarded.
  uint32_t in_flight = 0;
  AckCallback on_ack;
  if (retry_.enabled()) {
    in_flight = in_flight_.Acquire();
    in_flight_[in_flight].tp = tp;
    in_flight_[in_flight].acks = std::move(batch.acks);
    on_ack = AttemptAck(in_flight);
  } else {
    on_ack = [this, alive = alive_,
              acks = std::move(batch.acks)](const crayfish::Status& s) mutable {
      if (*alive && !s.ok()) ++send_errors_;
      for (AckCallback& cb : acks) cb(s);
    };
  }
  KafkaCluster* cluster = cluster_;
  const uint32_t staged = cluster->StageProduce(
      client_id_, tp, std::move(batch.records), std::move(on_ack));
  cluster->simulation()->Schedule(serialize, [this, cluster, alive = alive_,
                                              staged, in_flight]() {
    const std::vector<Record>& records = cluster->staged_batch(staged);
    // The produce request leaves the client here: linger + client-side
    // serialization end, network transfer begins. MarkProduce resolves to
    // the input- or output-side stage from the batch's append count.
    if (obs::TraceRecorder* tracer = cluster->simulation()->tracer()) {
      const double now = cluster->simulation()->Now();
      for (const Record& r : records) tracer->MarkProduce(r.batch_id, now);
    }
    if (*alive) {
      ++batches_sent_;
      records_sent_ += records.size();
    }
    if (*alive && retry_.enabled()) {
      in_flight_[in_flight].records = records;
      SendAttempt(in_flight, staged);
      return;
    }
    // Retry disabled (or the producer is gone): a single attempt.
    cluster->SendProduce(staged);
  });
}

KafkaProducer::AckCallback KafkaProducer::AttemptAck(uint32_t slot) {
  return [this, alive = alive_, slot,
          generation = in_flight_[slot].generation](const crayfish::Status& s) {
    if (!*alive) return;
    InFlight& f = in_flight_[slot];
    if (f.generation != generation) return;  // late reply after timeout
    ++f.generation;
    if (!s.ok()) {
      FailAttempt(slot, s);
      return;
    }
    std::vector<AckCallback> acks = std::move(f.acks);
    ReleaseInFlight(slot);
    for (AckCallback& cb : acks) cb(s);
  };
}

void KafkaProducer::SendAttempt(uint32_t slot, uint32_t staged) {
  // One attempt settles exactly once: whichever of {timeout, ack} arrives
  // first bumps the generation, the loser is ignored.
  cluster_->simulation()->Schedule(
      retry_.timeout_s,
      [this, alive = alive_, slot,
       generation = in_flight_[slot].generation]() {
        if (!*alive) return;
        InFlight& f = in_flight_[slot];
        if (f.generation != generation) return;
        ++f.generation;
        FailAttempt(slot, crayfish::Status::Timeout(
                              "produce timed out: " +
                              cluster_->PartitionName(f.tp)));
      });
  cluster_->SendProduce(staged);
}

void KafkaProducer::FailAttempt(uint32_t slot, const crayfish::Status& s) {
  // A retriable failure never surfaces to the acks: like Kafka's
  // retries=MAX_INT producer default, the batch re-sends until the
  // partition leader is back. `attempt` only drives the backoff exponent,
  // capped at max_retries - 1 (the re-send copy is cheap: record payloads
  // are shared_ptrs).
  if (crayfish::RetryPolicy::IsRetriable(s)) {
    ++retries_;
    if (obs::MetricsRegistry* reg = cluster_->simulation()->metrics()) {
      if (retries_counter_ == nullptr) {
        retries_counter_ =
            reg->Counter("fault_retries", {{"component", "producer"}});
      }
      retries_counter_->Increment(1.0);
    }
    if (obs::TimelineSampler* tl = cluster_->simulation()->timeline()) {
      tl->Count("produce_retries", cluster_->simulation()->Now());
    }
    const double delay = retry_.BackoffFor(
        std::min(in_flight_[slot].attempt, retry_.max_retries - 1), &*rng_);
    cluster_->simulation()->Schedule(delay, [this, alive = alive_, slot]() {
      if (!*alive) return;  // teardown mid-backoff: drop the re-send
      InFlight& f = in_flight_[slot];
      ++f.attempt;
      const uint32_t staged = cluster_->StageProduce(
          client_id_, f.tp, f.records, AttemptAck(slot));
      SendAttempt(slot, staged);
    });
    return;
  }
  ++send_errors_;
  std::vector<AckCallback> acks = std::move(in_flight_[slot].acks);
  ReleaseInFlight(slot);
  for (AckCallback& cb : acks) cb(s);
}

void KafkaProducer::ReleaseInFlight(uint32_t slot) {
  InFlight& f = in_flight_[slot];
  f.records = std::vector<Record>();
  f.acks.clear();
  f.attempt = 0;
  in_flight_.Release(slot);
}

void KafkaProducer::Flush() {
  for (const auto& [name, id] : cluster_->topics_by_name()) {
    const auto t = static_cast<size_t>(id);
    if (t >= pending_.size()) continue;
    for (size_t p = 0; p < pending_[t].size(); ++p) {
      FlushPartition(TopicPartition{id, static_cast<int>(p)});
    }
  }
}

}  // namespace crayfish::broker
