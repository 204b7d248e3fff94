#ifndef CRAYFISH_BROKER_PRODUCER_H_
#define CRAYFISH_BROKER_PRODUCER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "broker/cluster.h"
#include "broker/record.h"
#include "common/retry.h"
#include "common/rng.h"
#include "common/status.h"
#include "sim/slot_pool.h"

namespace crayfish::broker {

struct ProducerConfig {
  /// Accumulate up to this many payload bytes per partition before
  /// flushing (Kafka batch.size).
  uint64_t batch_bytes = 16 * 1024;
  /// Flush partially filled batches after this delay (Kafka linger.ms;
  /// 0 keeps same-instant sends coalesced but flushes immediately after).
  double linger_s = 0.0;
  /// Client-side serialization cost per record (JSON encode).
  double serialize_per_record_s = 8e-6;
  /// Timeout/backoff policy for produce requests. Disabled by default; a
  /// disabled policy inherits the cluster's client defaults (set by the
  /// fault subsystem). When active, retriable failures (broker down,
  /// request timeout) re-send the batch — possibly duplicating an append
  /// whose ack was lost, i.e. at-least-once delivery.
  crayfish::RetryPolicy retry;
};

/// Kafka producer client: partitions records, batches per partition, and
/// sends produce requests to the leader broker over the network.
class KafkaProducer {
 public:
  using AckCallback = sim::InlineFunction<void(crayfish::Status)>;

  /// `client_host` must be registered on the cluster's network.
  KafkaProducer(KafkaCluster* cluster, const std::string& client_host,
                ProducerConfig config = {});
  /// Unflushed records, scheduled flushes and retries are dropped once it
  /// is destroyed. Flushed batches are still sent, and their acks fire
  /// unless the batch was under the retry policy.
  ~KafkaProducer();

  /// Sends one record to `topic`, choosing a partition round-robin.
  /// `on_ack` (optional) fires when the broker acknowledges the batch
  /// containing this record.
  crayfish::Status Send(TopicId topic, Record record,
                        AckCallback on_ack = nullptr);
  /// Resolves `topic` by name, then sends as above.
  crayfish::Status Send(const std::string& topic, Record record,
                        AckCallback on_ack = nullptr);

  /// Sends to an explicit partition.
  crayfish::Status SendToPartition(const TopicPartition& tp, Record record,
                                   AckCallback on_ack = nullptr);

  /// Flushes all pending batches now, in (topic name, partition) order.
  void Flush();

  uint64_t records_sent() const { return records_sent_; }
  uint64_t batches_sent() const { return batches_sent_; }
  uint64_t send_errors() const { return send_errors_; }
  uint64_t retries() const { return retries_; }

 private:
  struct PendingBatch {
    std::vector<Record> records;
    /// Non-null acks only, in send order.
    std::vector<AckCallback> acks;
    uint64_t bytes = 0;
    bool flush_scheduled = false;
  };

  /// A batch under the retry policy: the copy each re-send stages and the
  /// acks it owes. Settling an attempt bumps the generation, so the loser
  /// of {timeout, ack} is ignored.
  struct InFlight {
    TopicPartition tp;
    std::vector<Record> records;
    std::vector<AckCallback> acks;
    int attempt = 0;
    uint32_t generation = 0;
  };

  void FlushPartition(const TopicPartition& tp);
  /// The ack of attempt `generation` of in-flight batch `slot`.
  AckCallback AttemptAck(uint32_t slot);
  /// Arms batch `slot`'s attempt timeout, then sends the staged request.
  void SendAttempt(uint32_t slot, uint32_t staged);
  /// Re-sends with backoff when retriable, otherwise fails the acks.
  void FailAttempt(uint32_t slot, const crayfish::Status& s);
  void ReleaseInFlight(uint32_t slot);

  KafkaCluster* cluster_;
  sim::HostId client_id_;
  ProducerConfig config_;
  /// Lifetime token: scheduled lambdas hold a copy and bail out when the
  /// producer is gone (simulated callbacks may outlive client objects).
  std::shared_ptr<bool> alive_;
  /// Next round-robin partition, by topic id.
  std::vector<int> round_robin_;
  /// Accumulating batches, [topic id][partition]; Flush walks them in
  /// topic-name order, so broker append order does not depend on ids.
  std::vector<std::vector<PendingBatch>> pending_;
  /// Retry-policy batches by slot.
  sim::SlotPool<InFlight> in_flight_;
  /// Effective retry policy (config override or cluster default).
  crayfish::RetryPolicy retry_;
  /// Jitter RNG, forked only when retries are enabled so fault-free runs
  /// draw exactly the same RNG streams as before this feature existed.
  std::optional<crayfish::Rng> rng_;
  uint64_t records_sent_ = 0;
  uint64_t batches_sent_ = 0;
  uint64_t send_errors_ = 0;
  uint64_t retries_ = 0;
};

}  // namespace crayfish::broker

#endif  // CRAYFISH_BROKER_PRODUCER_H_
