#ifndef CRAYFISH_BROKER_PRODUCER_H_
#define CRAYFISH_BROKER_PRODUCER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "broker/cluster.h"
#include "broker/record.h"
#include "common/retry.h"
#include "common/rng.h"
#include "common/status.h"

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
  using AckCallback = std::function<void(crayfish::Status)>;

  KafkaProducer(KafkaCluster* cluster, std::string client_host,
                ProducerConfig config = {});
  /// Scheduled flushes and in-flight acks referencing this producer are
  /// silently dropped once it is destroyed.
  ~KafkaProducer();

  /// Sends one record to `topic`, choosing a partition round-robin.
  /// `on_ack` (optional) fires when the broker acknowledges the batch
  /// containing this record.
  crayfish::Status Send(const std::string& topic, Record record,
                        AckCallback on_ack = nullptr);

  /// Sends to an explicit partition.
  crayfish::Status SendToPartition(const TopicPartition& tp, Record record,
                                   AckCallback on_ack = nullptr);

  /// Flushes all pending batches immediately.
  void Flush();

  uint64_t records_sent() const { return records_sent_; }
  uint64_t batches_sent() const { return batches_sent_; }
  uint64_t send_errors() const { return send_errors_; }
  uint64_t retries() const { return retries_; }
  const std::string& client_host() const { return client_host_; }
  const crayfish::RetryPolicy& retry_policy() const { return retry_; }

 private:
  struct PendingBatch {
    std::vector<Record> records;
    std::vector<AckCallback> acks;
    uint64_t bytes = 0;
    bool flush_scheduled = false;
  };

  void FlushPartition(const TopicPartition& tp);
  /// Sends one produce attempt (0-based `attempt`), arming a timeout and
  /// re-sending with backoff on retriable failure.
  void SendBatch(const TopicPartition& tp, std::vector<Record> records,
                 std::shared_ptr<std::vector<AckCallback>> acks, int attempt);

  KafkaCluster* cluster_;
  std::string client_host_;
  ProducerConfig config_;
  /// Lifetime token: scheduled lambdas hold a copy and bail out when the
  /// producer is gone (simulated callbacks may outlive client objects).
  std::shared_ptr<bool> alive_;
  /// Ordered (lint R3): flushes walk `pending_`, so batch emission order —
  /// and therefore broker append order — must not depend on hash order.
  std::map<std::string, int> round_robin_;
  std::map<TopicPartition, PendingBatch> pending_;
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
