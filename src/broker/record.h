#ifndef CRAYFISH_BROKER_RECORD_H_
#define CRAYFISH_BROKER_RECORD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "common/bytes.h"
#include "sim/simulation.h"

namespace crayfish::broker {

/// A Kafka record as Crayfish uses it.
///
/// `create_time` is the producer-side generation timestamp (Crayfish step 1
/// in Fig. 3); `log_append_time` is stamped by the broker when the record
/// is appended to a partition log (Kafka's LogAppendTime, Crayfish step 5).
/// End-to-end latency of a batch is `log_append_time` on the *output* topic
/// minus `create_time` carried from the *input* topic.
///
/// `wire_size` is the serialized size used for all network/time accounting;
/// `payload` carries the actual (usually small) metadata bytes, so large
/// synthetic tensor payloads cost simulated time without costing host
/// memory.
struct Record {
  uint64_t batch_id = 0;
  /// Producer-side creation timestamp (seconds, simulated clock).
  sim::SimTime create_time = -1.0;
  /// Broker-side append timestamp; -1 until appended.
  sim::SimTime log_append_time = -1.0;
  /// Offset within its partition; -1 until appended.
  int64_t offset = -1;
  /// Nominal serialized bytes on the wire (JSON payload + envelope).
  uint64_t wire_size = 0;
  /// Number of data points in the carried CrayfishDataBatch.
  uint32_t batch_size = 1;
  /// Optional real payload (JSON CrayfishDataBatch); null for synthetic
  /// sized-only records. Shared immutably: the producer materializes the
  /// bytes once, and the partition log, fetch responses, and every fan-out
  /// consumer reference that same buffer — copying a Record copies one
  /// refcounted pointer, never the payload bytes.
  std::shared_ptr<const Bytes> payload;

  bool has_payload() const { return payload != nullptr && !payload->empty(); }
  /// Takes ownership of `bytes` as this record's immutable payload.
  void SetPayload(Bytes bytes) {
    payload = std::make_shared<const Bytes>(std::move(bytes));
  }
};

/// Fixed per-record envelope bytes (headers, CRC, timestamps) added on top
/// of the payload when computing wire sizes.
inline constexpr uint64_t kRecordEnvelopeBytes = 64;

/// Dense id of a topic: KafkaCluster::CreateTopic hands them out in
/// creation order. The request path addresses topics by id (as Kafka's
/// does since KIP-516); names stay at the edges.
enum class TopicId : int32_t {};

/// Identifies one partition of one topic.
struct TopicPartition {
  TopicId topic{};
  int partition = 0;

  bool operator==(const TopicPartition& other) const {
    return topic == other.topic && partition == other.partition;
  }
};

}  // namespace crayfish::broker

#endif  // CRAYFISH_BROKER_RECORD_H_
