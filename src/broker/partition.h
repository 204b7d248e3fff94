#ifndef CRAYFISH_BROKER_PARTITION_H_
#define CRAYFISH_BROKER_PARTITION_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "broker/record.h"
#include "common/status.h"

namespace crayfish::broker {

/// One partition: an append-only log with offset-addressed reads and
/// low-watermark truncation (retention).
class Partition {
 public:
  Partition() = default;

  /// Appends the record, assigning its offset and LogAppendTime.
  /// Returns the assigned offset.
  int64_t Append(Record record, sim::SimTime log_append_time);

  /// Copies up to `max_records` records starting at `offset` into `out`,
  /// subject to a total `max_bytes` budget (at least one record is
  /// returned when available regardless of size, as in Kafka).
  /// Offsets below the low watermark return OutOfRange.
  crayfish::Status Fetch(int64_t offset, size_t max_records,
                         uint64_t max_bytes, std::vector<Record>* out) const;

  /// First retained offset.
  int64_t log_start_offset() const { return start_offset_; }
  /// Offset one past the last appended record.
  int64_t end_offset() const {
    return start_offset_ + static_cast<int64_t>(log_.size());
  }
  uint64_t total_appended() const { return total_appended_; }

  /// Drops records with offset < `offset` (retention / manual trim).
  void TrimTo(int64_t offset);

  /// Size-based retention: appends beyond this many records evict the
  /// oldest (0 = unlimited). Mirrors Kafka's retention.bytes for the
  /// simulation's memory bound.
  void SetRetentionRecords(size_t max_records) {
    retention_records_ = max_records;
  }

 private:
  std::deque<Record> log_;
  size_t retention_records_ = 0;
  int64_t start_offset_ = 0;
  uint64_t total_appended_ = 0;
};

}  // namespace crayfish::broker

#endif  // CRAYFISH_BROKER_PARTITION_H_
