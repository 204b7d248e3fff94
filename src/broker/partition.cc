#include "broker/partition.h"

#include "common/logging.h"

namespace crayfish::broker {

int64_t Partition::Append(Record record, sim::SimTime log_append_time) {
  record.offset = end_offset();
  record.log_append_time = log_append_time;
  ++total_appended_;
  log_.push_back(std::move(record));
  const int64_t assigned = log_.back().offset;
  if (retention_records_ > 0) {
    while (log_.size() > retention_records_) {
      log_.pop_front();
      ++start_offset_;
    }
  }
  return assigned;
}

crayfish::Status Partition::Fetch(int64_t offset, size_t max_records,
                                  uint64_t max_bytes,
                                  std::vector<Record>* out) const {
  if (offset < start_offset_) {
    return crayfish::Status::OutOfRange(
        "offset " + std::to_string(offset) + " below log start " +
        std::to_string(start_offset_));
  }
  uint64_t bytes = 0;
  for (int64_t o = offset; o < end_offset(); ++o) {
    if (out->size() >= max_records) break;
    const Record& r = log_[static_cast<size_t>(o - start_offset_)];
    if (!out->empty() && bytes + r.wire_size > max_bytes) break;
    out->push_back(r);
    bytes += r.wire_size;
  }
  return crayfish::Status::Ok();
}

}  // namespace crayfish::broker
