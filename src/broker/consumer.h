#ifndef CRAYFISH_BROKER_CONSUMER_H_
#define CRAYFISH_BROKER_CONSUMER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "broker/cluster.h"
#include "broker/record.h"
#include "common/retry.h"
#include "common/rng.h"
#include "common/status.h"

namespace crayfish::obs {
class CounterMetric;
class HistogramMetric;
}  // namespace crayfish::obs

namespace crayfish::broker {

struct ConsumerConfig {
  /// Maximum records returned by one Poll.
  size_t max_poll_records = 500;
  /// Per-partition fetch size limits.
  size_t fetch_max_records = 500;
  uint64_t fetch_max_bytes = 50ULL * 1024 * 1024;
  /// Broker-side long-poll timeout (Kafka fetch.max.wait.ms).
  double fetch_max_wait_s = 0.5;
  /// Prefetch buffer bound; fetch loops pause above this (models
  /// max.partition.fetch.bytes-style client memory bounding and provides
  /// backpressure to the broker).
  size_t max_buffered_records = 5000;
  /// Client-side deserialization cost per record.
  double deserialize_per_record_s = 8e-6;
  /// Backoff policy for fetch sessions against an unavailable leader.
  /// Disabled policies inherit the cluster's client defaults. A consumer
  /// never gives up (its fetch loop must outlive the outage); max_retries
  /// only caps the backoff exponent.
  crayfish::RetryPolicy retry;
  /// When > 0, commit delivered offsets every interval (Kafka
  /// enable.auto.commit); <= 0 inherits the cluster default (off unless
  /// the fault subsystem enables it).
  double auto_commit_interval_s = 0.0;
};

/// Kafka consumer client with background fetch sessions.
///
/// After Assign() the consumer runs one long-poll fetch loop per assigned
/// partition, buffering records client-side; Poll() drains the buffer (or
/// parks until data arrives / the poll timeout fires). This mirrors the
/// real client's prefetching and gives pull-based engines their
/// efficiency.
class KafkaConsumer {
 public:
  using PollCallback = sim::InlineFunction<void(std::vector<Record>)>;

  /// `client_host` must be registered on the cluster's network.
  KafkaConsumer(KafkaCluster* cluster, const std::string& client_host,
                std::string group, ConsumerConfig config = {});

  /// Manual partition assignment (the engines map tasks to partitions
  /// deterministically). Starts fetch loops at the committed offset (or
  /// `start_offset` when >= 0). Rejects, without assigning anything, a
  /// partition that is out of range or already assigned to this consumer.
  crayfish::Status Assign(const std::string& topic,
                          const std::vector<int>& partitions,
                          int64_t start_offset = -1);

  /// Delivers up to max_poll_records buffered records. If the buffer is
  /// empty, parks until data arrives or `timeout_s` elapses (then delivers
  /// an empty vector). At most one outstanding Poll at a time.
  void Poll(double timeout_s, PollCallback on_records);

  /// Synchronously commits the *delivered* positions for all assigned
  /// partitions (offset bookkeeping only; no simulated round trip, as
  /// commits piggyback on fetch sessions). Prefetched-but-undelivered
  /// records are deliberately not covered: committing past them would lose
  /// them for a consumer later assigned from the committed offsets
  /// (at-least-once requires the commit high-water mark to trail delivery,
  /// never lead it).
  void CommitPositions();

  /// Stops fetch loops; outstanding fetches are dropped on arrival.
  void Close();

  int64_t position(const TopicPartition& tp) const;
  /// Next offset after the last record handed out by Poll (-1 if the
  /// partition is not assigned).
  int64_t delivered_position(const TopicPartition& tp) const;
  /// Consumer lag of one assigned partition: records appended to the log
  /// but not yet delivered by Poll (`end_offset - delivered_position`,
  /// floored at 0; 0 when unassigned). The partition log is readable even
  /// while its leader is crashed, so lag keeps growing — and stays
  /// observable — during a broker outage.
  int64_t PartitionLag(const TopicPartition& tp) const;
  /// Sum of PartitionLag over the current assignment (Theodolite-style
  /// consumer-lag demand signal; sampled by the telemetry timeline).
  int64_t TotalLag() const;
  /// Largest single-partition lag in the current assignment.
  int64_t MaxPartitionLag() const;
  size_t buffered() const { return buffer_.size(); }
  uint64_t records_consumed() const { return records_consumed_; }
  uint64_t retries() const { return retries_; }
  const std::vector<TopicPartition>& assignment() const {
    return assignment_;
  }

  /// Consumers must be destroyed only after the simulation stops running
  /// or after Close(); scheduled callbacks guard on a lifetime token.
  ~KafkaConsumer();

 private:
  /// Runs one long-poll fetch for assignment slot `slot`.
  void FetchOnce(size_t slot);
  /// Periodic delivered-offset commit (enable.auto.commit).
  void ScheduleAutoCommit();
  void MaybeDeliver();
  void ResumePausedLoops();
  /// Slot of `tp` in the assignment, or -1 when it is not assigned.
  int SlotOf(const TopicPartition& tp) const;
  int64_t SlotLag(size_t slot) const;

  /// Fetch and delivery state of one assigned partition.
  struct PartitionState {
    /// Next offset to fetch.
    int64_t position = 0;
    /// Next offset after the last *delivered* record; what
    /// CommitPositions commits.
    int64_t delivered = 0;
    /// Consecutive unavailable-leader backoffs (reset on a healthy fetch).
    int fetch_attempts = 0;
    /// The fetch loop is paused on buffer pressure.
    bool paused = false;
    /// The fetched records being deserialized (the slot's one fetch loop
    /// has at most one response in that stage).
    std::vector<Record> fetched;
  };

  /// A prefetched record plus the assignment slot it came from, so delivery
  /// can advance that partition's delivered offset.
  struct BufferedRecord {
    size_t slot;
    Record record;
  };

  KafkaCluster* cluster_;
  sim::HostId client_id_{};
  std::string group_;
  GroupId group_id_{};
  ConsumerConfig config_;
  /// Assigned partitions, in assignment order: commits and paused-loop
  /// pickup walk this vector, so their order is deterministic.
  std::vector<TopicPartition> assignment_;
  /// Parallel to `assignment_`: slot i holds assignment_[i]'s state. Fetch
  /// callbacks and buffered records carry the slot index; the assignment
  /// only grows, so a slot stays valid until Close() retires them all.
  std::vector<PartitionState> partitions_;
  std::deque<BufferedRecord> buffer_;
  /// Effective retry policy (config override or cluster default).
  crayfish::RetryPolicy retry_;
  /// Jitter RNG; forked only when retries are enabled so fault-free runs
  /// draw exactly the same RNG streams as before this feature existed.
  std::optional<crayfish::Rng> rng_;
  double auto_commit_interval_s_ = 0.0;
  /// Set by Close(); every pending fetch, backoff and deserialization
  /// event checks it and drops its work.
  bool closed_ = false;

  PollCallback pending_poll_;
  /// Bumped by every Poll: a poll event acts only while its Poll is the
  /// outstanding one.
  uint64_t poll_seq_ = 0;
  /// Simulated instant the outstanding Poll was armed (-1 when none);
  /// feeds the poll-wait histogram.
  double poll_armed_at_ = -1.0;
  /// Lazily resolved from the simulation's metrics registry.
  obs::HistogramMetric* poll_wait_hist_ = nullptr;
  obs::HistogramMetric* buffer_hist_ = nullptr;
  uint64_t records_consumed_ = 0;
  uint64_t retries_ = 0;
  /// fault_retries{component=consumer}, resolved on the first retry.
  obs::CounterMetric* retries_counter_ = nullptr;
  /// Guards scheduled callbacks against consumer destruction.
  std::shared_ptr<bool> alive_;
};

}  // namespace crayfish::broker

#endif  // CRAYFISH_BROKER_CONSUMER_H_
