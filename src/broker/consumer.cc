#include "broker/consumer.h"

#include <algorithm>
#include <map>

#include "common/logging.h"
#include "obs/registry.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace crayfish::broker {

KafkaConsumer::KafkaConsumer(KafkaCluster* cluster,
                             const std::string& client_host,
                             std::string group, ConsumerConfig config)
    : cluster_(cluster), group_(std::move(group)), config_(config),
      generation_(std::make_shared<uint64_t>(0)),
      alive_(std::make_shared<bool>(true)) {
  CRAYFISH_CHECK(cluster != nullptr);
  auto id = cluster->network()->FindHost(client_host);
  CRAYFISH_CHECK(id.ok()) << "consumer host " << client_host
                          << " not on the network";
  client_id_ = *id;
  group_id_ = cluster->InternGroup(group_);
  retry_ = config_.retry.enabled() ? config_.retry
                                   : cluster->default_client_retry();
  if (retry_.enabled()) {
    CRAYFISH_CHECK_OK(retry_.Validate());
    rng_.emplace(cluster->simulation()->ForkRng());
  }
  auto_commit_interval_s_ = config_.auto_commit_interval_s > 0.0
                                ? config_.auto_commit_interval_s
                                : cluster->default_auto_commit_interval_s();
  if (auto_commit_interval_s_ > 0.0) ScheduleAutoCommit();
}

void KafkaConsumer::ScheduleAutoCommit() {
  auto alive = alive_;
  cluster_->simulation()->Schedule(auto_commit_interval_s_,
                                   [this, alive]() {
                                     if (!*alive || closed_) return;
                                     CommitPositions();
                                     ScheduleAutoCommit();
                                   });
}

KafkaConsumer::~KafkaConsumer() { *alive_ = false; }

crayfish::Status KafkaConsumer::Assign(const std::string& topic,
                                       const std::vector<int>& partitions,
                                       int64_t start_offset) {
  CRAYFISH_ASSIGN_OR_RETURN(TopicId id, cluster_->FindTopic(topic));
  CRAYFISH_ASSIGN_OR_RETURN(int total, cluster_->NumPartitions(id));
  for (size_t i = 0; i < partitions.size(); ++i) {
    const int p = partitions[i];
    if (p < 0 || p >= total) {
      return crayfish::Status::InvalidArgument(
          "partition out of range: " + topic + "-" + std::to_string(p));
    }
    // A second fetch loop on one partition would fetch its records twice.
    if (SlotOf(TopicPartition{id, p}) >= 0 ||
        std::find(partitions.begin(), partitions.begin() + i, p) !=
            partitions.begin() + i) {
      return crayfish::Status::InvalidArgument(
          "partition already assigned: " + topic + "-" + std::to_string(p));
    }
  }
  for (int p : partitions) {
    const TopicPartition tp{id, p};
    const int64_t pos = start_offset >= 0
                            ? start_offset
                            : cluster_->CommittedOffset(group_id_, tp);
    assignment_.push_back(tp);
    partitions_.push_back(PartitionState{pos, pos, 0, false, {}});
    FetchOnce(assignment_.size() - 1);
  }
  return crayfish::Status::Ok();
}

void KafkaConsumer::FailAndRestart(double restart_delay_s) {
  CRAYFISH_CHECK_GE(restart_delay_s, 0.0);
  if (closed_) return;
  // The task dies without committing: everything since the last commit
  // (including prefetched and delivered-but-uncommitted records) will be
  // refetched after the restart — duplicates, never loss.
  std::map<std::string, std::vector<int>> topics;
  for (const TopicPartition& tp : assignment_) {
    topics[cluster_->topic_name(tp.topic)].push_back(tp.partition);
  }
  ++(*generation_);
  assignment_.clear();
  partitions_.clear();
  buffer_.clear();
  auto alive = alive_;
  if (pending_poll_) {
    // The engine's outstanding Poll sees an empty result once the task is
    // back (never before: the task is down in between).
    poll_armed_at_ = -1.0;
    PollCallback cb = std::move(pending_poll_);
    pending_poll_ = nullptr;
    cluster_->simulation()->Schedule(
        restart_delay_s, [cb = std::move(cb)]() mutable { cb({}); });
  }
  cluster_->simulation()->Schedule(
      restart_delay_s, [this, alive, topics = std::move(topics)]() {
        if (!*alive || closed_) return;
        for (const auto& [topic, parts] : topics) {
          // start_offset -1: resume from the group's committed offsets.
          crayfish::Status s = Assign(topic, parts);
          CRAYFISH_CHECK(s.ok()) << s.ToString();
        }
      });
}

int KafkaConsumer::SlotOf(const TopicPartition& tp) const {
  for (size_t i = 0; i < assignment_.size(); ++i) {
    if (assignment_[i] == tp) return static_cast<int>(i);
  }
  return -1;
}

void KafkaConsumer::FetchOnce(size_t slot) {
  if (closed_) return;
  PartitionState& state = partitions_[slot];
  if (buffer_.size() >= config_.max_buffered_records) {
    state.paused = true;
    return;
  }
  const TopicPartition& tp = assignment_[slot];
  auto generation = generation_;
  const uint64_t my_generation = *generation;
  if (retry_.enabled() && !cluster_->LeaderAvailable(tp)) {
    // Leader down: back off instead of hammering the dead broker. The loop
    // never gives up — max_retries only caps the backoff exponent.
    const int attempt = std::min(state.fetch_attempts,
                                 retry_.max_retries - 1);
    ++state.fetch_attempts;
    ++retries_;
    if (obs::MetricsRegistry* reg = cluster_->simulation()->metrics()) {
      if (retries_counter_ == nullptr) {
        retries_counter_ =
            reg->Counter("fault_retries", {{"component", "consumer"}});
      }
      retries_counter_->Increment(1.0);
    }
    if (obs::TimelineSampler* tl = cluster_->simulation()->timeline()) {
      tl->Count("fetch_retries", cluster_->simulation()->Now());
    }
    cluster_->simulation()->Schedule(
        retry_.BackoffFor(attempt, &*rng_),
        [this, generation, my_generation, slot]() {
          if (*generation != my_generation) return;
          FetchOnce(slot);
        });
    return;
  }
  state.fetch_attempts = 0;
  cluster_->Fetch(
      client_id_, tp, state.position, config_.fetch_max_records,
      config_.fetch_max_bytes, config_.fetch_max_wait_s,
      [this, slot, generation, my_generation](std::vector<Record> records) {
        if (*generation != my_generation) return;  // closed or failed
        if (!records.empty()) {
          partitions_[slot].position = records.back().offset + 1;
          // The fetch response has reached the client: the long-poll /
          // transfer stage of each carried batch ends here.
          if (obs::TraceRecorder* tracer =
                  cluster_->simulation()->tracer()) {
            const double now = cluster_->simulation()->Now();
            for (const Record& r : records) {
              tracer->Mark(r.batch_id, obs::Stage::kFetchPoll, now);
            }
          }
          // Client-side deserialization before records become visible.
          const double deser = config_.deserialize_per_record_s *
                               static_cast<double>(records.size());
          partitions_[slot].fetched = std::move(records);
          cluster_->simulation()->Schedule(
              deser, [this, generation, my_generation, slot]() {
                if (*generation != my_generation) return;
                std::vector<Record>& fetched = partitions_[slot].fetched;
                if (obs::TraceRecorder* tracer =
                        cluster_->simulation()->tracer()) {
                  const double now = cluster_->simulation()->Now();
                  for (const Record& r : fetched) {
                    tracer->Mark(r.batch_id, obs::Stage::kDeserialize, now);
                  }
                }
                for (Record& r : fetched) {
                  buffer_.push_back(BufferedRecord{slot, std::move(r)});
                }
                fetched = std::vector<Record>();
                MaybeDeliver();
                // The poll callback may have failed or closed this
                // consumer, retiring `slot`.
                if (*generation != my_generation) return;
                FetchOnce(slot);
              });
          return;
        }
        FetchOnce(slot);
      });
}

void KafkaConsumer::Poll(double timeout_s, PollCallback on_records) {
  CRAYFISH_CHECK(!pending_poll_) << "only one outstanding Poll is allowed";
  pending_poll_ = std::move(on_records);
  const uint64_t seq = ++poll_seq_;
  poll_armed_at_ = cluster_->simulation()->Now();
  // Deliver immediately when buffered data exists (still async: next sim
  // instant), otherwise arm the timeout. Either event acts only while this
  // Poll is still the outstanding one.
  if (!buffer_.empty()) {
    cluster_->simulation()->Schedule(0.0, [this, alive = alive_, seq]() {
      if (!*alive || !pending_poll_ || poll_seq_ != seq) return;
      MaybeDeliver();
    });
    return;
  }
  cluster_->simulation()->Schedule(timeout_s, [this, alive = alive_, seq]() {
    if (!*alive || !pending_poll_ || poll_seq_ != seq) return;
    poll_armed_at_ = -1.0;
    PollCallback cb = std::move(pending_poll_);
    pending_poll_ = nullptr;
    if (cb) cb({});
  });
}

void KafkaConsumer::MaybeDeliver() {
  if (!pending_poll_ || buffer_.empty()) return;
  if (obs::MetricsRegistry* reg = cluster_->simulation()->metrics()) {
    if (!poll_wait_hist_) {
      poll_wait_hist_ =
          reg->Histogram("consumer_poll_wait_s", {{"group", group_}});
      buffer_hist_ =
          reg->Histogram("consumer_buffer_depth", {{"group", group_}});
    }
    if (poll_armed_at_ >= 0.0) {
      poll_wait_hist_->Observe(cluster_->simulation()->Now() -
                               poll_armed_at_);
    }
    buffer_hist_->Observe(static_cast<double>(buffer_.size()));
  }
  poll_armed_at_ = -1.0;
  std::vector<Record> out;
  const size_t n = std::min(buffer_.size(), config_.max_poll_records);
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    BufferedRecord& front = buffer_.front();
    // Fetch responses arrive in offset order per partition, so the
    // delivered high-water mark only ever advances.
    int64_t& delivered = partitions_[front.slot].delivered;
    delivered = std::max(delivered, front.record.offset + 1);
    out.push_back(std::move(front.record));
    buffer_.pop_front();
  }
  records_consumed_ += out.size();
  PollCallback cb = std::move(pending_poll_);
  pending_poll_ = nullptr;
  ResumePausedLoops();
  cb(std::move(out));
}

void KafkaConsumer::ResumePausedLoops() {
  if (buffer_.size() >= config_.max_buffered_records) return;
  for (size_t slot = 0; slot < partitions_.size(); ++slot) {
    if (partitions_[slot].paused) {
      partitions_[slot].paused = false;
      FetchOnce(slot);
    }
  }
}

void KafkaConsumer::CommitPositions() {
  for (size_t slot = 0; slot < assignment_.size(); ++slot) {
    cluster_->CommitOffset(group_id_, assignment_[slot],
                           partitions_[slot].delivered);
  }
}

void KafkaConsumer::Close() {
  closed_ = true;
  ++(*generation_);
  pending_poll_ = nullptr;
}

int64_t KafkaConsumer::position(const TopicPartition& tp) const {
  const int slot = SlotOf(tp);
  return slot < 0 ? -1 : partitions_[slot].position;
}

int64_t KafkaConsumer::delivered_position(const TopicPartition& tp) const {
  const int slot = SlotOf(tp);
  return slot < 0 ? -1 : partitions_[slot].delivered;
}

int64_t KafkaConsumer::PartitionLag(const TopicPartition& tp) const {
  const int slot = SlotOf(tp);
  return slot < 0 ? 0 : SlotLag(slot);
}

int64_t KafkaConsumer::SlotLag(size_t slot) const {
  auto part_or = cluster_->GetPartition(assignment_[slot]);
  if (!part_or.ok()) return 0;
  const int64_t lag = (*part_or)->end_offset() - partitions_[slot].delivered;
  return lag > 0 ? lag : 0;
}

int64_t KafkaConsumer::TotalLag() const {
  int64_t total = 0;
  for (size_t slot = 0; slot < assignment_.size(); ++slot) {
    total += SlotLag(slot);
  }
  return total;
}

int64_t KafkaConsumer::MaxPartitionLag() const {
  int64_t worst = 0;
  for (size_t slot = 0; slot < assignment_.size(); ++slot) {
    worst = std::max(worst, SlotLag(slot));
  }
  return worst;
}

}  // namespace crayfish::broker
