#include "broker/cluster.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/registry.h"  // lint: layering-ok instrumentation hook; obs reads state, never feeds it back
#include "obs/trace.h"  // lint: layering-ok instrumentation hook; obs reads state, never feeds it back

namespace crayfish::broker {

KafkaCluster::KafkaCluster(sim::Simulation* sim, sim::Network* network,
                           ClusterConfig config)
    : sim_(sim), network_(network), config_(std::move(config)) {
  CRAYFISH_CHECK_GT(config_.num_brokers, 0);
  broker_up_.assign(static_cast<size_t>(config_.num_brokers), true);
  for (int i = 0; i < config_.num_brokers; ++i) {
    const std::string host = config_.host_prefix + std::to_string(i);
    broker_hosts_.push_back(host);
    if (!network_->HasHost(host)) {
      CRAYFISH_CHECK_OK(network_->AddHost(
          sim::Host{host, /*vcpus=*/4, /*memory_bytes=*/15ULL << 30,
                    /*has_gpu=*/false}));
    }
  }
}

crayfish::Status KafkaCluster::CreateTopic(const std::string& name,
                                           int partitions) {
  if (partitions <= 0) {
    return crayfish::Status::InvalidArgument("partitions must be > 0");
  }
  if (topics_.count(name) > 0) {
    return crayfish::Status::AlreadyExists("topic: " + name);
  }
  TopicState state;
  state.partition_count = partitions;
  // Null slots only: per-partition state materializes on first
  // produce/fetch (EnsurePart), so creating a 256-partition topic on a
  // thousand-host fleet allocates 256 pointers, nothing more.
  state.parts.resize(static_cast<size_t>(partitions));
  topics_[name] = std::move(state);
  return crayfish::Status::Ok();
}

KafkaCluster::PartitionState& KafkaCluster::EnsurePart(TopicState& state,
                                                       int partition) {
  auto& slot = state.parts[static_cast<size_t>(partition)];
  if (slot == nullptr) {
    slot = std::make_unique<PartitionState>();
    if (state.has_retention) {
      slot->log.SetRetentionRecords(state.retention_records);
    }
  }
  return *slot;
}

crayfish::Status KafkaCluster::SetTopicRetention(
    const std::string& name, size_t records_per_partition) {
  auto it = topics_.find(name);
  if (it == topics_.end()) {
    return crayfish::Status::NotFound("topic: " + name);
  }
  it->second.retention_records = records_per_partition;
  it->second.has_retention = true;
  for (auto& slot : it->second.parts) {
    if (slot != nullptr) slot->log.SetRetentionRecords(records_per_partition);
  }
  return crayfish::Status::Ok();
}

bool KafkaCluster::HasTopic(const std::string& name) const {
  return topics_.count(name) > 0;
}

crayfish::StatusOr<int> KafkaCluster::NumPartitions(
    const std::string& name) const {
  auto it = topics_.find(name);
  if (it == topics_.end()) return crayfish::Status::NotFound("topic: " + name);
  return it->second.partition_count;
}

const std::string& KafkaCluster::LeaderHost(const TopicPartition& tp) const {
  // Round-robin leadership: partition p of any topic lives on broker
  // p % num_brokers, which spreads a 32-partition topic evenly over the
  // 4-broker cluster.
  const size_t idx =
      static_cast<size_t>(tp.partition) % broker_hosts_.size();
  return broker_hosts_[idx];
}

bool KafkaCluster::IsBrokerUp(int broker_index) const {
  CRAYFISH_CHECK_GE(broker_index, 0);
  CRAYFISH_CHECK_LT(broker_index, static_cast<int>(broker_up_.size()));
  return broker_up_[static_cast<size_t>(broker_index)];
}

bool KafkaCluster::LeaderAvailable(const TopicPartition& tp) const {
  return IsBrokerUp(tp.partition % static_cast<int>(broker_hosts_.size()));
}

void KafkaCluster::SetClientDefaults(crayfish::RetryPolicy retry,
                                     double auto_commit_interval_s) {
  CRAYFISH_CHECK_OK(retry.Validate());
  CRAYFISH_CHECK_GE(auto_commit_interval_s, 0.0);
  client_retry_ = retry;
  auto_commit_interval_s_ = auto_commit_interval_s;
}

void KafkaCluster::CrashBroker(int broker_index) {
  if (!IsBrokerUp(broker_index)) return;
  broker_up_[static_cast<size_t>(broker_index)] = false;
  CRAYFISH_LOG(Info) << "broker "
                     << broker_hosts_[static_cast<size_t>(broker_index)]
                     << " crashed at t=" << sim_->Now();
  FlushWaitersOfBroker(broker_index);
  // Crash-triggered rebalance: every dynamic group loses its sessions
  // through the crashed broker and re-syncs. Members keep their callbacks;
  // new owners resume from committed offsets (at-least-once).
  for (const auto& [key, state] : groups_) {
    const size_t slash = key.rfind('/');
    CRAYFISH_CHECK(slash != std::string::npos);
    Rebalance(key.substr(0, slash), key.substr(slash + 1));
  }
}

void KafkaCluster::RestartBroker(int broker_index) {
  if (IsBrokerUp(broker_index)) return;
  broker_up_[static_cast<size_t>(broker_index)] = true;
  CRAYFISH_LOG(Info) << "broker "
                     << broker_hosts_[static_cast<size_t>(broker_index)]
                     << " restarted at t=" << sim_->Now();
}

void KafkaCluster::FlushWaitersOfBroker(int broker_index) {
  const int brokers = static_cast<int>(broker_hosts_.size());
  for (auto& [topic, state] : topics_) {
    for (size_t p = 0; p < state.parts.size(); ++p) {
      if (static_cast<int>(p) % brokers != broker_index) continue;
      if (state.parts[p] == nullptr) continue;  // never touched: no waiters
      auto& waiters = state.parts[p]->waiters;
      if (waiters.empty()) continue;
      std::vector<PendingFetch> flushed;
      flushed.swap(waiters);
      for (PendingFetch& fetch : flushed) {
        if (*fetch.done) continue;
        *fetch.done = true;
        // The connection died with the broker: the client sees an empty
        // response after the error delay; no network traffic is modelled.
        sim_->Schedule(config_.unavailable_error_delay_s,
                       [on_records = std::move(fetch.on_records)]() mutable {
                         if (on_records) on_records({});
                       });
      }
    }
  }
}

uint64_t KafkaCluster::BatchWireSize(const std::vector<Record>& batch) const {
  uint64_t total = 0;
  for (const Record& r : batch) total += r.wire_size + kRecordEnvelopeBytes;
  return total;
}

void KafkaCluster::Produce(const std::string& client_host,
                           const TopicPartition& tp,
                           std::vector<Record> batch,
                           std::function<void(crayfish::Status)> on_ack) {
  auto it = topics_.find(tp.topic);
  if (it == topics_.end() || tp.partition >= it->second.partition_count) {
    sim_->Schedule(0.0, [on_ack = std::move(on_ack), tp]() {
      if (on_ack) on_ack(crayfish::Status::NotFound(tp.ToString()));
    });
    return;
  }
  const uint64_t request_bytes = BatchWireSize(batch);
  if (request_bytes > config_.max_request_bytes) {
    sim_->Schedule(0.0, [on_ack = std::move(on_ack)]() {
      if (on_ack) {
        on_ack(crayfish::Status::InvalidArgument(
            "produce request exceeds max.request.size"));
      }
    });
    return;
  }
  const std::string leader = LeaderHost(tp);
  if (!LeaderAvailable(tp)) {
    // Connection refused: the leader is down, nothing crosses the network.
    sim_->Schedule(config_.unavailable_error_delay_s,
                   [on_ack = std::move(on_ack), leader]() {
                     if (on_ack) {
                       on_ack(crayfish::Status::Unavailable(
                           "broker down: " + leader));
                     }
                   });
    return;
  }
  if (obs::MetricsRegistry* reg = sim_->metrics()) {
    reg->Counter("broker_bytes_in", {{"broker", leader}})
        ->Increment(static_cast<double>(request_bytes));
    reg->Counter("broker_records_in", {{"broker", leader}})
        ->Increment(static_cast<double>(batch.size()));
  }
  // Client -> broker transfer, then broker-side append, then ack back.
  network_->Send(
      client_host, leader, request_bytes,
      [this, tp, leader, client_host, batch = std::move(batch),
       on_ack = std::move(on_ack)]() mutable {
        const double process =
            config_.request_overhead_s +
            config_.append_per_record_s * static_cast<double>(batch.size());
        sim_->Schedule(
            process,
            [this, tp, leader, client_host, batch = std::move(batch),
             on_ack = std::move(on_ack)]() mutable {
              if (!LeaderAvailable(tp)) {
                // The broker died while the request was in flight: the
                // batch was never appended; the client sees the dropped
                // connection as a retriable error (a dead leader sends no
                // traffic, so this is the one leader->client hop that
                // skips the network).
                sim_->Schedule(
                    config_.unavailable_error_delay_s,
                    [on_ack = std::move(on_ack), leader]() {
                      if (on_ack) {
                        on_ack(crayfish::Status::Unavailable(
                            "broker crashed mid-produce: " + leader));
                      }
                    });
                return;
              }
              auto topic_it = topics_.find(tp.topic);
              CRAYFISH_CHECK(topic_it != topics_.end());
              Partition& part =
                  EnsurePart(topic_it->second, tp.partition).log;
              // LogAppendTime: broker local time at append (§3.3 step 5).
              obs::TraceRecorder* tracer = sim_->tracer();
              for (Record& r : batch) {
                const uint64_t batch_id = r.batch_id;
                part.Append(std::move(r), sim_->Now());
                // MarkAppend resolves input vs. output topic by append
                // count; the second append completes the batch's trace.
                if (tracer) tracer->MarkAppend(batch_id, sim_->Now());
              }
              WakeWaiters(tp);
              network_->Send(leader, client_host, /*ack bytes=*/64,
                             [on_ack = std::move(on_ack)]() {
                               if (on_ack) on_ack(crayfish::Status::Ok());
                             });
            });
      });
}

void KafkaCluster::Fetch(const std::string& client_host,
                         const TopicPartition& tp, int64_t offset,
                         size_t max_records, uint64_t max_bytes,
                         double max_wait_s,
                         std::function<void(std::vector<Record>)> on_records) {
  auto it = topics_.find(tp.topic);
  CRAYFISH_CHECK(it != topics_.end()) << "fetch from unknown " << tp.topic;
  CRAYFISH_CHECK_LT(tp.partition, it->second.partition_count);
  const std::string leader = LeaderHost(tp);
  if (!LeaderAvailable(tp)) {
    // Connection refused: empty response after the error delay.
    sim_->Schedule(config_.unavailable_error_delay_s,
                   [on_records = std::move(on_records)]() mutable {
                     if (on_records) on_records({});
                   });
    return;
  }
  // Fetch request (small) travels to the leader.
  network_->Send(
      client_host, leader, /*request bytes=*/128,
      [this, tp, offset, max_records, max_bytes, max_wait_s, client_host,
       on_records = std::move(on_records)]() mutable {
        sim_->Schedule(
            config_.request_overhead_s,
            [this, tp, offset, max_records, max_bytes, max_wait_s,
             client_host = std::move(client_host),
             on_records = std::move(on_records)]() mutable {
              if (!LeaderAvailable(tp)) {
                // Crashed while the request was in flight: the empty
                // response arrives without crossing the network (the dead
                // leader sends nothing).
                sim_->Schedule(
                    config_.unavailable_error_delay_s,
                    [on_records = std::move(on_records)]() mutable {
                      if (on_records) on_records({});
                    });
                return;
              }
              auto topic_it = topics_.find(tp.topic);
              CRAYFISH_CHECK(topic_it != topics_.end());
              PartitionState& ps = EnsurePart(topic_it->second, tp.partition);
              PendingFetch fetch{offset, max_records, max_bytes,
                                 std::move(client_host),
                                 std::move(on_records),
                                 std::make_shared<bool>(false)};
              if (ps.log.end_offset() > offset) {
                AnswerFetch(tp, std::move(fetch));
                return;
              }
              // Long-poll: park until append or timeout. The timeout event
              // captures only the done token; the parked fetch itself is
              // moved into the waiter list and re-located on expiry, so the
              // callback and host string are never copied.
              auto done = fetch.done;
              ps.waiters.push_back(std::move(fetch));
              sim_->Schedule(max_wait_s, [this, tp, done]() {
                if (*done) return;
                *done = true;
                auto wt_it = topics_.find(tp.topic);
                CRAYFISH_CHECK(wt_it != topics_.end());
                auto& waiters =
                    EnsurePart(wt_it->second, tp.partition).waiters;
                for (auto w = waiters.begin(); w != waiters.end(); ++w) {
                  if (w->done == done) {
                    PendingFetch parked = std::move(*w);
                    waiters.erase(w);
                    AnswerFetch(tp, std::move(parked));
                    return;
                  }
                }
                CRAYFISH_CHECK(false)
                    << "pending fetch missing for " << tp.ToString();
              });
            });
      });
}

void KafkaCluster::AnswerFetch(const TopicPartition& tp, PendingFetch fetch) {
  auto topic_it = topics_.find(tp.topic);
  CRAYFISH_CHECK(topic_it != topics_.end());
  Partition& part = EnsurePart(topic_it->second, tp.partition).log;
  std::vector<Record> records;
  int64_t offset = fetch.offset;
  if (offset < part.log_start_offset()) {
    // The consumer fell behind retention: auto-reset to the earliest
    // retained record (auto.offset.reset=earliest); the skipped records
    // are lost to this consumer, as in Kafka.
    offset = part.log_start_offset();
  }
  crayfish::Status s =
      part.Fetch(offset, fetch.max_records, fetch.max_bytes, &records);
  if (!s.ok()) records.clear();
  const uint64_t response_bytes = 256 + BatchWireSize(records);
  const std::string leader = LeaderHost(tp);
  if (obs::MetricsRegistry* reg = sim_->metrics()) {
    reg->Counter("broker_bytes_out", {{"broker", leader}})
        ->Increment(static_cast<double>(response_bytes));
    reg->Counter("broker_records_out", {{"broker", leader}})
        ->Increment(static_cast<double>(records.size()));
  }
  network_->Send(leader, fetch.client_host, response_bytes,
                 [on_records = std::move(fetch.on_records),
                  records = std::move(records)]() mutable {
                   if (on_records) on_records(std::move(records));
                 });
}

void KafkaCluster::WakeWaiters(const TopicPartition& tp) {
  auto topic_it = topics_.find(tp.topic);
  CRAYFISH_CHECK(topic_it != topics_.end());
  auto& slot = topic_it->second.parts[static_cast<size_t>(tp.partition)];
  if (slot == nullptr) return;  // never touched: nothing parked
  auto& waiters = slot->waiters;
  if (waiters.empty()) return;
  std::vector<PendingFetch> to_answer;
  to_answer.swap(waiters);
  for (PendingFetch& fetch : to_answer) {
    if (*fetch.done) continue;
    *fetch.done = true;
    AnswerFetch(tp, std::move(fetch));
  }
}

crayfish::StatusOr<int> KafkaCluster::JoinGroup(
    const std::string& group, const std::string& topic,
    RebalanceCallback on_assignment) {
  if (!HasTopic(topic)) {
    return crayfish::Status::NotFound("topic: " + topic);
  }
  GroupState& state = groups_[group + "/" + topic];
  const int id = state.next_member_id++;
  state.members.push_back(GroupMember{id, std::move(on_assignment)});
  Rebalance(group, topic);
  return id;
}

void KafkaCluster::LeaveGroup(const std::string& group,
                              const std::string& topic, int member_id) {
  auto it = groups_.find(group + "/" + topic);
  if (it == groups_.end()) return;
  auto& members = it->second.members;
  const size_t before = members.size();
  members.erase(std::remove_if(members.begin(), members.end(),
                               [member_id](const GroupMember& m) {
                                 return m.id == member_id;
                               }),
                members.end());
  if (members.size() != before) Rebalance(group, topic);
}

int KafkaCluster::GroupSize(const std::string& group,
                            const std::string& topic) const {
  auto it = groups_.find(group + "/" + topic);
  return it == groups_.end() ? 0
                             : static_cast<int>(it->second.members.size());
}

void KafkaCluster::Rebalance(const std::string& group,
                             const std::string& topic) {
  auto git = groups_.find(group + "/" + topic);
  CRAYFISH_CHECK(git != groups_.end());
  auto pit = topics_.find(topic);
  CRAYFISH_CHECK(pit != topics_.end());
  const int partitions = pit->second.partition_count;
  const int member_count = static_cast<int>(git->second.members.size());
  // Eager rebalance: every member gets its new assignment after the
  // coordinator round trip (~50 ms, a fraction of a real rebalance since
  // we do not model the sync barrier in detail).
  for (int idx = 0; idx < member_count; ++idx) {
    const GroupMember& member =
        git->second.members[static_cast<size_t>(idx)];
    std::vector<int> assignment =
        RangeAssign(partitions, member_count, idx);
    sim_->Schedule(0.05, [cb = member.on_assignment,
                          assignment = std::move(assignment)]() mutable {
      if (cb) cb(std::move(assignment));
    });
  }
}

int KafkaCluster::CoordinatorBroker(const std::string& group) const {
  uint64_t h = 14695981039346656037ULL;  // FNV-1a offset basis
  for (const char c : group) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;  // FNV prime
  }
  return static_cast<int>(h % broker_hosts_.size());
}

void KafkaCluster::EnsureCommitSlot(const std::string& group,
                                    const TopicPartition& tp) {
  // emplace keeps an already-committed offset (rebalance re-assignment).
  committed_[group].emplace(tp.ToString(), 0);
}

void KafkaCluster::CommitOffset(const std::string& group,
                                const TopicPartition& tp, int64_t offset) {
  if (!broker_up_[static_cast<size_t>(CoordinatorBroker(group))]) return;
  // Hot path is a value-only write on a slot EnsureCommitSlot pre-created
  // during assignment. The insert fallback serves direct test usage that
  // skips Assign.
  auto git = committed_.find(group);
  if (git != committed_.end()) {
    auto oit = git->second.find(tp.ToString());
    if (oit != git->second.end()) {
      oit->second = offset;
      return;
    }
  }
  committed_[group][tp.ToString()] = offset;
}

int64_t KafkaCluster::CommittedOffset(const std::string& group,
                                      const TopicPartition& tp) const {
  auto git = committed_.find(group);
  if (git == committed_.end()) return 0;
  auto oit = git->second.find(tp.ToString());
  return oit == git->second.end() ? 0 : oit->second;
}

crayfish::StatusOr<Partition*> KafkaCluster::GetPartition(
    const TopicPartition& tp) {
  auto it = topics_.find(tp.topic);
  if (it == topics_.end()) {
    return crayfish::Status::NotFound("topic: " + tp.topic);
  }
  if (tp.partition < 0 || tp.partition >= it->second.partition_count) {
    return crayfish::Status::NotFound("partition: " + tp.ToString());
  }
  // Callers run in global context (tests, the metrics analyzer, setup), so
  // materializing an untouched partition here cannot race a leader thread.
  return &EnsurePart(it->second, tp.partition).log;
}

crayfish::Status KafkaCluster::TrimPartition(const TopicPartition& tp,
                                             int64_t offset) {
  CRAYFISH_ASSIGN_OR_RETURN(Partition * part, GetPartition(tp));
  part->TrimTo(offset);
  return crayfish::Status::Ok();
}

std::vector<int> KafkaCluster::RangeAssign(int partitions, int member_count,
                                           int member_index) {
  CRAYFISH_CHECK_GT(member_count, 0);
  CRAYFISH_CHECK_GE(member_index, 0);
  CRAYFISH_CHECK_LT(member_index, member_count);
  std::vector<int> mine;
  for (int p = member_index; p < partitions; p += member_count) {
    mine.push_back(p);
  }
  return mine;
}

}  // namespace crayfish::broker
