#include "broker/cluster.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/registry.h"
#include "obs/trace.h"

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
    broker_host_ids_.push_back(*network_->FindHost(host));
  }
}

crayfish::Status KafkaCluster::CreateTopic(const std::string& name,
                                           int partitions) {
  if (partitions <= 0) {
    return crayfish::Status::InvalidArgument("partitions must be > 0");
  }
  const TopicId id{static_cast<int32_t>(topics_.size())};
  if (!topic_ids_.try_emplace(name, id).second) {
    return crayfish::Status::AlreadyExists("topic: " + name);
  }
  TopicState& state = topics_.emplace_back();
  state.name = name;
  state.partition_count = partitions;
  // Null slots only: per-partition state materializes on first
  // produce/fetch (EnsurePart), so creating a 256-partition topic on a
  // thousand-host fleet allocates 256 pointers, nothing more.
  state.parts.resize(static_cast<size_t>(partitions));
  return crayfish::Status::Ok();
}

const KafkaCluster::TopicState* KafkaCluster::FindState(TopicId topic) const {
  const auto idx = static_cast<size_t>(topic);
  return idx < topics_.size() ? &topics_[idx] : nullptr;
}

KafkaCluster::PartitionState& KafkaCluster::EnsurePart(
    const TopicPartition& tp) {
  CRAYFISH_CHECK(FindState(tp.topic) != nullptr)
      << "unknown topic id " << static_cast<int32_t>(tp.topic);
  TopicState& state = topics_[static_cast<size_t>(tp.topic)];
  CRAYFISH_CHECK_LT(tp.partition, state.partition_count);
  auto& slot = state.parts[static_cast<size_t>(tp.partition)];
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
  CRAYFISH_ASSIGN_OR_RETURN(TopicId id, FindTopic(name));
  TopicState& state = topics_[static_cast<size_t>(id)];
  state.retention_records = records_per_partition;
  state.has_retention = true;
  for (auto& slot : state.parts) {
    if (slot != nullptr) slot->log.SetRetentionRecords(records_per_partition);
  }
  return crayfish::Status::Ok();
}

crayfish::StatusOr<TopicId> KafkaCluster::FindTopic(
    const std::string& name) const {
  auto it = topic_ids_.find(name);
  if (it == topic_ids_.end()) {
    return crayfish::Status::NotFound("topic: " + name);
  }
  return it->second;
}

crayfish::StatusOr<int> KafkaCluster::NumPartitions(TopicId topic) const {
  const TopicState* state = FindState(topic);
  if (state == nullptr) {
    return crayfish::Status::NotFound(
        "topic id " + std::to_string(static_cast<int32_t>(topic)));
  }
  return state->partition_count;
}

const std::string& KafkaCluster::topic_name(TopicId topic) const {
  const TopicState* state = FindState(topic);
  CRAYFISH_CHECK(state != nullptr)
      << "unknown topic id " << static_cast<int32_t>(topic);
  return state->name;
}

std::string KafkaCluster::PartitionName(const TopicPartition& tp) const {
  const TopicState* state = FindState(tp.topic);
  const std::string topic =
      state != nullptr
          ? state->name
          : "topic#" + std::to_string(static_cast<int32_t>(tp.topic));
  return topic + "-" + std::to_string(tp.partition);
}

int KafkaCluster::LeaderIndex(const TopicPartition& tp) const {
  // Round-robin leadership: partition p of any topic lives on broker
  // p % num_brokers, which spreads a 32-partition topic evenly over the
  // 4-broker cluster.
  return tp.partition % static_cast<int>(broker_hosts_.size());
}

sim::HostId KafkaCluster::LeaderHost(const TopicPartition& tp) const {
  return broker_host_ids_[static_cast<size_t>(LeaderIndex(tp))];
}

const std::string& KafkaCluster::LeaderName(const TopicPartition& tp) const {
  return broker_hosts_[static_cast<size_t>(LeaderIndex(tp))];
}

bool KafkaCluster::IsBrokerUp(int broker_index) const {
  CRAYFISH_CHECK_GE(broker_index, 0);
  CRAYFISH_CHECK_LT(broker_index, static_cast<int>(broker_up_.size()));
  return broker_up_[static_cast<size_t>(broker_index)];
}

bool KafkaCluster::LeaderAvailable(const TopicPartition& tp) const {
  return IsBrokerUp(LeaderIndex(tp));
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
  for (auto& [key, state] : groups_) Rebalance(state);
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
  // Topic-name order, not id order: each flush schedules an event.
  for (const auto& [name, id] : topic_ids_) {
    TopicState& state = topics_[static_cast<size_t>(id)];
    for (size_t p = 0; p < state.parts.size(); ++p) {
      if (static_cast<int>(p) % brokers != broker_index) continue;
      if (state.parts[p] == nullptr) continue;  // never touched: no waiters
      for (const uint32_t r : state.parts[p]->waiters) {
        requests_[r].parked = false;
        // The connection died with the broker: the client sees an empty
        // response after the error delay; no network traffic is modelled.
        sim_->Schedule(config_.unavailable_error_delay_s,
                       [this, r]() { DeliverFetch(r); });
      }
      state.parts[p]->waiters.clear();
    }
  }
}

uint64_t KafkaCluster::BatchWireSize(const std::vector<Record>& batch) const {
  uint64_t total = 0;
  for (const Record& r : batch) total += r.wire_size + kRecordEnvelopeBytes;
  return total;
}

uint32_t KafkaCluster::NewRequest(sim::HostId client,
                                  const TopicPartition& tp) {
  const uint32_t r = requests_.Acquire();
  requests_[r].client = client;
  requests_[r].tp = tp;
  return r;
}

void KafkaCluster::ReleaseRequest(uint32_t r) {
  Request& req = requests_[r];
  ++req.generation;
  req.parked = false;
  req.records = std::vector<Record>();  // frees it, as a moved-on batch was
  req.on_ack = nullptr;
  req.on_records = nullptr;
  requests_.Release(r);
}

uint32_t KafkaCluster::StageProduce(sim::HostId client,
                                    const TopicPartition& tp,
                                    std::vector<Record> batch,
                                    ProduceAck on_ack) {
  const uint32_t r = NewRequest(client, tp);
  requests_[r].records = std::move(batch);
  requests_[r].on_ack = std::move(on_ack);
  return r;
}

void KafkaCluster::SendProduce(uint32_t r) {
  Request& req = requests_[r];
  const TopicState* state = FindState(req.tp.topic);
  if (state == nullptr || req.tp.partition < 0 ||
      req.tp.partition >= state->partition_count) {
    sim_->Schedule(0.0, [this, r]() {
      CompleteProduce(r, crayfish::Status::NotFound(
                             PartitionName(requests_[r].tp)));
    });
    return;
  }
  const uint64_t request_bytes = BatchWireSize(req.records);
  if (request_bytes > config_.max_request_bytes) {
    sim_->Schedule(0.0, [this, r]() {
      CompleteProduce(r, crayfish::Status::InvalidArgument(
                             "produce request exceeds max.request.size"));
    });
    return;
  }
  if (!LeaderAvailable(req.tp)) {
    // Connection refused: the leader is down, nothing crosses the network.
    sim_->Schedule(config_.unavailable_error_delay_s, [this, r]() {
      CompleteProduce(r, crayfish::Status::Unavailable(
                             "broker down: " +
                             LeaderName(requests_[r].tp)));
    });
    return;
  }
  if (obs::MetricsRegistry* reg = sim_->metrics()) {
    reg->Counter("broker_bytes_in", {{"broker", LeaderName(req.tp)}})
        ->Increment(static_cast<double>(request_bytes));
    reg->Counter("broker_records_in", {{"broker", LeaderName(req.tp)}})
        ->Increment(static_cast<double>(req.records.size()));
  }
  // Client -> broker transfer, then broker-side append, then ack back.
  if (!network_->Send(req.client, LeaderHost(req.tp), request_bytes,
                      [this, r]() {
                        const double process =
                            config_.request_overhead_s +
                            config_.append_per_record_s *
                                static_cast<double>(
                                    requests_[r].records.size());
                        sim_->Schedule(process,
                                       [this, r]() { ServeProduce(r); });
                      })) {
    ReleaseRequest(r);
  }
}

void KafkaCluster::ServeProduce(uint32_t r) {
  Request& req = requests_[r];
  if (!LeaderAvailable(req.tp)) {
    // The broker died while the request was in flight: the batch was never
    // appended; the client sees the dropped connection as a retriable
    // error (a dead leader sends no traffic, so this is the one
    // leader->client hop that skips the network).
    sim_->Schedule(config_.unavailable_error_delay_s, [this, r]() {
      CompleteProduce(r, crayfish::Status::Unavailable(
                             "broker crashed mid-produce: " +
                             LeaderName(requests_[r].tp)));
    });
    return;
  }
  Partition& part = EnsurePart(req.tp).log;
  // LogAppendTime: broker local time at append (§3.3 step 5).
  obs::TraceRecorder* tracer = sim_->tracer();
  for (Record& rec : req.records) {
    const uint64_t batch_id = rec.batch_id;
    part.Append(std::move(rec), sim_->Now());
    // MarkAppend resolves input vs. output topic by append count; the
    // second append completes the batch's trace.
    if (tracer) tracer->MarkAppend(batch_id, sim_->Now());
  }
  req.records.clear();
  WakeWaiters(req.tp);
  if (!network_->Send(LeaderHost(req.tp), req.client, /*ack bytes=*/64,
                      [this, r]() {
                        CompleteProduce(r, crayfish::Status::Ok());
                      })) {
    ReleaseRequest(r);
  }
}

void KafkaCluster::CompleteProduce(uint32_t r, crayfish::Status status) {
  ProduceAck on_ack = std::move(requests_[r].on_ack);
  ReleaseRequest(r);
  if (on_ack) on_ack(std::move(status));
}

void KafkaCluster::Fetch(sim::HostId client, const TopicPartition& tp,
                         int64_t offset, size_t max_records,
                         uint64_t max_bytes, double max_wait_s,
                         FetchCallback on_records) {
  const TopicState* state = FindState(tp.topic);
  CRAYFISH_CHECK(state != nullptr)
      << "fetch from unknown topic id " << static_cast<int32_t>(tp.topic);
  CRAYFISH_CHECK_LT(tp.partition, state->partition_count);
  const uint32_t r = NewRequest(client, tp);
  Request& req = requests_[r];
  req.offset = offset;
  req.max_records = max_records;
  req.max_bytes = max_bytes;
  req.max_wait_s = max_wait_s;
  req.on_records = std::move(on_records);
  if (!LeaderAvailable(tp)) {
    // Connection refused: empty response after the error delay.
    sim_->Schedule(config_.unavailable_error_delay_s,
                   [this, r]() { DeliverFetch(r); });
    return;
  }
  // Fetch request (small) travels to the leader.
  if (!network_->Send(client, LeaderHost(tp), /*request bytes=*/128,
                      [this, r]() {
                        sim_->Schedule(config_.request_overhead_s,
                                       [this, r]() { ServeFetch(r); });
                      })) {
    ReleaseRequest(r);
  }
}

void KafkaCluster::ServeFetch(uint32_t r) {
  Request& req = requests_[r];
  if (!LeaderAvailable(req.tp)) {
    // Crashed while the request was in flight: the empty response arrives
    // without crossing the network (the dead leader sends nothing).
    sim_->Schedule(config_.unavailable_error_delay_s,
                   [this, r]() { DeliverFetch(r); });
    return;
  }
  PartitionState& ps = EnsurePart(req.tp);
  if (ps.log.end_offset() > req.offset) {
    AnswerFetch(r);
    return;
  }
  // Long-poll: park until append or timeout.
  req.parked = true;
  ps.waiters.push_back(r);
  const uint32_t generation = req.generation;
  sim_->Schedule(req.max_wait_s, [this, r, generation]() {
    Request& waiting = requests_[r];
    if (waiting.generation != generation || !waiting.parked) return;
    waiting.parked = false;
    auto& waiters = EnsurePart(waiting.tp).waiters;
    auto w = std::find(waiters.begin(), waiters.end(), r);
    CRAYFISH_CHECK(w != waiters.end())
        << "pending fetch missing for " << PartitionName(waiting.tp);
    waiters.erase(w);
    AnswerFetch(r);
  });
}

void KafkaCluster::AnswerFetch(uint32_t r) {
  Request& req = requests_[r];
  Partition& part = EnsurePart(req.tp).log;
  int64_t offset = req.offset;
  if (offset < part.log_start_offset()) {
    // The consumer fell behind retention: auto-reset to the earliest
    // retained record (auto.offset.reset=earliest); the skipped records
    // are lost to this consumer, as in Kafka.
    offset = part.log_start_offset();
  }
  crayfish::Status s =
      part.Fetch(offset, req.max_records, req.max_bytes, &req.records);
  if (!s.ok()) req.records.clear();
  const uint64_t response_bytes = 256 + BatchWireSize(req.records);
  if (obs::MetricsRegistry* reg = sim_->metrics()) {
    reg->Counter("broker_bytes_out", {{"broker", LeaderName(req.tp)}})
        ->Increment(static_cast<double>(response_bytes));
    reg->Counter("broker_records_out", {{"broker", LeaderName(req.tp)}})
        ->Increment(static_cast<double>(req.records.size()));
  }
  if (!network_->Send(LeaderHost(req.tp), req.client, response_bytes,
                      [this, r]() { DeliverFetch(r); })) {
    ReleaseRequest(r);
  }
}

void KafkaCluster::DeliverFetch(uint32_t r) {
  Request& req = requests_[r];
  FetchCallback on_records = std::move(req.on_records);
  std::vector<Record> records = std::move(req.records);
  ReleaseRequest(r);
  if (on_records) on_records(std::move(records));
}

void KafkaCluster::WakeWaiters(const TopicPartition& tp) {
  auto& slot = topics_[static_cast<size_t>(tp.topic)]
                   .parts[static_cast<size_t>(tp.partition)];
  if (slot == nullptr) return;  // never touched: nothing parked
  // AnswerFetch only schedules, so the list is stable while it is walked.
  for (const uint32_t r : slot->waiters) {
    requests_[r].parked = false;
    AnswerFetch(r);
  }
  slot->waiters.clear();
}

crayfish::StatusOr<int> KafkaCluster::JoinGroup(
    const std::string& group, const std::string& topic,
    RebalanceCallback on_assignment) {
  CRAYFISH_ASSIGN_OR_RETURN(TopicId id, FindTopic(topic));
  GroupState& state = groups_[group + "/" + topic];
  state.topic = id;
  const int member = state.next_member_id++;
  state.members.push_back(GroupMember{member, std::move(on_assignment)});
  Rebalance(state);
  return member;
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
  if (members.size() != before) Rebalance(it->second);
}

int KafkaCluster::GroupSize(const std::string& group,
                            const std::string& topic) const {
  auto it = groups_.find(group + "/" + topic);
  return it == groups_.end() ? 0
                             : static_cast<int>(it->second.members.size());
}

void KafkaCluster::Rebalance(GroupState& state) {
  const int partitions =
      topics_[static_cast<size_t>(state.topic)].partition_count;
  const int member_count = static_cast<int>(state.members.size());
  // Eager rebalance: every member gets its new assignment after the
  // coordinator round trip (~50 ms, a fraction of a real rebalance since
  // we do not model the sync barrier in detail). The event names the
  // member by id, so one that has left meanwhile is skipped.
  for (int idx = 0; idx < member_count; ++idx) {
    sim_->Schedule(0.05, [state = &state,
                          id = state.members[static_cast<size_t>(idx)].id,
                          assignment = RangeAssign(partitions, member_count,
                                                   idx)]() mutable {
      for (GroupMember& m : state->members) {
        if (m.id != id) continue;
        m.on_assignment(std::move(assignment));
        return;
      }
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

GroupId KafkaCluster::InternGroup(const std::string& group) {
  const GroupId id{static_cast<int32_t>(committed_.size())};
  auto [it, inserted] = group_ids_.try_emplace(group, id);
  if (inserted) committed_.push_back(GroupOffsets{CoordinatorBroker(group), {}});
  return it->second;
}

void KafkaCluster::CommitOffset(GroupId group, const TopicPartition& tp,
                                int64_t offset) {
  CRAYFISH_CHECK_LT(static_cast<size_t>(group), committed_.size());
  GroupOffsets& g = committed_[static_cast<size_t>(group)];
  if (!broker_up_[static_cast<size_t>(g.coordinator)]) return;
  const auto t = static_cast<size_t>(tp.topic);
  const auto p = static_cast<size_t>(tp.partition);
  if (t >= g.offsets.size()) g.offsets.resize(t + 1);
  if (p >= g.offsets[t].size()) g.offsets[t].resize(p + 1, 0);
  g.offsets[t][p] = offset;
}

int64_t KafkaCluster::CommittedOffset(GroupId group,
                                      const TopicPartition& tp) const {
  CRAYFISH_CHECK_LT(static_cast<size_t>(group), committed_.size());
  const GroupOffsets& g = committed_[static_cast<size_t>(group)];
  const auto t = static_cast<size_t>(tp.topic);
  const auto p = static_cast<size_t>(tp.partition);
  if (t >= g.offsets.size() || p >= g.offsets[t].size()) return 0;
  return g.offsets[t][p];
}

crayfish::StatusOr<Partition*> KafkaCluster::GetPartition(
    const TopicPartition& tp) {
  const TopicState* state = FindState(tp.topic);
  if (state == nullptr) {
    return crayfish::Status::NotFound(
        "topic id " + std::to_string(static_cast<int32_t>(tp.topic)));
  }
  if (tp.partition < 0 || tp.partition >= state->partition_count) {
    return crayfish::Status::NotFound("partition: " + PartitionName(tp));
  }
  return &EnsurePart(tp).log;
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
