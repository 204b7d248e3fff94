#ifndef CRAYFISH_BROKER_CLUSTER_H_
#define CRAYFISH_BROKER_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "broker/partition.h"
#include "broker/record.h"
#include "common/retry.h"
#include "common/status.h"
#include "sim/network.h"
#include "sim/simulation.h"

namespace crayfish::broker {

/// Cluster-level configuration, matching the paper's deployment (§4.2/§4.3):
/// 4 brokers, 32 partitions per topic, LogAppendTime timestamps, 50 MB max
/// request size.
struct ClusterConfig {
  int num_brokers = 4;
  int default_partitions = 32;
  /// Broker-side processing overhead per produce/fetch request.
  double request_overhead_s = 100e-6;
  /// Additional broker-side cost per record appended.
  double append_per_record_s = 2e-6;
  /// Maximum produce/fetch request payload (paper: raised to 50 MB to
  /// allow large latency-experiment batches).
  uint64_t max_request_bytes = 50ULL * 1024 * 1024;
  /// Host-name prefix for broker VMs ("kafka-0".."kafka-3").
  std::string host_prefix = "kafka-";
  /// How long a client waits before its request against a down broker
  /// fails (connection-refused style error, no network traffic).
  double unavailable_error_delay_s = 0.01;
};

/// A simulated Apache Kafka cluster.
///
/// Topics are partitioned logs; each partition has a leader broker (round-
/// robin assignment). Produce and fetch requests travel over the simulated
/// network to the leader host, pay a broker-side processing delay, and
/// answer back over the network. Fetches long-poll: an empty partition
/// parks the request until an append arrives or `max_wait` elapses —
/// exactly the mechanism that makes pull-based clients efficient.
class KafkaCluster {
 public:
  /// Registers broker hosts on the network (4 vCPUs / 15 GB each, as in
  /// the paper's environment).
  KafkaCluster(sim::Simulation* sim, sim::Network* network,
               ClusterConfig config);

  KafkaCluster(const KafkaCluster&) = delete;
  KafkaCluster& operator=(const KafkaCluster&) = delete;

  crayfish::Status CreateTopic(const std::string& name, int partitions);

  /// Applies per-partition size-based retention (records) to a topic.
  crayfish::Status SetTopicRetention(const std::string& name,
                                     size_t records_per_partition);
  bool HasTopic(const std::string& name) const;
  crayfish::StatusOr<int> NumPartitions(const std::string& name) const;

  /// Leader broker host for a partition; CHECK-fails on unknown topic.
  const std::string& LeaderHost(const TopicPartition& tp) const;

  // --- fault injection (broker host crash/restart) ---
  //
  // There is no leader failover: a crashed broker's partitions stay
  // unavailable until RestartBroker, which keeps outage windows exactly as
  // long as the fault plan says (deterministic, and the worst case the
  // paper's single-replica deployment would see). Produce/fetch requests
  // against a down leader fail with retriable errors after
  // `unavailable_error_delay_s`; parked long-poll fetches are flushed with
  // empty responses; every dynamic consumer group rebalances (the crash
  // severs member sessions, as losing a coordinator/leader does in Kafka).

  /// Marks broker `broker_index` down. Idempotent.
  void CrashBroker(int broker_index);
  /// Brings a crashed broker back; its partition logs survived (clean
  /// restart from disk). Idempotent.
  void RestartBroker(int broker_index);
  bool IsBrokerUp(int broker_index) const;
  /// Whether the leader broker of `tp` is up.
  bool LeaderAvailable(const TopicPartition& tp) const;

  /// Client-side robustness defaults: producers/consumers constructed with
  /// a disabled retry policy inherit these (set by the fault subsystem
  /// before clients are built, so every client in an experiment is covered
  /// without per-component plumbing). `auto_commit_interval_s > 0` makes
  /// consumers periodically commit delivered offsets.
  void SetClientDefaults(crayfish::RetryPolicy retry,
                         double auto_commit_interval_s);
  const crayfish::RetryPolicy& default_client_retry() const {
    return client_retry_;
  }
  double default_auto_commit_interval_s() const {
    return auto_commit_interval_s_;
  }

  /// Produce a batch of records to one partition. The callback fires when
  /// the client receives the broker ack. Requests above
  /// `max_request_bytes` fail fast with InvalidArgument (delivered on the
  /// next sim instant).
  void Produce(const std::string& client_host, const TopicPartition& tp,
               std::vector<Record> batch,
               std::function<void(crayfish::Status)> on_ack);

  /// Long-polling fetch from one partition starting at `offset`.
  /// Responds with up to `max_records`/`max_bytes` records once data is
  /// available, or with an empty vector after `max_wait_s`.
  void Fetch(const std::string& client_host, const TopicPartition& tp,
             int64_t offset, size_t max_records, uint64_t max_bytes,
             double max_wait_s,
             std::function<void(std::vector<Record>)> on_records);

  // --- consumer-group offset store ---
  //
  // Offsets live on the group's coordinator broker (Kafka keeps them in
  // __consumer_offsets, owned by one broker per group). A commit while
  // the coordinator is down is lost — the consumer re-reads from the
  // last offset that did land, which is exactly the duplicate window
  // at-least-once delivery permits.

  /// Broker index hosting `group`'s coordinator (FNV-1a of the group
  /// name, so it is stable across runs and platforms).
  int CoordinatorBroker(const std::string& group) const;
  /// Stores the offset; silently dropped while the coordinator is down.
  /// Pre-creates the committed-offset slot for (group, tp), keeping any
  /// offset already stored. Consumers call this while assigning partitions
  /// (setup or a rebalance), so later CommitOffset calls from poll loops
  /// are value-only writes on pre-existing entries.
  void EnsureCommitSlot(const std::string& group, const TopicPartition& tp);

  void CommitOffset(const std::string& group, const TopicPartition& tp,
                    int64_t offset);
  /// Committed offset or 0 when none.
  int64_t CommittedOffset(const std::string& group,
                          const TopicPartition& tp) const;

  // --- group coordinator (dynamic membership) ---
  //
  // Members join a (group, topic) pair and receive their partition
  // assignment through the callback; every join/leave triggers an eager
  // rebalance that re-invokes every member's callback with its new
  // assignment (range strategy). Delivery is at-least-once across
  // rebalances: new owners resume from committed offsets.

  using RebalanceCallback =
      std::function<void(std::vector<int> partitions)>;

  /// Joins; returns the member id used for LeaveGroup. The callback fires
  /// (asynchronously, after the rebalance delay) on this and every later
  /// membership change.
  crayfish::StatusOr<int> JoinGroup(const std::string& group,
                                    const std::string& topic,
                                    RebalanceCallback on_assignment);

  /// Leaves; remaining members are rebalanced. Unknown ids are ignored.
  void LeaveGroup(const std::string& group, const std::string& topic,
                  int member_id);

  /// Current member count of a (group, topic) pair.
  int GroupSize(const std::string& group, const std::string& topic) const;

  /// Direct partition access for tests and the metrics analyzer (reads the
  /// output topic log "at the broker", per the SUT-separation rule).
  crayfish::StatusOr<Partition*> GetPartition(const TopicPartition& tp);

  /// Drops consumed records below `offset` (retention).
  crayfish::Status TrimPartition(const TopicPartition& tp, int64_t offset);

  const ClusterConfig& config() const { return config_; }
  const std::vector<std::string>& broker_hosts() const {
    return broker_hosts_;
  }
  sim::Simulation* simulation() { return sim_; }
  sim::Network* network() { return network_; }

  /// Range assignment of a topic's partitions among `member_count` group
  /// members; returns the partitions of member `member_index`.
  static std::vector<int> RangeAssign(int partitions, int member_count,
                                      int member_index);

 private:
  struct PendingFetch {
    int64_t offset;
    size_t max_records;
    uint64_t max_bytes;
    std::string client_host;
    std::function<void(std::vector<Record>)> on_records;
    /// Set when the waiter has been answered (by data or timeout).
    std::shared_ptr<bool> done;
  };

  /// Per-partition broker state: the log plus its parked long-poll
  /// fetches. Materialized lazily on first produce/fetch so a wide topic
  /// (hundreds of partitions across a thousand-host fleet) costs one null
  /// pointer per untouched partition, not a Partition object.
  struct PartitionState {
    Partition log;
    /// Parked long-poll fetches.
    std::vector<PendingFetch> waiters;
  };

  struct TopicState {
    int partition_count = 0;
    /// Retention configured before the partition materialized; applied in
    /// EnsurePart so late-created slots behave identically.
    size_t retention_records = 0;
    bool has_retention = false;
    /// Slot i is null until partition i's first produce/fetch; the vector
    /// itself never changes shape after CreateTopic.
    std::vector<std::unique_ptr<PartitionState>> parts;
  };

  /// Materializes (or returns) partition `partition`'s state.
  PartitionState& EnsurePart(TopicState& state, int partition);

  /// Completes a fetch at the broker and sends the response back. Takes the
  /// fetch by value so the records callback moves end-to-end (a PendingFetch
  /// copy would copy its std::function and client-host string).
  void AnswerFetch(const TopicPartition& tp, PendingFetch fetch);
  void WakeWaiters(const TopicPartition& tp);
  uint64_t BatchWireSize(const std::vector<Record>& batch) const;

  struct GroupMember {
    int id;
    RebalanceCallback on_assignment;
  };
  struct GroupState {
    std::vector<GroupMember> members;
    int next_member_id = 0;
  };

  void Rebalance(const std::string& group, const std::string& topic);

  /// Flushes parked fetch waiters for all partitions led by a (newly
  /// crashed) broker with empty responses.
  void FlushWaitersOfBroker(int broker_index);

  sim::Simulation* sim_;
  sim::Network* network_;
  ClusterConfig config_;
  std::vector<std::string> broker_hosts_;
  std::vector<bool> broker_up_;
  /// Set once during setup, before any client exists; clients read them at
  /// construction only.
  crayfish::RetryPolicy client_retry_;
  double auto_commit_interval_s_ = 0.0;
  /// Ordered maps on purpose (lint R3): rebalance and fetch scheduling
  /// iterate these, so the container must enumerate in a stable order for
  /// runs to be reproducible. Do not switch to unordered_map.
  std::map<std::string, TopicState> topics_;
  std::map<std::string, std::map<std::string, int64_t>> committed_;
  /// Keyed by "group/topic".
  std::map<std::string, GroupState> groups_;
};

}  // namespace crayfish::broker

#endif  // CRAYFISH_BROKER_CLUSTER_H_
