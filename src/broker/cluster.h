#ifndef CRAYFISH_BROKER_CLUSTER_H_
#define CRAYFISH_BROKER_CLUSTER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "broker/partition.h"
#include "broker/record.h"
#include "common/retry.h"
#include "common/status.h"
#include "sim/inline_function.h"
#include "sim/network.h"
#include "sim/simulation.h"
#include "sim/slot_pool.h"

namespace crayfish::obs {
class CounterMetric;
}  // namespace crayfish::obs

namespace crayfish::broker {

/// Completion of a produce request: the broker ack (or the error).
using ProduceAck = sim::InlineFunction<void(crayfish::Status)>;
/// Completion of a fetch request: the records (empty on timeout or error).
using FetchCallback = sim::InlineFunction<void(std::vector<Record>)>;

/// Dense id of a consumer group, handed out by KafkaCluster::InternGroup.
enum class GroupId : int32_t {};

/// Cluster-level configuration, matching the paper's deployment (§4.2/§4.3):
/// 4 brokers, 32 partitions per topic, LogAppendTime timestamps, 50 MB max
/// request size.
struct ClusterConfig {
  int num_brokers = 4;
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

  /// Creates a topic under the next dense TopicId.
  crayfish::Status CreateTopic(const std::string& name, int partitions);

  /// Applies per-partition size-based retention (records) to a topic.
  crayfish::Status SetTopicRetention(const std::string& name,
                                     size_t records_per_partition);
  /// NotFound for an unknown name. Clients resolve a topic once.
  crayfish::StatusOr<TopicId> FindTopic(const std::string& name) const;
  /// The name -> id index: walks whose order schedules events (a
  /// producer's Flush, a crashed broker's parked fetches) run in name order.
  const std::map<std::string, TopicId>& topics_by_name() const {
    return topic_ids_;
  }
  /// NotFound for an unknown id.
  crayfish::StatusOr<int> NumPartitions(TopicId topic) const;
  /// Name of a topic; CHECK-fails on an unknown id.
  const std::string& topic_name(TopicId topic) const;
  /// "<topic>-<partition>" for log lines and errors.
  std::string PartitionName(const TopicPartition& tp) const;

  /// Leader broker host for a partition.
  sim::HostId LeaderHost(const TopicPartition& tp) const;

  // --- fault injection (broker host crash/restart) ---
  //
  // There is no leader failover: a crashed broker's partitions stay
  // unavailable until RestartBroker, which keeps outage windows exactly as
  // long as the fault plan says (deterministic, and the worst case the
  // paper's single-replica deployment would see). Produce/fetch requests
  // against a down leader fail with retriable errors after
  // `unavailable_error_delay_s`; parked long-poll fetches are flushed with
  // empty responses; commits to a group whose coordinator it was are lost.

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

  /// Two-phase produce: StageProduce moves the batch and ack into a request
  /// slot (KafkaProducer stages at flush time, so flushed records outlive
  /// the producer) and SendProduce sends it. `on_ack` fires when the client
  /// receives the broker ack; requests above `max_request_bytes` fail fast
  /// with InvalidArgument (delivered on the next sim instant).
  uint32_t StageProduce(sim::HostId client, const TopicPartition& tp,
                        std::vector<Record> batch, ProduceAck on_ack);
  /// The records of a staged, not yet sent, request.
  const std::vector<Record>& staged_batch(uint32_t request) const {
    return requests_[request].records;
  }
  void SendProduce(uint32_t request);

  /// Long-polling fetch from one partition starting at `offset`.
  /// Responds with up to `max_records`/`max_bytes` records once data is
  /// available, or with an empty vector after `max_wait_s`.
  void Fetch(sim::HostId client, const TopicPartition& tp, int64_t offset,
             size_t max_records, uint64_t max_bytes, double max_wait_s,
             FetchCallback on_records);

  // --- consumer-group offset store ---
  //
  // Offsets live on the group's coordinator broker (Kafka keeps them in
  // __consumer_offsets, owned by one broker per group). A commit while
  // the coordinator is down is lost — the consumer re-reads from the
  // last offset that did land, which is exactly the duplicate window
  // at-least-once delivery permits.

  /// Id of `group`, created on first use (consumers intern theirs once).
  GroupId InternGroup(const std::string& group);
  /// Broker index hosting `group`'s coordinator (FNV-1a of the group
  /// name, so it is stable across runs and platforms).
  int CoordinatorBroker(const std::string& group) const;
  /// Stores the offset; silently dropped while the coordinator is down.
  void CommitOffset(GroupId group, const TopicPartition& tp, int64_t offset);
  /// Committed offset or 0 when none.
  int64_t CommittedOffset(GroupId group, const TopicPartition& tp) const;

  /// Direct partition access for tests and the metrics analyzer (reads the
  /// output topic log "at the broker", per the SUT-separation rule).
  /// NotFound for an unknown topic id or partition.
  crayfish::StatusOr<Partition*> GetPartition(const TopicPartition& tp);

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
  /// An in-flight produce or fetch request. Events on its path capture
  /// only `{this, slot}`; the slot returns to the free list when the client
  /// gets its answer, or when a partitioned link drops a hop.
  struct Request {
    sim::HostId client{};
    TopicPartition tp;
    /// Produce: the batch. Fetch: the response.
    std::vector<Record> records;
    ProduceAck on_ack;
    FetchCallback on_records;
    int64_t offset = 0;
    size_t max_records = 0;
    uint64_t max_bytes = 0;
    double max_wait_s = 0.0;
    /// Bumped on release: a parked fetch's timeout ignores a reused slot.
    uint32_t generation = 0;
    bool parked = false;  // a fetch in its partition's waiter list
  };

  /// Per-partition broker state: the log plus its parked long-poll
  /// fetches. Materialized lazily on first produce/fetch so a wide topic
  /// (hundreds of partitions across a thousand-host fleet) costs one null
  /// pointer per untouched partition, not a Partition object.
  struct PartitionState {
    Partition log;
    /// Fetch-request slots parked on this partition, in arrival order.
    std::vector<uint32_t> waiters;
  };

  struct TopicState {
    std::string name;
    int partition_count = 0;
    /// Retention configured before the partition materialized; applied in
    /// EnsurePart so late-created slots behave identically.
    size_t retention_records = 0;
    bool has_retention = false;
    /// Slot i is null until partition i's first produce/fetch; the vector
    /// itself never changes shape after CreateTopic.
    std::vector<std::unique_ptr<PartitionState>> parts;
  };

  /// One broker's traffic counters in the metrics registry, each pair
  /// resolved on that broker's first produce (in) or fetch answer (out),
  /// so the snapshot holds exactly the counters traffic touched.
  struct BrokerCounters {
    obs::CounterMetric* bytes_in = nullptr;
    obs::CounterMetric* records_in = nullptr;
    obs::CounterMetric* bytes_out = nullptr;
    obs::CounterMetric* records_out = nullptr;
  };

  /// Committed offsets, [topic id][partition], grown on first commit.
  struct GroupOffsets {
    int coordinator = 0;
    std::vector<std::vector<int64_t>> offsets;
  };

  /// The topic's state, or null for an unknown id.
  const TopicState* FindState(TopicId topic) const;
  /// Materializes (or returns) partition `tp`'s state; `tp` must be valid.
  PartitionState& EnsurePart(const TopicPartition& tp);
  int LeaderIndex(const TopicPartition& tp) const;
  const std::string& LeaderName(const TopicPartition& tp) const;

  uint32_t NewRequest(sim::HostId client, const TopicPartition& tp);
  void ReleaseRequest(uint32_t request);
  void ServeProduce(uint32_t request);
  /// Frees the slot, then hands the ack (or error) to the client.
  void CompleteProduce(uint32_t request, crayfish::Status status);

  void ServeFetch(uint32_t request);
  /// Reads the response at the broker and sends it back.
  void AnswerFetch(uint32_t request);
  /// Frees the slot, then hands the response to the client.
  void DeliverFetch(uint32_t request);
  void WakeWaiters(const TopicPartition& tp);
  uint64_t BatchWireSize(const std::vector<Record>& batch) const;

  /// Flushes parked fetch waiters for all partitions led by a (newly
  /// crashed) broker with empty responses.
  void FlushWaitersOfBroker(int broker_index);

  sim::Simulation* sim_;
  sim::Network* network_;
  ClusterConfig config_;
  std::vector<std::string> broker_hosts_;
  std::vector<sim::HostId> broker_host_ids_;
  std::vector<bool> broker_up_;
  /// By broker index.
  std::vector<BrokerCounters> broker_counters_;
  /// Set once during setup, before any client exists; clients read them at
  /// construction only.
  crayfish::RetryPolicy client_retry_;
  double auto_commit_interval_s_ = 0.0;
  /// Topics by id, plus the name index the edges resolve through.
  std::vector<TopicState> topics_;
  std::map<std::string, TopicId> topic_ids_;
  /// Committed offsets by group id, plus the group-name index.
  std::vector<GroupOffsets> committed_;
  std::map<std::string, GroupId> group_ids_;
  sim::SlotPool<Request> requests_;
};

}  // namespace crayfish::broker

#endif  // CRAYFISH_BROKER_CLUSTER_H_
