#include <functional>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"

#include "broker/cluster.h"
#include "broker/consumer.h"
#include "broker/partition.h"
#include "broker/producer.h"
#include "sim/network.h"
#include "sim/simulation.h"

namespace crayfish::broker {
namespace {

Record MakeRecord(uint64_t id, double create_time = 0.0,
                  uint64_t wire = 1000) {
  Record r;
  r.batch_id = id;
  r.create_time = create_time;
  r.wire_size = wire;
  return r;
}

// ------------------------------------------------------------- partition --

TEST(PartitionTest, AppendAssignsOffsetsAndLogAppendTime) {
  Partition p;
  EXPECT_EQ(p.Append(MakeRecord(1), 1.5), 0);
  EXPECT_EQ(p.Append(MakeRecord(2), 2.5), 1);
  EXPECT_EQ(p.end_offset(), 2);
  std::vector<Record> out;
  ASSERT_TRUE(p.Fetch(0, 10, 1 << 20, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0].log_append_time, 1.5);
  EXPECT_DOUBLE_EQ(out[1].log_append_time, 2.5);
  EXPECT_EQ(out[1].batch_id, 2u);
}

TEST(PartitionTest, FetchRespectsMaxRecordsAndBytes) {
  Partition p;
  for (int i = 0; i < 10; ++i) p.Append(MakeRecord(i, 0, 100), 0.0);
  std::vector<Record> out;
  ASSERT_TRUE(p.Fetch(0, 3, 1 << 20, &out).ok());
  EXPECT_EQ(out.size(), 3u);
  out.clear();
  ASSERT_TRUE(p.Fetch(0, 100, 250, &out).ok());
  EXPECT_EQ(out.size(), 2u);  // 100 + 100, third would exceed 250
}

TEST(PartitionTest, FetchAlwaysReturnsAtLeastOneRecord) {
  Partition p;
  p.Append(MakeRecord(1, 0, 5000), 0.0);
  std::vector<Record> out;
  ASSERT_TRUE(p.Fetch(0, 10, 100, &out).ok());  // record bigger than budget
  EXPECT_EQ(out.size(), 1u);
}

TEST(PartitionTest, FetchBelowLogStartIsOutOfRange) {
  Partition p;
  p.SetRetentionRecords(2);
  for (int i = 0; i < 5; ++i) p.Append(MakeRecord(i), 0.0);
  EXPECT_EQ(p.log_start_offset(), 3);
  EXPECT_EQ(p.end_offset(), 5);
  std::vector<Record> out;
  EXPECT_EQ(p.Fetch(2, 10, 1 << 20, &out).code(),
            crayfish::StatusCode::kOutOfRange);
}

TEST(PartitionTest, RetentionEvictsOldest) {
  Partition p;
  p.SetRetentionRecords(3);
  for (int i = 0; i < 10; ++i) p.Append(MakeRecord(i), 0.0);
  EXPECT_EQ(p.log_start_offset(), 7);
  EXPECT_EQ(p.end_offset(), 10);
  EXPECT_EQ(p.total_appended(), 10u);
}

// --------------------------------------------------------------- cluster --

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest() : sim_(1), network_(&sim_), cluster_(&sim_, &network_, {}) {
    CRAYFISH_CHECK_OK(
        network_.AddHost(sim::Host{"client", 4, 1ULL << 30, false}));
    CRAYFISH_CHECK_OK(cluster_.CreateTopic("t", 4));
    client_ = *network_.FindHost("client");
  }
  /// Stages and sends one produce request, as KafkaProducer does.
  void Produce(const TopicPartition& tp, std::vector<Record> batch,
               ProduceAck on_ack) {
    cluster_.SendProduce(cluster_.StageProduce(client_, tp, std::move(batch),
                                               std::move(on_ack)));
  }
  /// Resolves a topic name the way clients do, once, at the edge.
  TopicPartition Tp(const std::string& topic, int partition) const {
    auto id = cluster_.FindTopic(topic);
    CRAYFISH_CHECK(id.ok()) << id.status().ToString();
    return TopicPartition{*id, partition};
  }
  sim::Simulation sim_;
  sim::Network network_;
  KafkaCluster cluster_;
  sim::HostId client_{};
};

TEST_F(ClusterTest, TopicManagement) {
  EXPECT_TRUE(cluster_.FindTopic("t").ok());
  EXPECT_EQ(*cluster_.NumPartitions(Tp("t", 0).topic), 4);
  EXPECT_EQ(cluster_.CreateTopic("t", 2).code(),
            crayfish::StatusCode::kAlreadyExists);
  EXPECT_FALSE(cluster_.CreateTopic("bad", 0).ok());
  EXPECT_EQ(cluster_.FindTopic("x").status().code(),
            crayfish::StatusCode::kNotFound);
}

TEST_F(ClusterTest, TopicIdsAreDenseAndUnknownIdsAreNotFound) {
  ASSERT_TRUE(cluster_.CreateTopic("a", 2).ok());
  EXPECT_EQ(Tp("t", 0).topic, TopicId{0});
  EXPECT_EQ(Tp("a", 0).topic, TopicId{1});
  EXPECT_EQ(cluster_.topic_name(TopicId{1}), "a");
  EXPECT_EQ(cluster_.PartitionName(Tp("a", 1)), "a-1");
  const TopicId ghost{7};
  EXPECT_EQ(cluster_.NumPartitions(ghost).status().code(),
            crayfish::StatusCode::kNotFound);
  EXPECT_EQ(cluster_.GetPartition(TopicPartition{ghost, 0}).status().code(),
            crayfish::StatusCode::kNotFound);
  EXPECT_EQ(cluster_.GetPartition(Tp("t", 4)).status().code(),
            crayfish::StatusCode::kNotFound);
  EXPECT_EQ(cluster_.GetPartition(Tp("t", -1)).status().code(),
            crayfish::StatusCode::kNotFound);
}

TEST_F(ClusterTest, LeadershipSpreadsAcrossBrokers) {
  std::set<sim::HostId> leaders;
  for (int p = 0; p < 4; ++p) {
    leaders.insert(cluster_.LeaderHost(Tp("t", p)));
  }
  EXPECT_EQ(leaders.size(), 4u);
}

TEST_F(ClusterTest, ProduceStampsLogAppendTimeAtBroker) {
  bool acked = false;
  Produce(Tp("t", 0), {MakeRecord(7, 0.0)},
                   [&](crayfish::Status s) {
                     EXPECT_TRUE(s.ok());
                     acked = true;
                   });
  sim_.RunUntilIdle();
  EXPECT_TRUE(acked);
  Partition* p = *cluster_.GetPartition(Tp("t", 0));
  EXPECT_EQ(p->end_offset(), 1);
  std::vector<Record> out;
  ASSERT_TRUE(p->Fetch(0, 1, 1 << 20, &out).ok());
  // Append happened after network + broker processing: strictly positive.
  EXPECT_GT(out[0].log_append_time, 0.0);
}

TEST_F(ClusterTest, ProduceOverMaxRequestSizeFails) {
  Record big = MakeRecord(1, 0.0, 60ULL * 1024 * 1024);
  crayfish::Status got;
  Produce(Tp("t", 0), {big},
                   [&](crayfish::Status s) { got = s; });
  sim_.RunUntilIdle();
  EXPECT_TRUE(got.IsInvalidArgument());
}

TEST_F(ClusterTest, ProduceToUnknownTopicReportsNotFound) {
  crayfish::Status got;
  Produce(TopicPartition{TopicId{99}, 0}, {MakeRecord(1)},
                   [&](crayfish::Status s) { got = s; });
  sim_.RunUntilIdle();
  EXPECT_TRUE(got.IsNotFound());
}

TEST_F(ClusterTest, FetchReturnsAppendedRecords) {
  Produce(Tp("t", 1),
                   {MakeRecord(1), MakeRecord(2)}, nullptr);
  std::vector<Record> got;
  sim_.Schedule(0.5, [&] {
    cluster_.Fetch(client_, Tp("t", 1), 0, 10, 1 << 20, 0.5,
                   [&](std::vector<Record> records) { got = records; });
  });
  sim_.RunUntilIdle();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].offset, 0);
  EXPECT_EQ(got[1].offset, 1);
}

TEST_F(ClusterTest, LongPollWakesOnAppend) {
  std::vector<Record> got;
  double got_at = -1.0;
  cluster_.Fetch(client_, Tp("t", 0), 0, 10, 1 << 20,
                 /*max_wait=*/10.0, [&](std::vector<Record> records) {
                   got = records;
                   got_at = sim_.Now();
                 });
  // Append arrives at t=1: the parked fetch must answer promptly, far
  // before the 10 s timeout.
  sim_.Schedule(1.0, [&] {
    Produce(Tp("t", 0), {MakeRecord(5)},
                     nullptr);
  });
  sim_.RunUntilIdle();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_GT(got_at, 1.0);
  EXPECT_LT(got_at, 1.1);
}

TEST_F(ClusterTest, LongPollTimesOutEmpty) {
  bool answered = false;
  size_t n = 99;
  cluster_.Fetch(client_, Tp("t", 0), 0, 10, 1 << 20, 0.2,
                 [&](std::vector<Record> records) {
                   answered = true;
                   n = records.size();
                 });
  sim_.RunUntilIdle();
  EXPECT_TRUE(answered);
  EXPECT_EQ(n, 0u);
}

TEST_F(ClusterTest, FetchBelowRetentionAutoResets) {
  ASSERT_TRUE(cluster_.SetTopicRetention("t", 2).ok());
  for (int i = 0; i < 5; ++i) {
    Produce(Tp("t", 0), {MakeRecord(i)},
                     nullptr);
  }
  std::vector<Record> got;
  sim_.Schedule(1.0, [&] {
    cluster_.Fetch(client_, Tp("t", 0), 0, 10, 1 << 20, 0.1,
                   [&](std::vector<Record> records) { got = records; });
  });
  sim_.RunUntilIdle();
  ASSERT_EQ(got.size(), 2u);  // only the retained tail
  EXPECT_EQ(got[0].offset, 3);
}

TEST_F(ClusterTest, OffsetCommitStore) {
  const TopicPartition tp = Tp("t", 2);
  EXPECT_EQ(cluster_.CommittedOffset(cluster_.InternGroup("g"), tp), 0);
  cluster_.CommitOffset(cluster_.InternGroup("g"), tp, 41);
  EXPECT_EQ(cluster_.CommittedOffset(cluster_.InternGroup("g"), tp), 41);
  EXPECT_EQ(cluster_.CommittedOffset(cluster_.InternGroup("other"), tp), 0);

  // A commit that reaches a crashed coordinator is lost; once the broker
  // is back, the next commit lands.
  const int coord = cluster_.CoordinatorBroker("g");
  cluster_.CrashBroker(coord);
  cluster_.CommitOffset(cluster_.InternGroup("g"), tp, 57);
  EXPECT_EQ(cluster_.CommittedOffset(cluster_.InternGroup("g"), tp), 41);
  cluster_.RestartBroker(coord);
  cluster_.CommitOffset(cluster_.InternGroup("g"), tp, 57);
  EXPECT_EQ(cluster_.CommittedOffset(cluster_.InternGroup("g"), tp), 57);
}

TEST(RangeAssignTest, CoversAllPartitionsDisjointly) {
  std::vector<int> seen(32, 0);
  for (int m = 0; m < 5; ++m) {
    for (int p : KafkaCluster::RangeAssign(32, 5, m)) {
      ++seen[static_cast<size_t>(p)];
    }
  }
  for (int c : seen) EXPECT_EQ(c, 1);
}

// ---------------------------------------------------------------- clients --

class ClientTest : public ClusterTest {};

TEST_F(ClientTest, ProducerRoundRobinsPartitions) {
  KafkaProducer producer(&cluster_, "client");
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(producer.Send("t", MakeRecord(i)).ok());
  }
  producer.Flush();
  sim_.RunUntilIdle();
  for (int p = 0; p < 4; ++p) {
    Partition* part = *cluster_.GetPartition(Tp("t", p));
    EXPECT_EQ(part->end_offset(), 2) << "partition " << p;
  }
  EXPECT_EQ(producer.records_sent(), 8u);
}

TEST_F(ClientTest, ProducerBatchesSameInstantSends) {
  KafkaProducer producer(&cluster_, "client");
  int acks = 0;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(producer
                    .SendToPartition(Tp("t", 0), MakeRecord(i),
                                     [&](crayfish::Status s) {
                                       EXPECT_TRUE(s.ok());
                                       ++acks;
                                     })
                    .ok());
  }
  sim_.RunUntilIdle();
  EXPECT_EQ(acks, 4);
  // 4 records x (1000 + envelope) bytes < 16 KB batch: one request.
  EXPECT_EQ(producer.batches_sent(), 1u);
}

TEST_F(ClientTest, FlushWalksTopicsInNameOrderNotIdOrder) {
  // "zz" gets the lower id; Flush must still send "aa" first, so on the
  // shared leader link its batch is appended first.
  ASSERT_TRUE(cluster_.CreateTopic("zz", 4).ok());
  ASSERT_TRUE(cluster_.CreateTopic("aa", 4).ok());
  KafkaProducer producer(&cluster_, "client");
  ASSERT_TRUE(producer.SendToPartition(Tp("zz", 0), MakeRecord(1)).ok());
  ASSERT_TRUE(producer.SendToPartition(Tp("aa", 0), MakeRecord(2)).ok());
  producer.Flush();
  sim_.RunUntilIdle();
  std::vector<Record> zz;
  std::vector<Record> aa;
  ASSERT_TRUE((*cluster_.GetPartition(Tp("zz", 0)))->Fetch(0, 1, 1 << 20, &zz)
                  .ok());
  ASSERT_TRUE((*cluster_.GetPartition(Tp("aa", 0)))->Fetch(0, 1, 1 << 20, &aa)
                  .ok());
  ASSERT_EQ(zz.size(), 1u);
  ASSERT_EQ(aa.size(), 1u);
  EXPECT_LT(aa[0].log_append_time, zz[0].log_append_time);
}

TEST_F(ClientTest, FlushedRecordsOutliveTheProducer) {
  bool acked = false;
  {
    KafkaProducer producer(&cluster_, "client");
    ASSERT_TRUE(producer
                    .SendToPartition(Tp("t", 0), MakeRecord(1),
                                     [&](crayfish::Status s) {
                                       acked = s.ok();
                                     })
                    .ok());
    producer.Flush();
  }
  sim_.RunUntilIdle();
  EXPECT_EQ((*cluster_.GetPartition(Tp("t", 0)))->end_offset(), 1);
  EXPECT_TRUE(acked);
}

TEST_F(ClientTest, RetryingProducerDropsAcksButNotRecordsWhenDestroyed) {
  // Under the retry policy a batch's acks live in the producer's retry
  // state and go with it; the flushed records are still appended.
  crayfish::RetryPolicy retry;
  retry.max_retries = 3;
  retry.timeout_s = 0.5;
  cluster_.SetClientDefaults(retry, /*auto_commit_interval_s=*/0.0);
  bool acked = false;
  {
    KafkaProducer producer(&cluster_, "client");
    ASSERT_TRUE(producer
                    .SendToPartition(Tp("t", 0), MakeRecord(1),
                                     [&](crayfish::Status) { acked = true; })
                    .ok());
    producer.Flush();
  }
  sim_.RunUntilIdle();
  EXPECT_EQ((*cluster_.GetPartition(Tp("t", 0)))->end_offset(), 1);
  EXPECT_FALSE(acked);
}

TEST_F(ClientTest, ProducerRejectsOversizeRecord) {
  KafkaProducer producer(&cluster_, "client");
  EXPECT_FALSE(
      producer.Send("t", MakeRecord(1, 0.0, 60ULL * 1024 * 1024)).ok());
}

TEST_F(ClientTest, ProducerRejectsUnknownTopicAndPartition) {
  KafkaProducer producer(&cluster_, "client");
  EXPECT_FALSE(producer.Send("ghost", MakeRecord(1)).ok());
  EXPECT_FALSE(
      producer.SendToPartition(Tp("t", 9), MakeRecord(1)).ok());
}

TEST_F(ClientTest, ConsumerReceivesProducedRecords) {
  KafkaProducer producer(&cluster_, "client");
  KafkaConsumer consumer(&cluster_, "client", "g");
  ASSERT_TRUE(consumer.Assign("t", {0, 1, 2, 3}).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(producer.Send("t", MakeRecord(i)).ok());
  }
  producer.Flush();
  std::vector<Record> got;
  std::function<void()> poll = [&]() {
    consumer.Poll(0.5, [&](std::vector<Record> records) {
      for (auto& r : records) got.push_back(std::move(r));
      if (got.size() < 10) poll();
    });
  };
  poll();
  sim_.Run(5.0);
  EXPECT_EQ(got.size(), 10u);
  EXPECT_EQ(consumer.records_consumed(), 10u);
}

TEST_F(ClientTest, ConsumerPollTimesOutEmptyTopic) {
  KafkaConsumer consumer(&cluster_, "client", "g");
  ASSERT_TRUE(consumer.Assign("t", {0}).ok());
  bool got = false;
  size_t n = 99;
  consumer.Poll(0.3, [&](std::vector<Record> records) {
    got = true;
    n = records.size();
  });
  sim_.Run(2.0);
  EXPECT_TRUE(got);
  EXPECT_EQ(n, 0u);
}

TEST_F(ClientTest, ConsumerPositionAdvancesAndCommits) {
  KafkaProducer producer(&cluster_, "client");
  KafkaConsumer consumer(&cluster_, "client", "g");
  ASSERT_TRUE(consumer.Assign("t", {0}).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        producer.SendToPartition(Tp("t", 0), MakeRecord(i))
            .ok());
  }
  producer.Flush();
  consumer.Poll(1.0, [&](std::vector<Record>) {});
  sim_.Run(3.0);
  const TopicPartition tp = Tp("t", 0);
  EXPECT_EQ(consumer.position(tp), 3);
  consumer.CommitPositions();
  EXPECT_EQ(cluster_.CommittedOffset(cluster_.InternGroup("g"), tp), 3);

  // A new consumer in the same group resumes at the committed offset.
  KafkaConsumer resumed(&cluster_, "client", "g");
  ASSERT_TRUE(resumed.Assign("t", {0}).ok());
  EXPECT_EQ(resumed.position(tp), 3);
}

TEST_F(ClientTest, CloseStopsDelivery) {
  KafkaProducer producer(&cluster_, "client");
  KafkaConsumer consumer(&cluster_, "client", "g");
  ASSERT_TRUE(consumer.Assign("t", {0}).ok());
  consumer.Close();
  ASSERT_TRUE(
      producer.SendToPartition(Tp("t", 0), MakeRecord(1)).ok());
  producer.Flush();
  sim_.Run(2.0);
  EXPECT_EQ(consumer.buffered(), 0u);
}

TEST_F(ClientTest, BufferBoundPausesFetching) {
  ConsumerConfig cc;
  cc.max_buffered_records = 5;
  cc.fetch_max_records = 5;
  KafkaProducer producer(&cluster_, "client");
  KafkaConsumer consumer(&cluster_, "client", "g", cc);
  ASSERT_TRUE(consumer.Assign("t", {0}).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        producer.SendToPartition(Tp("t", 0), MakeRecord(i))
            .ok());
  }
  producer.Flush();
  sim_.Run(3.0);
  // Without a Poll, the client buffer must stay bounded (prefetch pauses).
  EXPECT_LE(consumer.buffered(), 10u);
}

TEST_F(ClientTest, AssignValidatesPartitions) {
  KafkaConsumer consumer(&cluster_, "client", "g");
  EXPECT_FALSE(consumer.Assign("t", {7}).ok());
  EXPECT_FALSE(consumer.Assign("ghost", {0}).ok());
}

TEST_F(ClientTest, AssignRejectsAlreadyAssignedPartition) {
  KafkaProducer producer(&cluster_, "client");
  KafkaConsumer consumer(&cluster_, "client", "g");
  ASSERT_TRUE(consumer.Assign("t", {0, 1}).ok());
  // A partition this consumer holds, alone or next to a free one, and a
  // partition named twice in one call: each is rejected whole.
  for (const std::vector<int>& parts :
       {std::vector<int>{1}, std::vector<int>{2, 1},
        std::vector<int>{3, 3}}) {
    const crayfish::Status s = consumer.Assign("t", parts);
    EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  }
  EXPECT_EQ(consumer.assignment(),
            (std::vector<TopicPartition>{Tp("t", 0), Tp("t", 1)}));
  // One fetch loop per partition: every record arrives exactly once.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        producer.SendToPartition(Tp("t", 1), MakeRecord(i))
            .ok());
  }
  producer.Flush();
  std::vector<uint64_t> got;
  std::function<void()> poll = [&]() {
    consumer.Poll(0.5, [&](std::vector<Record> records) {
      for (const Record& r : records) got.push_back(r.batch_id);
      poll();
    });
  };
  poll();
  sim_.Run(5.0);
  consumer.Close();
  EXPECT_EQ(got.size(), 10u);
  EXPECT_EQ(consumer.position(Tp("t", 1)), 10);
  EXPECT_EQ(consumer.delivered_position(Tp("t", 1)), 10);
  EXPECT_EQ(consumer.position(Tp("t", 2)), -1);
}

TEST_F(ClientTest, EndToEndLatencyIsCreateToAppend) {
  // Mirrors §3.3: start time at the producer, end time = LogAppendTime.
  KafkaProducer producer(&cluster_, "client");
  Record r = MakeRecord(1, /*create_time=*/0.0);
  ASSERT_TRUE(producer.SendToPartition(Tp("t", 0), r).ok());
  producer.Flush();
  sim_.RunUntilIdle();
  std::vector<Record> out;
  ASSERT_TRUE((*cluster_.GetPartition(Tp("t", 0)))
                  ->Fetch(0, 1, 1 << 20, &out)
                  .ok());
  ASSERT_EQ(out.size(), 1u);
  const double latency = out[0].log_append_time - out[0].create_time;
  // One network hop + broker processing: sub-millisecond but positive.
  EXPECT_GT(latency, 0.0);
  EXPECT_LT(latency, 0.01);
}


TEST_F(ClientTest, BrokerCrashRetriesAreAtLeastOnce) {
  // Crash a leader mid-stream: its parked fetch flushes empty, the
  // consumer backs off until the restart, and the producer keeps retrying
  // sends into the dead partition (timeouts and Unavailable errors both
  // re-send from the producer's in-flight copy). At-least-once = every
  // record delivered exactly once here: nothing is rewound.
  crayfish::RetryPolicy retry;
  retry.max_retries = 8;
  retry.timeout_s = 0.5;
  cluster_.SetClientDefaults(retry, /*auto_commit_interval_s=*/0.0);

  KafkaProducer producer(&cluster_, "client");
  KafkaConsumer consumer(&cluster_, "client", "g");
  ASSERT_TRUE(consumer.Assign("t", {0, 1, 2, 3}).ok());

  std::multiset<uint64_t> seen;
  std::function<void()> drain = [&]() {
    consumer.Poll(0.3, [&](std::vector<Record> records) {
      for (const Record& r : records) seen.insert(r.batch_id);
      drain();
    });
  };

  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(producer.Send("t", MakeRecord(i)).ok());
  }
  producer.Flush();
  drain();

  const int coord = 1;
  sim_.Schedule(2.0, [&]() { cluster_.CrashBroker(coord); });
  sim_.Schedule(3.0, [&]() {
    // Produced mid-outage: sends to the dead broker's partition retry
    // with backoff until the leader is back.
    for (int i = 40; i < 80; ++i) {
      CRAYFISH_CHECK_OK(producer.Send("t", MakeRecord(i)));
    }
    producer.Flush();
  });
  sim_.Schedule(6.0, [&]() { cluster_.RestartBroker(coord); });
  sim_.Run(25.0);

  for (uint64_t id = 0; id < 80; ++id) {
    EXPECT_GE(seen.count(id), 1u) << "record " << id << " lost";
  }
  std::set<uint64_t> unique(seen.begin(), seen.end());
  EXPECT_EQ(unique.size(), 80u);
  EXPECT_GT(producer.retries(), 0u);
  EXPECT_GT(consumer.retries(), 0u);
  EXPECT_EQ(producer.send_errors(), 0u);
  EXPECT_TRUE(cluster_.IsBrokerUp(coord));  // restarted
}

}  // namespace
}  // namespace crayfish::broker
