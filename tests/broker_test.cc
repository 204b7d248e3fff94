#include <memory>
#include <set>

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
  for (int i = 0; i < 5; ++i) p.Append(MakeRecord(i), 0.0);
  p.TrimTo(3);
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
  }
  sim::Simulation sim_;
  sim::Network network_;
  KafkaCluster cluster_;
};

TEST_F(ClusterTest, TopicManagement) {
  EXPECT_TRUE(cluster_.HasTopic("t"));
  EXPECT_FALSE(cluster_.HasTopic("x"));
  EXPECT_EQ(*cluster_.NumPartitions("t"), 4);
  EXPECT_EQ(cluster_.CreateTopic("t", 2).code(),
            crayfish::StatusCode::kAlreadyExists);
  EXPECT_FALSE(cluster_.CreateTopic("bad", 0).ok());
  EXPECT_FALSE(cluster_.NumPartitions("x").ok());
}

TEST_F(ClusterTest, LeadershipSpreadsAcrossBrokers) {
  std::set<std::string> leaders;
  for (int p = 0; p < 4; ++p) {
    leaders.insert(cluster_.LeaderHost(TopicPartition{"t", p}));
  }
  EXPECT_EQ(leaders.size(), 4u);
}

TEST_F(ClusterTest, ProduceStampsLogAppendTimeAtBroker) {
  bool acked = false;
  cluster_.Produce("client", TopicPartition{"t", 0}, {MakeRecord(7, 0.0)},
                   [&](crayfish::Status s) {
                     EXPECT_TRUE(s.ok());
                     acked = true;
                   });
  sim_.RunUntilIdle();
  EXPECT_TRUE(acked);
  Partition* p = *cluster_.GetPartition(TopicPartition{"t", 0});
  EXPECT_EQ(p->end_offset(), 1);
  std::vector<Record> out;
  ASSERT_TRUE(p->Fetch(0, 1, 1 << 20, &out).ok());
  // Append happened after network + broker processing: strictly positive.
  EXPECT_GT(out[0].log_append_time, 0.0);
}

TEST_F(ClusterTest, ProduceOverMaxRequestSizeFails) {
  Record big = MakeRecord(1, 0.0, 60ULL * 1024 * 1024);
  crayfish::Status got;
  cluster_.Produce("client", TopicPartition{"t", 0}, {big},
                   [&](crayfish::Status s) { got = s; });
  sim_.RunUntilIdle();
  EXPECT_TRUE(got.IsInvalidArgument());
}

TEST_F(ClusterTest, ProduceToUnknownTopicReportsNotFound) {
  crayfish::Status got;
  cluster_.Produce("client", TopicPartition{"nope", 0}, {MakeRecord(1)},
                   [&](crayfish::Status s) { got = s; });
  sim_.RunUntilIdle();
  EXPECT_TRUE(got.IsNotFound());
}

TEST_F(ClusterTest, FetchReturnsAppendedRecords) {
  cluster_.Produce("client", TopicPartition{"t", 1},
                   {MakeRecord(1), MakeRecord(2)}, nullptr);
  std::vector<Record> got;
  sim_.Schedule(0.5, [&] {
    cluster_.Fetch("client", TopicPartition{"t", 1}, 0, 10, 1 << 20, 0.5,
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
  cluster_.Fetch("client", TopicPartition{"t", 0}, 0, 10, 1 << 20,
                 /*max_wait=*/10.0, [&](std::vector<Record> records) {
                   got = records;
                   got_at = sim_.Now();
                 });
  // Append arrives at t=1: the parked fetch must answer promptly, far
  // before the 10 s timeout.
  sim_.Schedule(1.0, [&] {
    cluster_.Produce("client", TopicPartition{"t", 0}, {MakeRecord(5)},
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
  cluster_.Fetch("client", TopicPartition{"t", 0}, 0, 10, 1 << 20, 0.2,
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
    cluster_.Produce("client", TopicPartition{"t", 0}, {MakeRecord(i)},
                     nullptr);
  }
  std::vector<Record> got;
  sim_.Schedule(1.0, [&] {
    cluster_.Fetch("client", TopicPartition{"t", 0}, 0, 10, 1 << 20, 0.1,
                   [&](std::vector<Record> records) { got = records; });
  });
  sim_.RunUntilIdle();
  ASSERT_EQ(got.size(), 2u);  // only the retained tail
  EXPECT_EQ(got[0].offset, 3);
}

TEST_F(ClusterTest, OffsetCommitStore) {
  TopicPartition tp{"t", 2};
  EXPECT_EQ(cluster_.CommittedOffset("g", tp), 0);
  cluster_.CommitOffset("g", tp, 41);
  EXPECT_EQ(cluster_.CommittedOffset("g", tp), 41);
  EXPECT_EQ(cluster_.CommittedOffset("other", tp), 0);
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
    Partition* part = *cluster_.GetPartition(TopicPartition{"t", p});
    EXPECT_EQ(part->end_offset(), 2) << "partition " << p;
  }
  EXPECT_EQ(producer.records_sent(), 8u);
}

TEST_F(ClientTest, ProducerBatchesSameInstantSends) {
  KafkaProducer producer(&cluster_, "client");
  int acks = 0;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(producer
                    .SendToPartition(TopicPartition{"t", 0}, MakeRecord(i),
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

TEST_F(ClientTest, ProducerRejectsOversizeRecord) {
  KafkaProducer producer(&cluster_, "client");
  EXPECT_FALSE(
      producer.Send("t", MakeRecord(1, 0.0, 60ULL * 1024 * 1024)).ok());
}

TEST_F(ClientTest, ProducerRejectsUnknownTopicAndPartition) {
  KafkaProducer producer(&cluster_, "client");
  EXPECT_FALSE(producer.Send("ghost", MakeRecord(1)).ok());
  EXPECT_FALSE(
      producer.SendToPartition(TopicPartition{"t", 9}, MakeRecord(1)).ok());
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

TEST_F(ClientTest, SubscribeRangeAssignsAmongMembers) {
  KafkaConsumer a(&cluster_, "client", "g");
  KafkaConsumer b(&cluster_, "client", "g");
  ASSERT_TRUE(a.Subscribe("t", 2, 0).ok());
  ASSERT_TRUE(b.Subscribe("t", 2, 1).ok());
  EXPECT_EQ(a.assignment().size(), 2u);
  EXPECT_EQ(b.assignment().size(), 2u);
  std::set<int> all;
  for (const auto& tp : a.assignment()) all.insert(tp.partition);
  for (const auto& tp : b.assignment()) all.insert(tp.partition);
  EXPECT_EQ(all.size(), 4u);
}

TEST_F(ClientTest, ConsumerPositionAdvancesAndCommits) {
  KafkaProducer producer(&cluster_, "client");
  KafkaConsumer consumer(&cluster_, "client", "g");
  ASSERT_TRUE(consumer.Assign("t", {0}).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        producer.SendToPartition(TopicPartition{"t", 0}, MakeRecord(i))
            .ok());
  }
  producer.Flush();
  consumer.Poll(1.0, [&](std::vector<Record>) {});
  sim_.Run(3.0);
  TopicPartition tp{"t", 0};
  EXPECT_EQ(consumer.position(tp), 3);
  consumer.CommitPositions();
  EXPECT_EQ(cluster_.CommittedOffset("g", tp), 3);

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
      producer.SendToPartition(TopicPartition{"t", 0}, MakeRecord(1)).ok());
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
        producer.SendToPartition(TopicPartition{"t", 0}, MakeRecord(i))
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
            (std::vector<TopicPartition>{{"t", 0}, {"t", 1}}));
  // One fetch loop per partition: every record arrives exactly once.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        producer.SendToPartition(TopicPartition{"t", 1}, MakeRecord(i))
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
  EXPECT_EQ(consumer.position(TopicPartition{"t", 1}), 10);
  EXPECT_EQ(consumer.delivered_position(TopicPartition{"t", 1}), 10);
  EXPECT_EQ(consumer.position(TopicPartition{"t", 2}), -1);
}

TEST_F(ClientTest, EndToEndLatencyIsCreateToAppend) {
  // Mirrors §3.3: start time at the producer, end time = LogAppendTime.
  KafkaProducer producer(&cluster_, "client");
  Record r = MakeRecord(1, /*create_time=*/0.0);
  ASSERT_TRUE(producer.SendToPartition(TopicPartition{"t", 0}, r).ok());
  producer.Flush();
  sim_.RunUntilIdle();
  std::vector<Record> out;
  ASSERT_TRUE((*cluster_.GetPartition(TopicPartition{"t", 0}))
                  ->Fetch(0, 1, 1 << 20, &out)
                  .ok());
  ASSERT_EQ(out.size(), 1u);
  const double latency = out[0].log_append_time - out[0].create_time;
  // One network hop + broker processing: sub-millisecond but positive.
  EXPECT_GT(latency, 0.0);
  EXPECT_LT(latency, 0.01);
}


// ---------------------------------------------------- group coordinator --

TEST_F(ClientTest, JoinGroupAssignsAllPartitionsToSoleMember) {
  KafkaConsumer consumer(&cluster_, "client", "dyn");
  ASSERT_TRUE(consumer.SubscribeDynamic("t").ok());
  sim_.Run(1.0);
  EXPECT_EQ(consumer.assignment().size(), 4u);
  EXPECT_EQ(consumer.rebalances_seen(), 1u);
  EXPECT_EQ(cluster_.GroupSize("dyn", "t"), 1);
}

TEST_F(ClientTest, SecondMemberTriggersRebalanceSplit) {
  KafkaConsumer a(&cluster_, "client", "dyn");
  ASSERT_TRUE(a.SubscribeDynamic("t").ok());
  sim_.Run(1.0);
  KafkaConsumer b(&cluster_, "client", "dyn");
  ASSERT_TRUE(b.SubscribeDynamic("t").ok());
  sim_.Run(2.0);
  EXPECT_EQ(a.assignment().size(), 2u);
  EXPECT_EQ(b.assignment().size(), 2u);
  EXPECT_EQ(a.rebalances_seen(), 2u);
  std::set<int> all;
  for (const auto& tp : a.assignment()) all.insert(tp.partition);
  for (const auto& tp : b.assignment()) all.insert(tp.partition);
  EXPECT_EQ(all.size(), 4u);
}

TEST_F(ClientTest, RebalanceDuringTaskRestartSupersedesOldAssignment) {
  KafkaConsumer a(&cluster_, "client", "dyn");
  ASSERT_TRUE(a.SubscribeDynamic("t").ok());
  sim_.Run(1.0);
  ASSERT_EQ(a.assignment().size(), 4u);
  a.FailAndRestart(2.0);  // down until t=3
  EXPECT_TRUE(a.assignment().empty());
  sim_.Run(1.5);
  KafkaConsumer b(&cluster_, "client", "dyn");
  ASSERT_TRUE(b.SubscribeDynamic("t").ok());
  sim_.Run(4.0);
  // The split adopted while `a` was down stands; the restart does not
  // re-adopt the four partitions it held before the failure.
  EXPECT_EQ(a.assignment().size(), 2u);
  EXPECT_EQ(b.assignment().size(), 2u);
  std::set<int> all;
  for (const auto& tp : a.assignment()) all.insert(tp.partition);
  for (const auto& tp : b.assignment()) all.insert(tp.partition);
  EXPECT_EQ(all.size(), 4u);
}

TEST_F(ClientTest, LeaveGroupHandsPartitionsToSurvivor) {
  KafkaConsumer a(&cluster_, "client", "dyn");
  auto b = std::make_unique<KafkaConsumer>(&cluster_, "client", "dyn");
  ASSERT_TRUE(a.SubscribeDynamic("t").ok());
  ASSERT_TRUE(b->SubscribeDynamic("t").ok());
  sim_.Run(1.0);
  EXPECT_EQ(a.assignment().size(), 2u);
  b->Close();  // leaves the group
  sim_.Run(2.0);
  EXPECT_EQ(cluster_.GroupSize("dyn", "t"), 1);
  EXPECT_EQ(a.assignment().size(), 4u);
}

TEST_F(ClientTest, RebalanceResumesFromCommittedOffsetsAtLeastOnce) {
  KafkaProducer producer(&cluster_, "client");
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(producer.Send("t", MakeRecord(i)).ok());
  }
  producer.Flush();

  KafkaConsumer a(&cluster_, "client", "dyn");
  ASSERT_TRUE(a.SubscribeDynamic("t").ok());
  std::multiset<uint64_t> seen;
  std::function<void(KafkaConsumer*)> drain = [&](KafkaConsumer* c) {
    c->Poll(0.3, [&, c](std::vector<Record> records) {
      for (const Record& r : records) seen.insert(r.batch_id);
      c->CommitPositions();
      if (!c->assignment().empty()) drain(c);
    });
  };
  drain(&a);
  sim_.Run(2.0);
  const size_t before = seen.size();
  EXPECT_GT(before, 0u);

  // A second member joins mid-stream; produce more records afterwards.
  KafkaConsumer b(&cluster_, "client", "dyn");
  ASSERT_TRUE(b.SubscribeDynamic("t").ok());
  sim_.Schedule(0.5, [&]() { drain(&b); });
  sim_.Schedule(1.0, [&]() {
    for (int i = 40; i < 80; ++i) {
      CRAYFISH_CHECK_OK(producer.Send("t", MakeRecord(i)));
    }
    producer.Flush();
  });
  sim_.Run(10.0);
  // Every record id 0..79 delivered at least once.
  for (uint64_t id = 0; id < 80; ++id) {
    EXPECT_GE(seen.count(id), 1u) << "record " << id << " lost";
  }
}

TEST_F(ClientTest, CrashTriggeredRebalanceIsAtLeastOnce) {
  // Crash the group's coordinator broker mid-stream: the dynamic group
  // rebalances, the eager-rebalance offset commit is lost with the
  // coordinator, the crashed broker's partition rejects fetches until
  // restart, and the producer keeps retrying sends into it. At-least-once
  // = every record delivered >= 1 time; the post-crash rewind surfaces as
  // counted duplicates.
  crayfish::RetryPolicy retry;
  retry.max_retries = 8;
  retry.timeout_s = 0.5;
  cluster_.SetClientDefaults(retry, /*auto_commit_interval_s=*/0.0);

  KafkaProducer producer(&cluster_, "client");
  KafkaConsumer consumer(&cluster_, "client", "dyn");
  ASSERT_TRUE(consumer.SubscribeDynamic("t").ok());

  std::multiset<uint64_t> seen;
  std::function<void()> drain = [&]() {
    // Deliberately never commits: with the coordinator down during the
    // crash-triggered rebalance, the eager commit is lost too, so the
    // survivor rewinds to the last durable offsets (none -> earliest).
    consumer.Poll(0.3, [&](std::vector<Record> records) {
      for (const Record& r : records) seen.insert(r.batch_id);
      if (!consumer.assignment().empty()) drain();
    });
  };

  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(producer.Send("t", MakeRecord(i)).ok());
  }
  producer.Flush();
  drain();

  const int coord = cluster_.CoordinatorBroker("dyn");
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
  EXPECT_GT(seen.size(), unique.size()) << "rebalance produced no re-reads";
  EXPECT_GE(consumer.rebalances_seen(), 2u);  // join + crash-triggered
  EXPECT_GT(producer.retries() + consumer.retries(), 0u);
  EXPECT_TRUE(cluster_.IsBrokerUp(coord));  // restarted
}

TEST_F(ClientTest, JoinUnknownTopicFails) {
  KafkaConsumer consumer(&cluster_, "client", "dyn");
  EXPECT_TRUE(consumer.SubscribeDynamic("ghost").IsNotFound());
  EXPECT_TRUE(consumer.SubscribeDynamic("t").ok());
  EXPECT_EQ(consumer.SubscribeDynamic("t").code(),
            crayfish::StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace crayfish::broker
