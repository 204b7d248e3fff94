#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "sim/event_queue.h"
#include "sim/inline_function.h"
#include "sim/network.h"
#include "sim/resource.h"
#include "sim/simulation.h"

namespace crayfish::sim {
namespace {

TEST(EventQueueTest, OrdersByTimeThenSequence) {
  EventQueue q;
  std::vector<int> order;
  q.Push(2.0, [&] { order.push_back(2); });
  q.Push(1.0, [&] { order.push_back(1); });
  q.Push(1.0, [&] { order.push_back(11); });  // same time, later seq
  while (!q.empty()) q.Pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 11, 2}));
}

TEST(EventQueueTest, InterleavedPushPopMatchesStableSort) {
  // DES-shaped traffic: every push lands at or after the last popped time,
  // on a coarse grid so equal-time ties are common. The queue grows to
  // about 10k pending events and drains again; its pop order must equal a
  // stable sort of the push sequence by time.
  Rng rng(20240);
  EventQueue q;
  std::vector<double> pushed_at;
  std::vector<uint64_t> fired;
  std::vector<uint64_t> popped_seq;
  double last_popped = 0.0;
  auto push = [&]() {
    const double t =
        last_popped + 0.25 * static_cast<double>(rng.NextUint64(8));
    const uint64_t index = pushed_at.size();
    pushed_at.push_back(t);
    EXPECT_EQ(q.Push(t, [&fired, index] { fired.push_back(index); }), index);
  };
  auto pop = [&]() {
    Event e = q.Pop();
    EXPECT_GE(e.time, last_popped);
    last_popped = e.time;
    popped_seq.push_back(e.seq);
    e.action();
    ASSERT_FALSE(fired.empty());
    EXPECT_EQ(pushed_at[fired.back()], e.time);
  };
  constexpr size_t kDepth = 10000;
  size_t peak = 0;
  while (q.size() < kDepth) {
    // Push-biased growth phase: 3 pushes per pop on average.
    if (q.empty() || rng.NextUint64(4) != 0) {
      push();
    } else {
      pop();
    }
    peak = std::max(peak, q.size());
  }
  while (!q.empty()) {
    // Pop-biased drain phase.
    if (rng.NextUint64(4) == 0) {
      push();
    } else {
      pop();
    }
  }
  EXPECT_GE(peak, kDepth);
  EXPECT_LE(q.slot_capacity(), peak);

  std::vector<uint64_t> expected(pushed_at.size());
  for (uint64_t i = 0; i < expected.size(); ++i) expected[i] = i;
  std::stable_sort(expected.begin(), expected.end(),
                   [&](uint64_t a, uint64_t b) {
                     return pushed_at[a] < pushed_at[b];
                   });
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(popped_seq, expected);
}

/// Per-capture lifecycle counts, indexed by capture id.
struct Lifecycle {
  std::vector<int> invoked;
  std::vector<int> destroyed;
};

/// A callable that counts its invocations and the destruction of its one
/// live instance; moved-from shells count nothing. `kPad` sizes the capture
/// below or above InlineAction::kInlineBytes.
template <size_t kPad>
class CountedAction {
 public:
  CountedAction(Lifecycle* counts, int id) : counts_(counts), id_(id) {}
  CountedAction(CountedAction&& other) noexcept
      : counts_(other.counts_), id_(other.id_) {
    other.id_ = -1;
  }
  CountedAction& operator=(CountedAction&&) = delete;
  CountedAction(const CountedAction&) = delete;
  ~CountedAction() {
    if (id_ >= 0) ++counts_->destroyed[static_cast<size_t>(id_)];
  }
  void operator()() { ++counts_->invoked[static_cast<size_t>(id_)]; }

 private:
  Lifecycle* counts_;
  int id_;
  unsigned char pad_[kPad] = {};
};

using SmallAction = CountedAction<8>;
using LargeAction = CountedAction<InlineAction::kInlineBytes + 16>;
static_assert(sizeof(SmallAction) <= InlineAction::kInlineBytes);
static_assert(sizeof(LargeAction) > InlineAction::kInlineBytes);

InlineAction MakeCounted(Lifecycle* counts, int id) {
  counts->invoked.push_back(0);
  counts->destroyed.push_back(0);
  if (id % 3 == 0) return LargeAction(counts, id);
  return SmallAction(counts, id);
}

TEST(EventQueueTest, EveryCaptureDestroyedOnceInvokedAtMostOnce) {
  Lifecycle counts;
  constexpr int kEvents = 300;
  {
    EventQueue q;
    for (int id = 0; id < kEvents; ++id) {
      q.Push(static_cast<double>((id * 7) % 50), MakeCounted(&counts, id));
    }
    // Invoke a third, drop a third unexecuted, leave a third pending when
    // the queue is destroyed.
    for (int i = 0; i < kEvents / 3; ++i) q.Pop().action();
    for (int i = 0; i < kEvents / 3; ++i) (void)q.Pop();
    EXPECT_EQ(q.size(), static_cast<size_t>(kEvents - 2 * (kEvents / 3)));
  }
  int invoked = 0;
  for (int id = 0; id < kEvents; ++id) {
    EXPECT_LE(counts.invoked[id], 1) << "capture " << id;
    EXPECT_EQ(counts.destroyed[id], 1) << "capture " << id;
    invoked += counts.invoked[id];
  }
  EXPECT_EQ(invoked, kEvents / 3);
}

TEST(SimulationTest, PendingCapturesDestroyedWithTheSimulation) {
  Lifecycle counts;
  constexpr int kEvents = 120;
  {
    Simulation sim;
    for (int id = 0; id < kEvents; ++id) {
      sim.Schedule(static_cast<double>(id % 12), MakeCounted(&counts, id));
    }
    sim.Run(5.5);  // Delays 0..5 fire; 6..11 stay pending.
    EXPECT_EQ(sim.pending_events(), static_cast<size_t>(kEvents / 2));
  }
  for (int id = 0; id < kEvents; ++id) {
    EXPECT_EQ(counts.invoked[id], id % 12 < 6 ? 1 : 0) << "capture " << id;
    EXPECT_EQ(counts.destroyed[id], 1) << "capture " << id;
  }
}

TEST(EventQueueTest, SteadyStateReusesFreedSlots) {
  constexpr size_t kPending = 64;
  EventQueue q;
  auto noop = [] {};
  for (size_t i = 0; i < kPending; ++i) q.Push(static_cast<double>(i), noop);
  EXPECT_EQ(q.slot_capacity(), kPending);
  // Each pop frees the slot the next push takes: a long steady run never
  // grows the slot store past the pending depth.
  for (int i = 0; i < 100000; ++i) {
    const Event e = q.Pop();
    q.Push(e.time + static_cast<double>(kPending), noop);
  }
  EXPECT_EQ(q.size(), kPending);
  EXPECT_EQ(q.slot_capacity(), kPending);
}

TEST(InlineFunctionTest, ReportsHeapSpillsAndForwardsArguments) {
  Lifecycle counts;
  InlineAction large = MakeCounted(&counts, 0);  // ids 0, 3, ... spill
  InlineAction small = MakeCounted(&counts, 1);
  InlineAction empty;
  EXPECT_FALSE(small.on_heap());
  EXPECT_TRUE(large.on_heap());
  EXPECT_FALSE(empty.on_heap());
  // Relocation keeps the storage class.
  InlineAction moved = std::move(large);
  EXPECT_TRUE(moved.on_heap());

  InlineFunction<int(std::vector<int>, int)> sum =
      [base = 10](std::vector<int> v, int extra) {
        int total = base + extra;
        for (int x : v) total += x;
        return total;
      };
  EXPECT_FALSE(sum.on_heap());
  EXPECT_EQ(sum({1, 2, 3}, 4), 20);
  auto owned = std::make_unique<int>(5);
  InlineFunction<int()> move_only = [p = std::move(owned)] { return *p; };
  EXPECT_EQ(move_only(), 5);
}

TEST(SimulationTest, CountsHeapActionsAtScheduleTime) {
  Lifecycle counts;
  Simulation sim;
  for (int id = 0; id < 9; ++id) {
    sim.Schedule(0.1, MakeCounted(&counts, id));  // ids 0, 3, 6 spill
  }
  sim.ScheduleAt(0.2, MakeCounted(&counts, 9));
  sim.ScheduleAt(0.2, MakeCounted(&counts, 10));
  EXPECT_EQ(sim.heap_actions(), 4u);
  sim.RunUntilIdle();
  EXPECT_EQ(sim.heap_actions(), 4u);
  EXPECT_EQ(sim.events_executed(), 11u);
}

TEST(SimulationTest, ClockAdvancesMonotonically) {
  Simulation sim;
  std::vector<double> times;
  sim.Schedule(0.5, [&] { times.push_back(sim.Now()); });
  sim.Schedule(0.1, [&] { times.push_back(sim.Now()); });
  sim.Schedule(0.1, [&] {
    times.push_back(sim.Now());
    sim.Schedule(0.05, [&] { times.push_back(sim.Now()); });
  });
  sim.RunUntilIdle();
  ASSERT_EQ(times.size(), 4u);
  EXPECT_DOUBLE_EQ(times[0], 0.1);
  EXPECT_DOUBLE_EQ(times[1], 0.1);
  EXPECT_DOUBLE_EQ(times[2], 0.15);
  EXPECT_DOUBLE_EQ(times[3], 0.5);
}

TEST(SimulationTest, RunHonorsHorizon) {
  Simulation sim;
  int fired = 0;
  sim.Schedule(1.0, [&] { ++fired; });
  sim.Schedule(3.0, [&] { ++fired; });
  sim.Run(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.Now(), 2.0);  // clock advances to horizon
  sim.Run(4.0);
  EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, NegativeDelayClampsToNow) {
  Simulation sim;
  sim.Schedule(1.0, [&] {
    sim.Schedule(-5.0, [&] { EXPECT_DOUBLE_EQ(sim.Now(), 1.0); });
  });
  sim.RunUntilIdle();
}

TEST(SimulationTest, StopInterruptsRun) {
  Simulation sim;
  int fired = 0;
  sim.Schedule(1.0, [&] {
    ++fired;
    sim.Stop();
  });
  sim.Schedule(2.0, [&] { ++fired; });
  sim.Run(10.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulationTest, DeterministicRngForks) {
  Simulation a(7);
  Simulation b(7);
  EXPECT_EQ(a.ForkRng().NextUint64(), b.ForkRng().NextUint64());
}

TEST(SimulationTest, TimeHelpers) {
  EXPECT_DOUBLE_EQ(FromMillis(250.0), 0.25);
  EXPECT_DOUBLE_EQ(ToMillis(0.25), 250.0);
  EXPECT_DOUBLE_EQ(FromMicros(500.0), 0.0005);
}

// ----------------------------------------------------------- server pool --

TEST(ServerPoolTest, SingleServerSerializesJobs) {
  Simulation sim;
  ServerPool pool(&sim, "p", 1);
  std::vector<double> done_at;
  for (int i = 0; i < 3; ++i) {
    pool.Submit(1.0, [&](SimTime) { done_at.push_back(sim.Now()); });
  }
  sim.RunUntilIdle();
  ASSERT_EQ(done_at.size(), 3u);
  EXPECT_DOUBLE_EQ(done_at[0], 1.0);
  EXPECT_DOUBLE_EQ(done_at[1], 2.0);
  EXPECT_DOUBLE_EQ(done_at[2], 3.0);
  EXPECT_EQ(pool.completed(), 3u);
}

TEST(ServerPoolTest, MultipleServersRunConcurrently) {
  Simulation sim;
  ServerPool pool(&sim, "p", 3);
  std::vector<double> done_at;
  for (int i = 0; i < 3; ++i) {
    pool.Submit(1.0, [&](SimTime) { done_at.push_back(sim.Now()); });
  }
  sim.RunUntilIdle();
  for (double t : done_at) EXPECT_DOUBLE_EQ(t, 1.0);
}

TEST(ServerPoolTest, ReportsQueueWaitTime) {
  Simulation sim;
  ServerPool pool(&sim, "p", 1);
  std::vector<double> waits;
  pool.Submit(2.0, [&](SimTime w) { waits.push_back(w); });
  pool.Submit(1.0, [&](SimTime w) { waits.push_back(w); });
  sim.RunUntilIdle();
  ASSERT_EQ(waits.size(), 2u);
  EXPECT_DOUBLE_EQ(waits[0], 0.0);
  EXPECT_DOUBLE_EQ(waits[1], 2.0);
}

TEST(ServerPoolTest, ResizeGrowDispatchesQueuedJobs) {
  Simulation sim;
  ServerPool pool(&sim, "p", 1);
  std::vector<double> done_at;
  for (int i = 0; i < 4; ++i) {
    pool.Submit(1.0, [&](SimTime) { done_at.push_back(sim.Now()); });
  }
  sim.Schedule(0.5, [&] { pool.Resize(4); });
  sim.RunUntilIdle();
  ASSERT_EQ(done_at.size(), 4u);
  // First at t=1 (started immediately), the rest dispatched at 0.5.
  EXPECT_DOUBLE_EQ(done_at[0], 1.0);
  EXPECT_DOUBLE_EQ(done_at[3], 1.5);
}

TEST(ServerPoolTest, UtilizationReflectsBusyTime) {
  Simulation sim;
  ServerPool pool(&sim, "p", 2);
  pool.Submit(1.0, nullptr);
  pool.Submit(1.0, nullptr);
  sim.Schedule(4.0, [] {});  // extend the run window to 4s
  sim.RunUntilIdle();
  EXPECT_NEAR(pool.Utilization(), 2.0 / 8.0, 1e-9);
}

TEST(ServerPoolTest, UtilizationReportAddsQueueWaitStats) {
  Simulation sim;
  ServerPool pool(&sim, "p", 1);
  pool.Submit(2.0, nullptr);  // runs immediately, wait 0
  pool.Submit(1.0, nullptr);  // waits 2s behind the first
  sim.RunUntilIdle();
  UtilizationStats stats = pool.UtilizationReport();
  EXPECT_DOUBLE_EQ(stats.span_s, 3.0);
  EXPECT_NEAR(stats.busy_ratio, 3.0 / 3.0, 1e-9);
  EXPECT_EQ(stats.wait_count, 2u);
  EXPECT_DOUBLE_EQ(stats.wait_mean_s, 1.0);
  EXPECT_DOUBLE_EQ(stats.wait_max_s, 2.0);
}

TEST(ServerPoolTest, UtilizationReportZeroSpanIsAllZero) {
  Simulation sim;
  ServerPool pool(&sim, "p", 2);
  // No simulated time has elapsed since construction: the span<=0 early
  // return must yield a zero ratio, not NaN.
  UtilizationStats stats = pool.UtilizationReport();
  EXPECT_DOUBLE_EQ(stats.busy_ratio, 0.0);
  EXPECT_DOUBLE_EQ(stats.span_s, 0.0);
  EXPECT_EQ(stats.wait_count, 0u);
  EXPECT_DOUBLE_EQ(pool.Utilization(), 0.0);
}

// -------------------------------------------------------- serial executor --

TEST(SerialExecutorTest, RunsItemsBackToBack) {
  Simulation sim;
  SerialExecutor exec(&sim, "e");
  std::vector<double> done_at;
  exec.Post(1.0, [&] { done_at.push_back(sim.Now()); });
  exec.Post(0.5, [&] { done_at.push_back(sim.Now()); });
  sim.RunUntilIdle();
  ASSERT_EQ(done_at.size(), 2u);
  EXPECT_DOUBLE_EQ(done_at[0], 1.0);
  EXPECT_DOUBLE_EQ(done_at[1], 1.5);
  EXPECT_DOUBLE_EQ(exec.busy_time(), 1.5);
}

TEST(SerialExecutorTest, DeferredDurationComputedAtStart) {
  Simulation sim;
  SerialExecutor exec(&sim, "e");
  double measured = -1.0;
  exec.Post(2.0, nullptr);
  exec.PostDeferred([&] { return sim.Now(); },  // 2.0 when started
                    [&] { measured = sim.Now(); });
  sim.RunUntilIdle();
  EXPECT_DOUBLE_EQ(measured, 4.0);  // started at 2, took 2
}

TEST(SerialExecutorTest, UtilizationReportTracksWaits) {
  Simulation sim;
  SerialExecutor exec(&sim, "e");
  exec.Post(1.0, nullptr);  // starts at 0, wait 0
  exec.Post(0.5, nullptr);  // starts at 1, wait 1
  sim.Schedule(2.0, [] {});  // pad the span to 2s
  sim.RunUntilIdle();
  UtilizationStats stats = exec.UtilizationReport();
  EXPECT_DOUBLE_EQ(stats.span_s, 2.0);
  EXPECT_NEAR(stats.busy_ratio, 1.5 / 2.0, 1e-9);
  EXPECT_EQ(stats.wait_count, 2u);
  EXPECT_DOUBLE_EQ(stats.wait_mean_s, 0.5);
  EXPECT_DOUBLE_EQ(stats.wait_max_s, 1.0);
}

TEST(SerialExecutorTest, UtilizationReportZeroSpanIsAllZero) {
  Simulation sim;
  SerialExecutor exec(&sim, "e");
  UtilizationStats stats = exec.UtilizationReport();
  EXPECT_DOUBLE_EQ(stats.busy_ratio, 0.0);
  EXPECT_DOUBLE_EQ(stats.span_s, 0.0);
}

// ----------------------------------------------------------------- network --

HostId Id(const Network& net, const std::string& name) {
  auto id = net.FindHost(name);
  CRAYFISH_CHECK(id.ok()) << id.status().ToString();
  return *id;
}

TEST(NetworkTest, TransferTimeIsLatencyPlusSerialization) {
  Simulation sim;
  Network net(&sim);
  ASSERT_TRUE(net.AddHost(Host{"a", 4, 1 << 30, false}).ok());
  ASSERT_TRUE(net.AddHost(Host{"b", 4, 1 << 30, false}).ok());
  LinkSpec spec;
  spec.latency_s = 0.01;
  spec.bandwidth_bytes_per_s = 1000.0;
  net.SetLinkSpec("a", "b", spec);
  double delivered = -1.0;
  net.Send(Id(net, "a"), Id(net, "b"), 500, [&] { delivered = sim.Now(); });
  sim.RunUntilIdle();
  EXPECT_NEAR(delivered, 0.01 + 0.5, 1e-9);
}

TEST(NetworkTest, BandwidthSerializesLatencyOverlaps) {
  Simulation sim;
  Network net(&sim);
  ASSERT_TRUE(net.AddHost(Host{"a", 4, 1 << 30, false}).ok());
  ASSERT_TRUE(net.AddHost(Host{"b", 4, 1 << 30, false}).ok());
  LinkSpec spec;
  spec.latency_s = 0.1;
  spec.bandwidth_bytes_per_s = 1000.0;
  net.SetLinkSpec("a", "b", spec);
  std::vector<double> delivered;
  const HostId a = Id(net, "a");
  const HostId b = Id(net, "b");
  net.Send(a, b, 1000, [&] { delivered.push_back(sim.Now()); });
  net.Send(a, b, 1000, [&] { delivered.push_back(sim.Now()); });
  sim.RunUntilIdle();
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_NEAR(delivered[0], 1.1, 1e-9);   // tx [0,1] + latency
  EXPECT_NEAR(delivered[1], 2.1, 1e-9);   // tx [1,2] + latency
}

TEST(NetworkTest, LoopbackIsInstant) {
  Simulation sim;
  Network net(&sim);
  ASSERT_TRUE(net.AddHost(Host{"a", 4, 1 << 30, false}).ok());
  double delivered = -1.0;
  net.Send(Id(net, "a"), Id(net, "a"), 1 << 20,
           [&] { delivered = sim.Now(); });
  sim.RunUntilIdle();
  EXPECT_DOUBLE_EQ(delivered, 0.0);
}

TEST(NetworkTest, DuplicateHostRejected) {
  Simulation sim;
  Network net(&sim);
  ASSERT_TRUE(net.AddHost(Host{"a", 4, 1 << 30, false}).ok());
  EXPECT_TRUE(net.AddHost(Host{"a", 4, 1 << 30, false})
                  .code() == crayfish::StatusCode::kAlreadyExists);
}

TEST(NetworkTest, HostIdsAreDenseInRegistrationOrder) {
  Simulation sim;
  Network net(&sim);
  ASSERT_TRUE(net.AddHost(Host{"zeta"}).ok());
  ASSERT_TRUE(net.AddHost(Host{"alpha"}).ok());
  // A rejected duplicate takes no id.
  EXPECT_EQ(net.AddHost(Host{"zeta"}).code(),
            crayfish::StatusCode::kAlreadyExists);
  ASSERT_TRUE(net.AddHost(Host{"mid"}).ok());
  EXPECT_EQ(Id(net, "zeta"), HostId{0});
  EXPECT_EQ(Id(net, "alpha"), HostId{1});
  EXPECT_EQ(Id(net, "mid"), HostId{2});
  EXPECT_EQ(net.FindHost("nope").status().code(),
            crayfish::StatusCode::kNotFound);
}

TEST(NetworkDeathTest, OutOfRangeHostIdChecks) {
  Simulation sim;
  Network net(&sim);
  ASSERT_TRUE(net.AddHost(Host{"a"}).ok());
  EXPECT_DEATH(net.Send(HostId{0}, HostId{1}, 10, nullptr), "unknown host");
  EXPECT_DEATH(net.Send(HostId{7}, HostId{0}, 10, nullptr), "unknown host");
}

TEST(NetworkTest, DroppedTransferReportsFalseAndDestroysTheCallback) {
  Simulation sim;
  Network net(&sim);
  ASSERT_TRUE(net.AddHost(Host{"a"}).ok());
  ASSERT_TRUE(net.AddHost(Host{"b"}).ok());
  LinkDegradation cut;
  cut.drop = true;
  net.SetDegradation("a", "b", cut);
  auto token = std::make_shared<int>(0);
  bool ran = false;
  EXPECT_FALSE(net.Send(Id(net, "a"), Id(net, "b"), 10,
                        [token, &ran] { ran = true; }));
  EXPECT_EQ(token.use_count(), 1);  // the callback is already gone
  EXPECT_TRUE(net.Send(Id(net, "b"), Id(net, "a"), 10, [&ran] { ran = true; }));
  sim.RunUntilIdle();
  EXPECT_TRUE(ran);
}

TEST(NetworkTest, TotalBytesAccounting) {
  Simulation sim;
  Network net(&sim);
  ASSERT_TRUE(net.AddHost(Host{"a", 4, 1 << 30, false}).ok());
  ASSERT_TRUE(net.AddHost(Host{"b", 4, 1 << 30, false}).ok());
  net.Send(Id(net, "a"), Id(net, "b"), 100, nullptr);
  net.Send(Id(net, "b"), Id(net, "a"), 50, nullptr);
  sim.RunUntilIdle();
  EXPECT_EQ(net.total_bytes_sent(), 150u);
}

TEST(NetworkTest, IdleTransferTimeMatchesDefaults) {
  Simulation sim;
  Network net(&sim);
  ASSERT_TRUE(net.AddHost(Host{"a", 4, 1 << 30, false}).ok());
  ASSERT_TRUE(net.AddHost(Host{"b", 4, 1 << 30, false}).ok());
  const LinkSpec& d = net.default_spec();
  EXPECT_NEAR(net.IdleTransferTime("a", "b", 0), d.latency_s, 1e-12);
  EXPECT_DOUBLE_EQ(net.IdleTransferTime("a", "a", 12345), 0.0);
}

TEST(NetworkTest, PaperPingCalibration) {
  // §4.2: ping (echo) of 3 KB ~= 0.945 ms; 64 KB ~= 1.565 ms. An echo is
  // two transfers and two propagation delays.
  Simulation sim;
  Network net(&sim);
  ASSERT_TRUE(net.AddHost(Host{"a", 4, 1 << 30, false}).ok());
  ASSERT_TRUE(net.AddHost(Host{"b", 4, 1 << 30, false}).ok());
  const double rtt_3k = 2.0 * net.IdleTransferTime("a", "b", 3 * 1024);
  const double rtt_64k = 2.0 * net.IdleTransferTime("a", "b", 64 * 1024);
  EXPECT_NEAR(rtt_3k, 0.000945, 0.0002);
  EXPECT_NEAR(rtt_64k, 0.001565, 0.0003);
}

}  // namespace
}  // namespace crayfish::sim
