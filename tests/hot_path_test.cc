// Pins the cost structure of the DES hot path on the reference run and on
// the flash-crowd cluster run: almost every scheduled action must fit
// InlineAction's inline buffer (broker, network and serving events capture
// `{this, slot}`, not payloads), the reference run must schedule exactly
// the events it always has, and tracing it must add almost no heap
// allocations (metric handles and track ids are resolved once, batch
// traces live in flat storage).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/experiment.h"
#include "fault/plan.h"
#include "scale/policy.h"
#include "scale/workload.h"

// Counting replacements of every replaceable global operator new, so a test
// can tell how many heap allocations a piece of work makes. The matching
// operator deletes are replaced too, so every block is freed by the
// allocator that made it.
namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(a, ((size == 0 ? 1 : size) + a - 1) / a * a);
}

void* OrThrow(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return OrThrow(CountedAlloc(n)); }
void* operator new[](std::size_t n) { return OrThrow(CountedAlloc(n)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return OrThrow(CountedAlignedAlloc(n, a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return OrThrow(CountedAlignedAlloc(n, a));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace crayfish::core {
namespace {

constexpr double kMaxHeapShare = 0.05;
/// Heap allocations tracing may add per sent record: the trace store and
/// the span list grow geometrically, and nothing on a per-record,
/// per-request or per-span path allocates.
constexpr double kMaxTracingAllocsPerRecord = 0.1;

double HeapShare(const ExperimentResult& r) {
  return static_cast<double>(r.sim_heap_actions) /
         static_cast<double>(r.sim_events_executed);
}

// flink / tf-serving / ffnn, bsz 4, ir 2000, mp 2, 20 s, drain 0, seed 42:
// the overloaded reference run of the perf workloads.
ExperimentConfig ReferenceConfig() {
  ExperimentConfig cfg;
  cfg.engine = "flink";
  cfg.serving = "tf-serving";
  cfg.model = "ffnn";
  cfg.batch_size = 4;
  cfg.input_rate = 2000.0;
  cfg.parallelism = 2;
  cfg.duration_s = 20.0;
  cfg.drain_s = 0.0;
  cfg.seed = 42;
  return cfg;
}

TEST(HotPathTest, ReferenceRunSchedulesInlineActions) {
  auto r = RunExperiment(ReferenceConfig());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->sim_events_executed, 707723u);
  EXPECT_LT(HeapShare(*r), kMaxHeapShare)
      << r->sim_heap_actions << " of " << r->sim_events_executed
      << " actions spilled";
}

/// Heap allocations made by one RunExperiment call.
uint64_t CountAllocations(const ExperimentConfig& cfg,
                          ExperimentResult* result) {
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  auto r = RunExperiment(cfg);
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (r.ok()) *result = std::move(*r);
  return after - before;
}

// Tracing (trace recorder + metrics registry + breakdown) on the reference
// run: 40,000 batches, 17,971 scored, 273,418 stage marks and a
// track span per serving request and executor item.
TEST(HotPathTest, TracingAddsAlmostNoAllocationsPerRecord) {
  ExperimentResult plain;
  ExperimentResult traced;
  // The traced run goes first, so one-time static initialisation counts
  // against tracing, not for it.
  ExperimentConfig cfg = ReferenceConfig();
  cfg.enable_tracing = true;
  const uint64_t traced_allocs = CountAllocations(cfg, &traced);
  cfg.enable_tracing = false;
  const uint64_t plain_allocs = CountAllocations(cfg, &plain);
  ASSERT_NE(traced.trace, nullptr);
  ASSERT_EQ(traced.trace->batch_count(), 40000u);
  ASSERT_EQ(plain.events_sent, traced.events_sent);
  const double added_per_record =
      (static_cast<double>(traced_allocs) -
       static_cast<double>(plain_allocs)) /
      static_cast<double>(traced.events_sent);
  EXPECT_LE(added_per_record, kMaxTracingAllocsPerRecord)
      << traced_allocs << " allocations traced vs " << plain_allocs
      << " untraced over " << traced.events_sent << " sent records";
}

// examples/configs/workload_flash_crowd.json on a 1000-host fleet with 32
// tenants, the reactive autoscaler, and broker 0 down over [30, 36) s
// with client retries on: producer and consumer retries through the outage.
TEST(HotPathTest, FlashCrowdWithAutoscalerAndBrokerCrash) {
  ExperimentConfig cfg;
  cfg.engine = "flink";
  cfg.serving = "torchserve";
  cfg.model = "ffnn";
  cfg.batch_size = 1;
  cfg.input_rate = 150.0;
  cfg.parallelism = 6;
  cfg.duration_s = 40.0;
  cfg.drain_s = 8.0;
  cfg.timeline_interval_s = 1.0;
  cfg.seed = 42;
  auto workload = scale::WorkloadSpec::FromJsonText(R"({
    "kind": "flash-crowd", "base_rate": 150, "spike_at_s": 12,
    "spike_mult": 6, "ramp_up_s": 2, "hold_s": 10, "decay_s": 4,
    "jitter": 0.1, "seed": 42, "tenants": 32, "tenant_partitions": 8,
    "tenant_rate_factor": 0.05, "fleet_hosts": 1000})");
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  cfg.workload = *workload;
  auto policy = scale::PolicyConfig::FromJsonText(R"({
    "kind": "reactive", "interval_s": 2, "min_replicas": 1,
    "max_replicas": 6, "step": 2, "cooldown_s": 4,
    "scale_in_hysteresis": 3, "scale_up_lag": 60, "scale_down_lag": 5,
    "scale_up_utilization": 0.85, "scale_down_utilization": 0.35})");
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  cfg.autoscaler = *policy;
  auto plan = fault::FaultPlan::FromJsonText(R"({
    "retry": {"max_retries": 10, "timeout_s": 1.0,
              "initial_backoff_s": 0.05, "backoff_multiplier": 2.0,
              "max_backoff_s": 2.0, "jitter": 0.2},
    "auto_commit_interval_s": 1.0,
    "faults": [{"kind": "broker_crash", "name": "crash0", "at_s": 30,
                "until_s": 36, "broker": 0}]})");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  cfg.fault_plan = *plan;
  auto r = RunExperiment(cfg);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->sim_events_executed, 0u);
  EXPECT_LT(HeapShare(*r), kMaxHeapShare)
      << r->sim_heap_actions << " of " << r->sim_events_executed
      << " actions spilled";
}

}  // namespace
}  // namespace crayfish::core
