#include "bench/perf/calibration.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

namespace crayfish::perf {
namespace {

constexpr uint64_t kComputeSteps = 10'000'000;
constexpr size_t kTableWords = size_t{1} << 21;   // 16 MiB
constexpr size_t kArenaEvents = size_t{1} << 14;  // 1 MiB
constexpr size_t kHeapEvents = 4096;
constexpr uint64_t kMemorySteps = 200'000;

// Seconds of each part on the reference host at full speed, and the weight
// of the compute part in HostSpeed. The weight is the one that minimised
// the spread of scaled wall_per_sim_s between runs of pipeline_overload,
// pipeline_observed and cluster_flash_crowd over ten runs each (README.md).
constexpr double kReferenceComputeS = 0.020;
constexpr double kReferenceMemoryS = 0.031;
constexpr double kComputeWeight = 0.4;

uint64_t XorShift(uint64_t x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

HostCalibration::HostCalibration(int lanes)
    : table_(kTableWords), lanes_(static_cast<size_t>(std::max(lanes, 1))) {
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (uint64_t& word : table_) {
    x = XorShift(x);
    word = x;
  }
  for (Lane& lane : lanes_) {
    lane.heap.reserve(kHeapEvents + 1);
    lane.arena.resize(kArenaEvents);
  }
}

size_t HostCalibration::resident_bytes() const {
  size_t bytes = table_.capacity() * sizeof(uint64_t);
  for (const Lane& lane : lanes_) {
    bytes += (lane.heap.capacity() + lane.arena.capacity()) * sizeof(Event);
  }
  return bytes;
}

bool HostCalibration::ChecksumIs(uint64_t checksum) const {
  return std::all_of(lanes_.begin(), lanes_.end(), [checksum](const Lane& l) {
    return l.checksum == checksum;
  });
}

KernelTimes HostCalibration::Run(SpanRecorder* spans) {
  spans->Time("calibrate", [&]() {
    std::vector<std::jthread> others;
    for (size_t i = 1; i < lanes_.size(); ++i) {
      others.emplace_back([this, i]() { RunLane(&lanes_[i]); });
    }
    RunLane(&lanes_.front());
  });  // The other lanes join before the span closes.
  KernelTimes mean;
  for (const Lane& lane : lanes_) {
    mean.compute_s += lane.times.compute_s / static_cast<double>(lanes_.size());
    mean.memory_s += lane.times.memory_s / static_cast<double>(lanes_.size());
  }
  return mean;
}

void HostCalibration::RunLane(Lane* lane) const {
  auto start = std::chrono::steady_clock::now();
  uint64_t h = 1469598103934665603ull;
  for (uint64_t i = 0; i < kComputeSteps; ++i) {
    h ^= i;
    h *= 1099511628211ull;
    h = (h << 7) | (h >> 57);
  }
  lane->times.compute_s = SecondsSince(start);

  // Min-heap on (key, seq), like the simulator's event queue.
  auto later = [](const Event& a, const Event& b) {
    return a.key != b.key ? a.key > b.key : a.seq > b.seq;
  };
  std::vector<Event>& heap = lane->heap;
  std::vector<Event>& arena = lane->arena;
  start = std::chrono::steady_clock::now();
  std::fill(arena.begin(), arena.end(), Event{});
  heap.clear();
  uint64_t x = 88172645463325252ull;
  for (uint64_t i = 0; i < kHeapEvents; ++i) {
    x = XorShift(x);
    Event e;
    e.key = x & 0xfffff;
    e.seq = i;
    heap.push_back(e);
    std::push_heap(heap.begin(), heap.end(), later);
  }
  uint64_t acc = h;
  for (uint64_t step = 0; step < kMemorySteps; ++step) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Event e = heap.back();
    heap.pop_back();
    x = XorShift(x);
    acc += table_[x & (kTableWords - 1)];
    Event& slot = arena[(x >> 40) & (kArenaEvents - 1)];
    acc += slot.payload[0] ^ slot.seq;
    slot = e;
    e.key += 1 + (x & 1023);
    e.seq = kHeapEvents + step;
    e.payload[0] = acc;
    heap.push_back(e);
    std::push_heap(heap.begin(), heap.end(), later);
  }
  lane->times.memory_s = SecondsSince(start);
  lane->checksum = acc;
}

double HostSpeed(const KernelTimes& before, const KernelTimes& after) {
  const double compute_s = 0.5 * (before.compute_s + after.compute_s);
  const double memory_s = 0.5 * (before.memory_s + after.memory_s);
  return std::pow(kReferenceComputeS / compute_s, kComputeWeight) *
         std::pow(kReferenceMemoryS / memory_s, 1.0 - kComputeWeight);
}

}  // namespace crayfish::perf
