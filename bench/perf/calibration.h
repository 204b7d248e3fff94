#ifndef CRAYFISH_BENCH_PERF_CALIBRATION_H_
#define CRAYFISH_BENCH_PERF_CALIBRATION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bench/perf/spans.h"

namespace crayfish::perf {

/// Host seconds of one HostCalibration::Run, by part, averaged over lanes.
struct KernelTimes {
  double compute_s = 0.0;
  double memory_s = 0.0;
};

/// A fixed kernel whose wall time tracks the host's momentary speed.
///
/// On a shared host the simulator's wall time moves with its neighbours'
/// use of the shared cores, caches and memory, by 10-30% over seconds. The
/// kernel has two parts, written without any of the simulator's code and
/// timed apart: a dependent multiply-rotate chain (compute), and the event
/// loop's kind of memory traffic (pop and push a 64-byte-event binary heap,
/// read a random word of a 16 MiB table past the per-core L2, copy each
/// event into a 1 MiB arena). Every call does identical work, so a change
/// of its times is a change of the host, never of the code under test.
///
/// The kernel runs on `lanes` threads at once, one per thread the measured
/// code keeps busy (the sweep pool's width), since two busy threads slow
/// each other down on a shared host. Its buffers are allocated and touched
/// once, in the constructor, so it allocates nothing while it runs and adds
/// a constant `resident_bytes()` to the process's resident set.
class HostCalibration {
 public:
  explicit HostCalibration(int lanes);

  /// Runs the kernel once on every lane inside a span named "calibrate".
  KernelTimes Run(SpanRecorder* spans);

  /// True when every lane's last run produced `checksum`.
  bool ChecksumIs(uint64_t checksum) const;
  /// Lane 0's checksum of the last Run.
  uint64_t checksum() const { return lanes_.front().checksum; }

  /// Bytes of the buffers the kernel keeps resident.
  size_t resident_bytes() const;

 private:
  struct Event {
    uint64_t key = 0;
    uint64_t seq = 0;
    uint64_t payload[6] = {};
  };

  /// One thread's private state; the table is shared and read-only.
  struct Lane {
    std::vector<Event> heap;
    std::vector<Event> arena;
    KernelTimes times;
    uint64_t checksum = 0;
  };

  void RunLane(Lane* lane) const;

  std::vector<uint64_t> table_;
  std::vector<Lane> lanes_;
};

/// The host's speed over an interval that lies between two kernel runs,
/// relative to the reference host (the 4-vCPU Intel Xeon VM of README.md)
/// unslowed by its neighbours: 1 at reference speed, below 1 when slower.
/// It is the weighted geometric mean of the two parts' speeds, 0.4 compute
/// and 0.6 memory, the mix whose slowdowns best track the simulator's on
/// the reference host. A host time t is reported "at reference speed" as
/// t * HostSpeed.
double HostSpeed(const KernelTimes& before, const KernelTimes& after);

}  // namespace crayfish::perf

#endif  // CRAYFISH_BENCH_PERF_CALIBRATION_H_
