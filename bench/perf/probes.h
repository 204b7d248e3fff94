#ifndef CRAYFISH_BENCH_PERF_PROBES_H_
#define CRAYFISH_BENCH_PERF_PROBES_H_

#include <cstdint>
#include <string>

#include "bench/perf/spans.h"

namespace crayfish::perf {

/// One timed probe run: `ops` operations of one layer driven through its
/// public API in isolation, taking `wall_s` of host time for the simulated
/// run (construction excluded) and executing `sim_events` kernel events.
/// `ok` is false when the layer did not complete every operation.
struct ProbeRun {
  uint64_t ops = 0;
  uint64_t sim_events = 0;
  double wall_s = 0.0;
  bool ok = false;

  double ns_per_op() const {
    return ops == 0 ? 0.0 : wall_s * 1e9 / static_cast<double>(ops);
  }
};

/// Sim kernel: Simulation::ScheduleAt plus Run over `events` events, each
/// carrying a 48-byte capture (the inline-action limit, the size of the
/// pipeline's timer closures), with `depth` events pending throughout.
ProbeRun ProbeSimKernel(uint64_t depth, uint64_t events, SpanRecorder* spans);

/// Broker: KafkaProducer::Send/Flush into an 8-partition topic on the
/// default 4-broker cluster and KafkaConsumer::Poll draining it, for
/// `records` records of `record_bytes` wire bytes each.
ProbeRun ProbeBroker(uint64_t record_bytes, uint64_t records,
                     SpanRecorder* spans);

/// External serving: `requests` ExternalServingServer::Invoke calls of
/// `batch_size` samples against `tool` serving ffnn with `workers` workers,
/// closed loop with `workers` requests in flight.
ProbeRun ProbeServing(const std::string& tool, int batch_size, int workers,
                      uint64_t requests, SpanRecorder* spans);

}  // namespace crayfish::perf

#endif  // CRAYFISH_BENCH_PERF_PROBES_H_
