#include "core/standalone.h"

#include <deque>
#include <memory>

#include "common/logging.h"
#include "core/generator.h"
#include "serving/calibration.h"
#include "serving/embedded_library.h"
#include "serving/model_profile.h"
#include "sim/simulation.h"
#include "sps/flink_engine.h"

namespace crayfish::core {

namespace {

/// One self-contained Flink slot: a serial loop over its share of the
/// generated events, charging source + apply + sink times.
struct StandaloneSlot {
  std::deque<broker::Record> queue;
  bool busy = false;
};

}  // namespace

crayfish::StatusOr<ExperimentResult> RunStandaloneFlink(
    const ExperimentConfig& config) {
  if (config.engine != "flink" ||
      !serving::IsEmbeddedLibrary(config.serving)) {
    return crayfish::Status::InvalidArgument(
        "standalone mode supports flink with embedded serving only");
  }
  sim::Simulation sim(config.seed);
  const serving::ModelProfile profile =
      serving::ModelProfile::ByName(config.model);
  CRAYFISH_ASSIGN_OR_RETURN(
      std::unique_ptr<serving::EmbeddedLibrary> library,
      serving::CreateEmbeddedLibrary(config.serving));
  crayfish::Rng jitter_rng = sim.ForkRng();

  sps::FlinkCosts costs;  // identical operator costs as the Kafka pipeline
  DataGenerator generator(config.SampleShape(), config.batch_size,
                          sim.ForkRng());
  const uint64_t wire = generator.BatchWireBytes();
  const double generate_s =
      kGenerateSecondsPerSample * static_cast<double>(config.batch_size);

  const int n = config.parallelism;
  std::vector<StandaloneSlot> slots(static_cast<size_t>(n));
  auto measurements = std::make_shared<std::vector<Measurement>>();
  auto scored = std::make_shared<uint64_t>(0);

  // Per-slot serial processing.
  auto process_ptr = std::make_shared<std::function<void(int)>>();
  *process_ptr = [&sim, &slots, &costs, &library, &profile, &config, wire,
                  measurements, scored, process_ptr,
                  &jitter_rng](int slot_idx) {
    StandaloneSlot& slot = slots[static_cast<size_t>(slot_idx)];
    if (slot.queue.empty()) {
      slot.busy = false;
      return;
    }
    slot.busy = true;
    broker::Record r = std::move(slot.queue.front());
    slot.queue.pop_front();
    const double source = costs.SourceSeconds(wire);
    // Flush-wait latency of large records (pure latency, no occupancy —
    // matching the Kafka-based Flink adapter).
    const double buffer_penalty = costs.BufferPenaltySeconds(wire);
    const double apply = library->ApplyTimeSeconds(
        profile, config.batch_size, config.parallelism, config.use_gpu,
        slot.queue.size(), &jitter_rng);
    const double sink =
        costs.SinkSeconds(profile.OutputBatchWireBytes(config.batch_size));
    // Chained mode occupies the slot with the whole operator chain; with
    // operator-level parallelism (Fig. 12 style, source/sink scaled to
    // the partitions) only the scoring stage occupies this task while the
    // source/sink stages add pipeline latency without limiting its rate.
    const bool unchained = config.source_parallelism > 0;
    const double occupancy =
        costs.scoring_wrapper_s + apply + (unchained ? 0.0 : source + sink);
    const double extra_latency =
        buffer_penalty + (unchained ? source + sink : 0.0);
    sim.Schedule(occupancy, [&sim, r, measurements, scored, process_ptr,
                             extra_latency, slot_idx]() {
      Measurement m;
      m.batch_id = r.batch_id;
      m.create_time = r.create_time;
      // End timestamp at the sink itself: no broker append.
      m.append_time = sim.Now() + extra_latency;
      m.batch_size = r.batch_size;
      measurements->push_back(m);
      ++*scored;
      (*process_ptr)(slot_idx);
    });
  };

  // In-process generator loop: round-robins events over the slots.
  auto events_sent = std::make_shared<uint64_t>(0);
  auto gen_state = std::make_shared<double>(0.0);  // next emit time
  auto emit_ptr = std::make_shared<std::function<void()>>();
  *emit_ptr = [&sim, &generator, &slots, &config, gen_state, events_sent,
               generate_s, wire, emit_ptr, process_ptr]() {
    if (config.duration_s > 0.0 && sim.Now() >= config.duration_s) return;
    if (config.max_events > 0 && *events_sent >= config.max_events) return;
    sim.Schedule(generate_s, [&sim, &generator, &slots, &config, gen_state,
                              events_sent, wire, emit_ptr, process_ptr]() {
      CrayfishDataBatch batch = generator.NextMetadataOnly(sim.Now());
      broker::Record r;
      r.batch_id = batch.id;
      r.create_time = batch.created_at;
      r.batch_size = static_cast<uint32_t>(config.batch_size);
      r.wire_size = wire;
      const int target =
          static_cast<int>(batch.id % static_cast<uint64_t>(
                                          config.parallelism));
      StandaloneSlot& slot = slots[static_cast<size_t>(target)];
      slot.queue.push_back(std::move(r));
      if (!slot.busy) (*process_ptr)(target);
      ++*events_sent;
      const double rate = config.Schedule().RateAt(sim.Now());
      *gen_state += 1.0 / rate;
      sim.ScheduleAt(*gen_state, [emit_ptr]() { (*emit_ptr)(); });
    });
  };

  // Model loads into the operators before the job starts.
  const double load = library->LoadTimeSeconds(profile);
  sim.Schedule(load, [emit_ptr, gen_state, &sim]() {
    *gen_state = sim.Now();
    (*emit_ptr)();
  });
  sim.Run(config.duration_s + config.drain_s);
  // Both callbacks capture their own shared_ptr; emptying them breaks the
  // reference cycles so the captured state is freed.
  *process_ptr = nullptr;
  *emit_ptr = nullptr;

  ExperimentResult result;
  result.measurements = *measurements;
  result.summary = MetricsAnalyzer::Summarize(result.measurements);
  result.events_sent = *events_sent;
  result.events_scored = *scored;
  result.sim_end_s = sim.Now();
  result.sim_events_executed = sim.events_executed();
  return result;
}

}  // namespace crayfish::core
