#ifndef CRAYFISH_CORE_INPUT_PRODUCER_H_
#define CRAYFISH_CORE_INPUT_PRODUCER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "broker/cluster.h"
#include "broker/producer.h"
#include "core/generator.h"
#include "sim/simulation.h"

namespace crayfish::core {

/// The input-workload producer component (Fig. 1): generates
/// CrayfishDataBatch events according to a rate schedule and writes them
/// to the Kafka input topic, recording the *start* timestamp right before
/// the write (Fig. 3 step 1).
class InputProducer {
 public:
  struct Options {
    std::string client_host = "producer";
    std::string topic = "crayfish-in";
    RateSchedule schedule;
    /// Stop after this many events (0 = unlimited).
    uint64_t max_events = 0;
    /// Stop generating at this simulated time (0 = unlimited).
    double stop_at_s = 0.0;
    /// Per-batch generation cost charged before the send (JSON encode of
    /// the synthetic tensors, ~12 us per sample).
    double generate_per_sample_s = 12e-6;
    /// Materialize real JSON payloads into the records (validation mode:
    /// scoring operators can run true inference on them). Costs host
    /// memory/time; sized-only records are the default.
    bool materialize_payloads = false;
  };

  InputProducer(sim::Simulation* sim, broker::KafkaCluster* cluster,
                DataGenerator generator, Options options);

  /// Starts the generation loop at the current simulated time.
  void Start();
  void Stop() { stopped_ = true; }

  uint64_t events_sent() const { return events_sent_; }
  const Options& options() const { return options_; }

 private:
  void EmitNext();
  sim::Simulation* sim_;
  broker::KafkaCluster* cluster_;
  DataGenerator generator_;
  Options options_;
  std::unique_ptr<broker::KafkaProducer> producer_;
  /// The input topic, resolved on the first send.
  std::optional<broker::TopicId> topic_;
  bool stopped_ = false;
  uint64_t events_sent_ = 0;
  double next_emit_time_ = 0.0;
};

}  // namespace crayfish::core

#endif  // CRAYFISH_CORE_INPUT_PRODUCER_H_
