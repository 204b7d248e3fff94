// Extending Crayfish (§3.2): adding a new stream processor and a new
// embedded serving library without touching the framework.
//
//  * MiniBatchEngine — a toy "Storm-like" SPS that pulls records and
//    scores them in fixed mini-groups. It subclasses sps::StreamEngine and
//    implements the inputOp -> scoringOp -> outputOp contract.
//  * TvmLibrary — a hypothetical embedded compiler-runtime with its own
//    cost profile, subclassing serving::EmbeddedLibrary.
//
// The example wires both into a hand-assembled deployment (the same
// topology core::RunExperiment builds) and benchmarks the new pair
// against the stock Flink + ONNX configuration.
//
// Run: ./custom_adapter

#include <cstdio>
#include <memory>

#include "broker/cluster.h"
#include "broker/consumer.h"
#include "broker/producer.h"
#include "common/logging.h"
#include "core/generator.h"
#include "core/input_producer.h"
#include "core/metrics.h"
#include "core/output_consumer.h"
#include "serving/embedded_library.h"
#include "sim/network.h"
#include "sim/simulation.h"
#include "sps/engine.h"

namespace {

using namespace crayfish;

/// A hypothetical TVM-style embedded runtime: higher load cost (model
/// compilation) but a fast compiled apply path.
class TvmLibrary : public serving::EmbeddedLibrary {
 public:
  TvmLibrary() : EmbeddedLibrary("tvm", MakeCosts()) {}
  model::ModelFormat native_format() const override {
    return model::ModelFormat::kOnnx;  // consumes ONNX exports
  }

 private:
  static serving::EmbeddedCosts MakeCosts() {
    serving::EmbeddedCosts c;
    c.load_fixed_s = 2.0;  // ahead-of-time compilation
    c.ffi_overhead_s = 20e-6;
    c.per_sample_s = {{"ffnn", 40e-6}};
    c.fallback_flops_per_s = 2.0e9;
    c.contention_alpha = 0.03;
    return c;
  }
};

/// A pull-based toy engine that scores records in mini-groups of 4. One
/// consumer thread; the point is the *contract*, not the performance.
class MiniBatchEngine : public sps::StreamEngine {
 public:
  MiniBatchEngine(sim::Simulation* sim, sim::Network* network,
                  broker::KafkaCluster* cluster, sps::EngineConfig config,
                  sps::ScoringConfig scoring)
      : StreamEngine(sim, network, cluster, std::move(config),
                     std::move(scoring)) {}

  const char* name() const override { return "mini-batch"; }

  crayfish::Status Start() override {
    // The base owns the consumer: it reports its lag and closes it on Stop.
    CRAYFISH_ASSIGN_OR_RETURN(consumer_, AddConsumer("mini-batch", 1, 0));
    producer_ = std::make_unique<broker::KafkaProducer>(cluster_,
                                                        config_.host);
    sim_->Schedule(ModelLoadSeconds(), [this]() { PollLoop(); });
    return crayfish::Status::Ok();
  }

 private:
  void PollLoop() {
    if (stopped_) return;
    consumer_->Poll(0.1, [this](std::vector<broker::Record> records) {
      if (stopped_) return;
      if (records.empty()) {
        PollLoop();
        return;
      }
      auto batch = std::make_shared<std::vector<broker::Record>>(
          std::move(records));
      ProcessGroup(batch, 0);
    });
  }

  /// Scores 4 records per apply() call — one FFI hop amortized over the
  /// group (this engine's gimmick).
  void ProcessGroup(std::shared_ptr<std::vector<broker::Record>> records,
                    size_t begin) {
    if (stopped_) return;
    if (begin >= records->size()) {
      PollLoop();
      return;
    }
    const size_t end = std::min(records->size(), begin + 4);
    int samples = 0;
    for (size_t i = begin; i < end; ++i) {
      samples += static_cast<int>((*records)[i].batch_size);
    }
    const double apply = scoring_.library->ApplyTimeSeconds(
        scoring_.model, samples, config_.parallelism, false, 0, &rng_);
    sim_->Schedule(apply + 100e-6, [this, records, begin, end]() {
      if (stopped_) return;
      for (size_t i = begin; i < end; ++i) {
        ++events_scored_;
        CRAYFISH_CHECK_OK(EmitScored(producer_.get(), (*records)[i]));
      }
      ProcessGroup(records, end);
    });
  }

  broker::KafkaConsumer* consumer_ = nullptr;
  std::unique_ptr<broker::KafkaProducer> producer_;
};

/// Hand-assembled deployment around a caller-provided engine.
double MeasureSustainedThroughput(bool use_custom) {
  sim::Simulation sim(17);
  sim::Network network(&sim);
  broker::KafkaCluster cluster(&sim, &network, {});
  CRAYFISH_CHECK_OK(cluster.CreateTopic("crayfish-in", 32));
  CRAYFISH_CHECK_OK(cluster.CreateTopic("crayfish-out", 32));
  CRAYFISH_CHECK_OK(cluster.SetTopicRetention("crayfish-in", 20000));

  std::unique_ptr<serving::EmbeddedLibrary> library;
  if (use_custom) {
    library = std::make_unique<TvmLibrary>();
  } else {
    library = std::move(*serving::CreateEmbeddedLibrary("onnx"));
  }
  sps::ScoringConfig scoring;
  scoring.library = library.get();
  scoring.model = serving::ModelProfile::Ffnn();

  std::unique_ptr<sps::StreamEngine> engine;
  if (use_custom) {
    engine = std::make_unique<MiniBatchEngine>(&sim, &network, &cluster,
                                               sps::EngineConfig{}, scoring);
  } else {
    engine = std::move(*sps::CreateEngine("flink", &sim, &network, &cluster,
                                          {}, scoring));
  }

  core::OutputConsumer output(&sim, &cluster, {});
  core::DataGenerator generator({28, 28}, 1, sim.ForkRng());
  core::InputProducer::Options ip;
  ip.schedule.base_rate = 30000.0;
  ip.stop_at_s = 10.0;
  core::InputProducer producer(&sim, &cluster, std::move(generator), ip);

  CRAYFISH_CHECK_OK(engine->Start());
  output.Start();
  producer.Start();
  sim.Run(11.0);
  engine->Stop();
  output.Stop();
  return core::MetricsAnalyzer::Summarize(output.measurements())
      .throughput_eps;
}

}  // namespace

int main() {
  SetLogLevel(LogLevel::kWarning);
  const double stock = MeasureSustainedThroughput(false);
  const double custom = MeasureSustainedThroughput(true);
  std::printf("stock  flink + onnx          : %8.1f ev/s\n", stock);
  std::printf("custom mini-batch + tvm      : %8.1f ev/s\n", custom);
  std::printf(
      "\nBoth ran through the same Crayfish measurement pipeline — the\n"
      "adapters only implemented the three-operator contract (§3.2).\n");
  return 0;
}
