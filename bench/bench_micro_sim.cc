// Micro-benchmarks of the simulation substrate itself: how many simulated
// events per wall-clock second the kernel, broker, and full pipelines
// sustain. These document the "whole suite in minutes on a laptop"
// property rather than any paper figure.

#include <benchmark/benchmark.h>

#include "broker/cluster.h"
#include "broker/consumer.h"
#include "broker/producer.h"
#include "common/logging.h"
#include "core/experiment.h"
#include "sim/network.h"
#include "sim/simulation.h"

namespace {

using namespace crayfish;

void BM_SimulationEventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    uint64_t fired = 0;
    for (int i = 0; i < 10000; ++i) {
      sim.Schedule(i * 1e-4, [&fired]() { ++fired; });
    }
    sim.RunUntilIdle();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulationEventDispatch);

void BM_NetworkTransfers(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    sim::Network net(&sim);
    CRAYFISH_CHECK_OK(net.AddHost(sim::Host{"a", 4, 1ULL << 30, false}));
    CRAYFISH_CHECK_OK(net.AddHost(sim::Host{"b", 4, 1ULL << 30, false}));
    const sim::HostId a = *net.FindHost("a");
    const sim::HostId b = *net.FindHost("b");
    for (int i = 0; i < 5000; ++i) {
      net.Send(a, b, 3300, nullptr);
    }
    sim.RunUntilIdle();
    benchmark::DoNotOptimize(net.total_bytes_sent());
  }
  state.SetItemsProcessed(state.iterations() * 5000);
}
BENCHMARK(BM_NetworkTransfers);

void BM_BrokerProduceConsume(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim(1);
    sim::Network net(&sim);
    broker::KafkaCluster cluster(&sim, &net, {});
    CRAYFISH_CHECK_OK(cluster.CreateTopic("t", 8));
    CRAYFISH_CHECK_OK(net.AddHost(sim::Host{"c", 4, 1ULL << 30, false}));
    broker::KafkaProducer producer(&cluster, "c");
    broker::KafkaConsumer consumer(&cluster, "c", "g");
    CRAYFISH_CHECK_OK(consumer.Assign("t", {0, 1, 2, 3, 4, 5, 6, 7}));
    for (int i = 0; i < 2000; ++i) {
      broker::Record r;
      r.batch_id = static_cast<uint64_t>(i);
      r.wire_size = 3300;
      CRAYFISH_CHECK_OK(producer.Send("t", std::move(r)));
    }
    producer.Flush();
    uint64_t received = 0;
    std::function<void()> poll = [&]() {
      consumer.Poll(0.5, [&](std::vector<broker::Record> records) {
        received += records.size();
        if (received < 2000) poll();
      });
    };
    poll();
    sim.Run(30.0);
    CRAYFISH_CHECK_EQ(received, 2000u);
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_BrokerProduceConsume);

void BM_FullPipelineExperiment(benchmark::State& state) {
  // One complete Flink+ONNX experiment: ~2.5k scored events per run.
  for (auto _ : state) {
    core::ExperimentConfig cfg;
    cfg.engine = "flink";
    cfg.serving = "onnx";
    cfg.input_rate = 500.0;
    cfg.duration_s = 5.0;
    cfg.drain_s = 1.0;
    auto r = core::RunExperiment(cfg);
    CRAYFISH_CHECK(r.ok());
    benchmark::DoNotOptimize(r->summary.throughput_eps);
    state.counters["sim_events"] = static_cast<double>(
        r->sim_events_executed);
  }
}
BENCHMARK(BM_FullPipelineExperiment)->Unit(benchmark::kMillisecond);

}  // namespace
