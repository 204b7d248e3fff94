#include "bench/perf/probes.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "broker/cluster.h"
#include "broker/consumer.h"
#include "broker/producer.h"
#include "broker/record.h"
#include "serving/external_server.h"
#include "serving/model_profile.h"
#include "sim/network.h"
#include "sim/simulation.h"

namespace crayfish::perf {
namespace {

// Every probe runs its own simulation under one fixed seed: probe inputs are
// sized from the workload's counts, never drawn from --seed.
constexpr uint64_t kProbeSeed = 42;

/// A self-rescheduling event mesh. Each event's capture is the receiver
/// plus five scalars, exactly the 48-byte inline-action limit; until the
/// budget is spent every event schedules one successor 1-1024 us later
/// (an LCG over the capture picks the delay), so the pending depth stays at
/// the seeded width and heap traffic looks like the pipeline's timers.
class KernelMesh {
 public:
  KernelMesh(uint64_t depth, uint64_t events)
      : depth_(std::max<uint64_t>(depth, 1)), budget_(events) {}

  ProbeRun Run(SpanRecorder* spans) {
    const uint64_t width = std::min(depth_, budget_);
    for (uint64_t i = 0; i < width; ++i) {
      Spawn(1e-6 * static_cast<double>(i + 1), i + 1, 0, 0.0, 0.0);
    }
    spawned_ = width;
    ProbeRun run;
    run.wall_s = spans->Time("probe.sim_kernel",
                             [&]() { run.sim_events = sim_.Run(); });
    run.ops = run.sim_events;
    run.ok = run.sim_events == budget_ && fired_ == budget_ && sum_ != 0;
    return run;
  }

 private:
  void Spawn(double at, uint64_t key, uint64_t hops, double acc,
             double last) {
    sim_.ScheduleAt(at, [this, at, key, hops, acc, last]() {
      Fire(at, key, hops, acc, last);
    });
  }

  void Fire(double at, uint64_t key, uint64_t hops, double acc, double last) {
    ++fired_;
    sum_ += key + hops + static_cast<uint64_t>(acc < last);
    if (spawned_ >= budget_) return;
    ++spawned_;
    const uint64_t next =
        key * 6364136223846793005ULL + 1442695040888963407ULL;
    const double delay = 1e-6 * static_cast<double>(1 + (next >> 54));
    Spawn(at + delay, next, hops + 1, acc + delay, at);
  }

  sim::Simulation sim_{kProbeSeed};
  uint64_t depth_;
  uint64_t budget_;
  uint64_t spawned_ = 0;
  uint64_t fired_ = 0;
  uint64_t sum_ = 0;
};

/// Producer -> 4-broker cluster -> consumer. The producer sends a chunk of
/// records every simulated millisecond and flushes; the consumer polls in a
/// loop until it has every record back, then closes so the run goes idle.
class BrokerLoop {
 public:
  static constexpr int kPartitions = 8;
  static constexpr uint64_t kChunk = 64;
  static constexpr double kTickS = 1e-3;

  BrokerLoop(uint64_t record_bytes, uint64_t records)
      : record_bytes_(record_bytes), records_(records) {}

  ProbeRun Run(SpanRecorder* spans) {
    ProbeRun run;
    if (!Setup().ok()) return run;
    sim_.Schedule(0.0, [this]() { Produce(); });
    PollNext();
    // Generous horizon: the run normally goes idle right after the last
    // record is consumed; the bound only stops a stuck probe.
    const double horizon =
        60.0 + kTickS * static_cast<double>(records_ / kChunk + 1);
    run.wall_s = spans->Time("probe.broker",
                             [&]() { run.sim_events = sim_.Run(horizon); });
    run.ops = consumed_;
    run.ok = errors_ == 0 && sent_ == records_ && consumed_ == records_;
    return run;
  }

 private:
  crayfish::Status Setup() {
    CRAYFISH_RETURN_IF_ERROR(network_.AddHost(sim::Host{"probe-producer"}));
    CRAYFISH_RETURN_IF_ERROR(network_.AddHost(sim::Host{"probe-consumer"}));
    CRAYFISH_RETURN_IF_ERROR(cluster_.CreateTopic("probe", kPartitions));
    CRAYFISH_RETURN_IF_ERROR(cluster_.SetTopicRetention("probe", 20000));
    producer_ =
        std::make_unique<broker::KafkaProducer>(&cluster_, "probe-producer");
    consumer_ = std::make_unique<broker::KafkaConsumer>(
        &cluster_, "probe-consumer", "probe");
    std::vector<int> partitions;
    for (int p = 0; p < kPartitions; ++p) partitions.push_back(p);
    return consumer_->Assign("probe", partitions);
  }

  void Produce() {
    for (uint64_t k = 0; k < kChunk && sent_ < records_; ++k) {
      broker::Record record;
      record.batch_id = sent_;
      record.create_time = sim_.Now();
      record.wire_size = record_bytes_;
      if (!producer_->Send("probe", std::move(record)).ok()) ++errors_;
      ++sent_;
    }
    producer_->Flush();
    if (sent_ < records_) sim_.Schedule(kTickS, [this]() { Produce(); });
  }

  void PollNext() {
    consumer_->Poll(0.1, [this](std::vector<broker::Record> records) {
      consumed_ += records.size();
      if (consumed_ >= records_) {
        consumer_->Close();
        return;
      }
      PollNext();
    });
  }

  sim::Simulation sim_{kProbeSeed};
  sim::Network network_{&sim_};
  broker::KafkaCluster cluster_{&sim_, &network_, broker::ClusterConfig{}};
  std::unique_ptr<broker::KafkaProducer> producer_;
  std::unique_ptr<broker::KafkaConsumer> consumer_;
  uint64_t record_bytes_;
  uint64_t records_;
  uint64_t sent_ = 0;
  uint64_t consumed_ = 0;
  uint64_t errors_ = 0;
};

/// Closed-loop client of one external serving tool: `workers` requests in
/// flight, each answer issuing the next request until `requests` are done.
class ServingLoop {
 public:
  ServingLoop(std::string tool, int batch_size, int workers,
              uint64_t requests)
      : tool_(std::move(tool)),
        batch_size_(std::max(batch_size, 1)),
        workers_(std::max(workers, 1)),
        requests_(requests) {}

  ProbeRun Run(SpanRecorder* spans) {
    ProbeRun run;
    if (!network_.AddHost(sim::Host{"probe-client"}).ok()) return run;
    serving::ExternalServerOptions opts;
    opts.workers = workers_;
    opts.model = serving::ModelProfile::ByName("ffnn");
    auto server = serving::CreateExternalServer(&sim_, &network_, tool_,
                                                std::move(opts));
    if (!server.ok()) return run;
    server_ = std::move(server).value();
    server_->Start();
    const uint64_t in_flight =
        std::min<uint64_t>(static_cast<uint64_t>(workers_), requests_);
    for (uint64_t i = 0; i < in_flight; ++i) Issue();
    run.wall_s = spans->Time("probe.serving",
                             [&]() { run.sim_events = sim_.Run(); });
    run.ops = answered_;
    run.ok = answered_ == requests_;
    return run;
  }

 private:
  void Issue() {
    ++issued_;
    server_->Invoke("probe-client", batch_size_, [this]() {
      ++answered_;
      if (issued_ < requests_) Issue();
    });
  }

  sim::Simulation sim_{kProbeSeed};
  sim::Network network_{&sim_};
  std::unique_ptr<serving::ExternalServingServer> server_;
  std::string tool_;
  int batch_size_;
  int workers_;
  uint64_t requests_;
  uint64_t issued_ = 0;
  uint64_t answered_ = 0;
};

}  // namespace

ProbeRun ProbeSimKernel(uint64_t depth, uint64_t events,
                        SpanRecorder* spans) {
  KernelMesh mesh(depth, events);
  return mesh.Run(spans);
}

ProbeRun ProbeBroker(uint64_t record_bytes, uint64_t records,
                     SpanRecorder* spans) {
  BrokerLoop loop(record_bytes, records);
  return loop.Run(spans);
}

ProbeRun ProbeServing(const std::string& tool, int batch_size, int workers,
                      uint64_t requests, SpanRecorder* spans) {
  ServingLoop loop(tool, batch_size, workers, requests);
  return loop.Run(spans);
}

}  // namespace crayfish::perf
