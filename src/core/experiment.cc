#include "core/experiment.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>

#include "broker/cluster.h"
#include "common/logging.h"
#include "common/stats.h"
#include "core/dataset.h"
#include "core/input_producer.h"
#include "fault/injector.h"
#include "model/formats.h"
#include "model/graph.h"
#include "serving/calibration.h"
#include "serving/embedded_library.h"
#include "serving/external_server.h"
#include "serving/model_profile.h"
#include "sim/network.h"
#include "sim/simulation.h"
#include "sps/engine.h"

namespace crayfish::core {

std::vector<int64_t> ExperimentConfig::SampleShape() const {
  if (custom_model.has_value()) {
    if (!custom_shape.empty()) return custom_shape;
    return {custom_model->input_elements};
  }
  if (model == "ffnn") return {28, 28};
  if (model == "resnet50") return {224, 224, 3};
  return {serving::ModelProfile::ByName(model).input_elements};
}

RateSchedule ExperimentConfig::Schedule() const {
  RateSchedule s;
  s.base_rate = input_rate;
  s.bursty = bursty;
  s.burst_rate = burst_rate;
  s.burst_duration_s = burst_duration_s;
  s.time_between_bursts_s = time_between_bursts_s;
  s.first_burst_at_s = first_burst_at_s;
  return s;
}

std::string ExperimentConfig::Label() const {
  std::ostringstream os;
  os << engine << "/" << serving << "/" << model << " bsz=" << batch_size
     << " ir=" << input_rate << " mp=" << parallelism;
  if (use_gpu) os << " gpu";
  return os.str();
}

namespace {

// Names of the cluster-scale workload's hosts and topics (scale::WorkloadSpec).
constexpr const char* kFleetHostPrefix = "fleet-";
constexpr const char* kTenantHostPrefix = "tenant-";
constexpr const char* kTenantTopicPrefix = "crayfish-bg-";

}  // namespace

crayfish::StatusOr<ExperimentResult> RunExperiment(
    const ExperimentConfig& config) {
  if (config.batch_size <= 0 || config.parallelism <= 0 ||
      config.input_rate <= 0.0) {
    return crayfish::Status::InvalidArgument(
        "batch_size, parallelism and input_rate must be positive");
  }
  // Every comparison with NaN is false, so the check above lets it through.
  // A run with zero duration and drain is valid: it only builds and tears
  // down the deployment.
  if (!std::isfinite(config.input_rate) || !std::isfinite(config.duration_s) ||
      !std::isfinite(config.drain_s)) {
    return crayfish::Status::InvalidArgument(
        "input_rate, duration_s and drain_s must be finite");
  }
  if (config.duration_s < 0.0 || config.drain_s < 0.0) {
    return crayfish::Status::InvalidArgument(
        "duration_s and drain_s must not be negative");
  }
  const bool external = serving::IsExternalTool(config.serving);
  if (!external && !serving::IsEmbeddedLibrary(config.serving)) {
    return crayfish::Status::InvalidArgument("unknown serving tool: " +
                                             config.serving);
  }
  if (config.validate_real_inference && external) {
    // The external server's math runs out of process; only an embedded
    // library can run the real forward pass inside the scoring operator.
    return crayfish::Status::InvalidArgument(
        "validate_real_inference needs an embedded serving library, not " +
        config.serving);
  }
  const bool autoscaled = config.autoscaler.enabled;
  if (autoscaled) {
    CRAYFISH_RETURN_IF_ERROR(config.autoscaler.Validate());
    if (!external) {
      return crayfish::Status::InvalidArgument(
          "autoscaler requires an external serving tool (embedded "
          "libraries have no worker pool to resize)");
    }
  }
  if (config.workload.enabled) {
    CRAYFISH_RETURN_IF_ERROR(config.workload.Validate());
  }

  sim::Simulation sim(config.seed);

  // Observability is attached before any component is built, so even
  // construction-time activity (topic creation, model loading) is visible
  // to the registry and every hook sees the recorder from the first event.
  const bool faulted = config.fault_plan.active();
  std::shared_ptr<obs::TraceRecorder> trace;
  std::shared_ptr<obs::MetricsRegistry> metrics;
  if (config.enable_tracing) {
    trace = std::make_shared<obs::TraceRecorder>();
    metrics = std::make_shared<obs::MetricsRegistry>();
    sim.AttachObservability(trace.get(), metrics.get());
  } else if (faulted || autoscaled) {
    // Fault runs always carry a registry: the retry counters incremented
    // by producers/consumers/serving clients are the cross-layer channel
    // the recovery scorecard reads. Autoscaled runs carry one for the same
    // reason (the `autoscale_*` metrics and the loss scorecard that proves
    // scale-in dropped nothing). Registry updates are passive, so this
    // does not perturb the run.
    metrics = std::make_shared<obs::MetricsRegistry>();
    sim.AttachObservability(nullptr, metrics.get());
  }

  // Continuous telemetry timeline: active SLOs imply one (1 s default
  // windows). Attached before components like the tracer, and equally
  // passive — the Run loop closes windows on the DES clock without
  // scheduling events, so `sim_events_executed` and all results are
  // byte-identical with the timeline on or off.
  double timeline_interval = config.timeline_interval_s;
  if (timeline_interval <= 0.0 && config.slo.active()) {
    timeline_interval = 1.0;
  }
  const bool timed = timeline_interval > 0.0;
  std::shared_ptr<obs::TimelineSampler> timeline;
  if (timed) {
    timeline = std::make_shared<obs::TimelineSampler>(timeline_interval);
    sim.AttachTimeline(timeline.get());
  }

  sim::Network network(&sim);

  // Kafka cluster (4 brokers, 32-partition topics, LogAppendTime).
  broker::ClusterConfig cluster_config;
  broker::KafkaCluster cluster(&sim, &network, cluster_config);
  if (faulted) {
    // Before any client exists: producers, consumers, and the serving
    // client all inherit the plan's robustness policy at construction.
    CRAYFISH_RETURN_IF_ERROR(config.fault_plan.Validate());
    cluster.SetClientDefaults(config.fault_plan.retry,
                              config.fault_plan.auto_commit_interval_s);
  }
  CRAYFISH_RETURN_IF_ERROR(
      cluster.CreateTopic("crayfish-in", config.topic_partitions));
  CRAYFISH_RETURN_IF_ERROR(
      cluster.CreateTopic("crayfish-out", config.topic_partitions));
  if (config.retention_records > 0) {
    CRAYFISH_RETURN_IF_ERROR(cluster.SetTopicRetention(
        "crayfish-in", config.retention_records));
    CRAYFISH_RETURN_IF_ERROR(cluster.SetTopicRetention(
        "crayfish-out", config.retention_records));
  }

  // Cluster-scale topology (scale::WorkloadSpec): idle fleet hosts plus
  // per-tenant background topics. Links are created on first use and
  // tenant topics allocate per-partition broker state lazily on first
  // produce, so a thousand-host fleet stays cheap to build.
  if (config.workload.enabled) {
    for (int i = 0; i < config.workload.fleet_hosts; ++i) {
      CRAYFISH_RETURN_IF_ERROR(network.AddHost(
          sim::Host{kFleetHostPrefix + std::to_string(i),
                    /*vcpus=*/4, /*memory_bytes=*/15ULL << 30,
                    /*has_gpu=*/false}));
    }
    for (int t = 0; t < config.workload.tenants; ++t) {
      const std::string topic = kTenantTopicPrefix + std::to_string(t);
      CRAYFISH_RETURN_IF_ERROR(
          cluster.CreateTopic(topic, config.workload.tenant_partitions));
      if (config.retention_records > 0) {
        CRAYFISH_RETURN_IF_ERROR(
            cluster.SetTopicRetention(topic, config.retention_records));
      }
    }
  }

  const serving::ModelProfile profile =
      config.custom_model.has_value()
          ? *config.custom_model
          : serving::ModelProfile::ByName(config.model);

  // Serving tool.
  std::unique_ptr<serving::EmbeddedLibrary> library;
  std::unique_ptr<serving::ExternalServingServer> server;
  if (external) {
    serving::ExternalServerOptions opts;
    opts.workers = config.parallelism;
    opts.use_gpu = config.use_gpu;
    opts.model = profile;
    CRAYFISH_ASSIGN_OR_RETURN(
        server, serving::CreateExternalServer(&sim, &network,
                                              config.serving, opts));
  } else {
    CRAYFISH_ASSIGN_OR_RETURN(library,
                              serving::CreateEmbeddedLibrary(config.serving));
    if (config.validate_real_inference) {
      if (config.model != "ffnn") {
        return crayfish::Status::InvalidArgument(
            "validate_real_inference supports model=ffnn");
      }
      // Honest load path: a real pre-trained model serialized in the
      // library's native format, parsed by the library itself.
      model::ModelGraph graph = model::BuildFfnn();
      crayfish::Rng weight_rng(config.seed ^ 0x5eedULL);
      graph.InitializeWeights(&weight_rng);
      CRAYFISH_ASSIGN_OR_RETURN(
          Bytes serialized,
          model::Serialize(graph, library->native_format()));
      CRAYFISH_RETURN_IF_ERROR(library->Load(serialized));
    }
  }

  // Data processor (the SUT).
  sps::EngineConfig engine_config;
  engine_config.parallelism = config.parallelism;
  engine_config.source_parallelism = config.source_parallelism;
  engine_config.sink_parallelism = config.sink_parallelism;
  engine_config.overrides = config.engine_overrides;
  sps::ScoringConfig scoring;
  scoring.external = external;
  scoring.library = library.get();
  scoring.server = server.get();
  scoring.model = profile;
  scoring.use_gpu = config.use_gpu;
  if (faulted && external) scoring.retry = config.fault_plan.retry;
  CRAYFISH_ASSIGN_OR_RETURN(
      std::unique_ptr<sps::StreamEngine> engine,
      sps::CreateEngine(config.engine, &sim, &network, &cluster,
                        engine_config, scoring));

  // Measurement endpoints (outside the SUT, §3.5).
  OutputConsumer::Options oc_opts;
  oc_opts.max_measurements = config.max_measurements;
  OutputConsumer output_consumer(&sim, &cluster, oc_opts);

  std::optional<DataGenerator> generator;
  if (!config.dataset_path.empty()) {
    CRAYFISH_ASSIGN_OR_RETURN(std::vector<CrayfishDataBatch> dataset,
                              LoadDataset(config.dataset_path));
    generator.emplace(std::move(dataset), sim.ForkRng());
  } else {
    generator.emplace(config.SampleShape(), config.batch_size,
                      sim.ForkRng());
  }
  InputProducer::Options ip_opts;
  ip_opts.schedule = config.Schedule();
  if (config.workload.enabled) {
    // Workload shape drives the primary producer's instantaneous rate (a
    // pure function of sim time — see RateSchedule::rate_fn's contract).
    const scale::WorkloadShape shape = config.workload.shape;
    ip_opts.schedule.rate_fn = [shape](double t) { return shape.RateAt(t); };
  }
  ip_opts.max_events = config.max_events;
  ip_opts.stop_at_s = config.duration_s;
  ip_opts.materialize_payloads = config.validate_real_inference;
  InputProducer producer(&sim, &cluster, std::move(*generator), ip_opts);

  // Background tenants: each gets its own producer host and topic, pushing
  // the shared shape scaled by tenant_rate_factor. They load the brokers
  // and the network, not the scored pipeline (no consumer reads them), so
  // `result.events_sent` stays the primary producer's count.
  std::vector<std::unique_ptr<InputProducer>> tenant_producers;
  if (config.workload.enabled) {
    for (int t = 0; t < config.workload.tenants; ++t) {
      InputProducer::Options topts;
      topts.client_host = kTenantHostPrefix + std::to_string(t);
      topts.topic = kTenantTopicPrefix + std::to_string(t);
      const scale::WorkloadShape shape = config.workload.shape;
      const double factor = config.workload.tenant_rate_factor;
      topts.schedule.rate_fn = [shape, factor](double t_s) {
        return shape.RateAt(t_s) * factor;
      };
      topts.stop_at_s = config.duration_s;
      tenant_producers.push_back(std::make_unique<InputProducer>(
          &sim, &cluster,
          DataGenerator(config.SampleShape(), config.batch_size,
                        sim.ForkRng()),
          topts));
    }
  }

  // Fault schedule: armed after every component exists (hooks bind to the
  // live server), before the first simulated event.
  fault::RecoveryTracker tracker;
  std::optional<fault::FaultInjector> injector;
  if (faulted) {
    injector.emplace(&sim, &network, &cluster, &tracker,
                     &config.fault_plan);
    fault::FaultHooks hooks;
    if (server != nullptr) {
      serving::ExternalServingServer* srv = server.get();
      hooks.serving_slowdown = [srv](double factor) {
        srv->InjectSlowdown(factor);
      };
      hooks.serving_down = [srv](bool down) { srv->SetServerDown(down); };
    }
    injector->set_hooks(std::move(hooks));
    // A zero-length run (duration and drain 0) only builds and tears down
    // the deployment, which is how crayfish_perf times set-up: no fault of
    // any plan could fire, so no horizon applies.
    const double horizon = config.duration_s + config.drain_s;
    CRAYFISH_RETURN_IF_ERROR(injector->Arm(
        horizon > 0.0 ? horizon : std::numeric_limits<double>::infinity()));
  }

  // Elastic autoscaler: all ticks are pre-scheduled here, before the first
  // simulated event.
  std::optional<scale::Autoscaler> autoscaler;
  if (autoscaled) {
    serving::ExternalServingServer* srv = server.get();
    scale::ResizeHooks hooks;
    // The loop reasons about the *target* width: during a scale-in drain
    // the pool converges to the pending target, and basing decisions on it
    // keeps the loop from re-issuing the same shrink every tick.
    hooks.current_replicas = [srv]() { return srv->target_workers(); };
    hooks.set_replicas = [srv](int n) { srv->SetWorkers(n); };

    // Busy-second deltas between consecutive ticks, which execute in
    // strict time order.
    struct SamplerState {
      double prev_t = 0.0;
      double prev_busy = 0.0;
    };
    auto state = std::make_shared<SamplerState>();
    sps::StreamEngine* eng = engine.get();
    auto sampler = [srv, eng, state](double now_s) {
      scale::PolicyInput in;
      in.total_lag = static_cast<double>(eng->Telemetry().consumer_lag);
      const double busy = srv->worker_busy_seconds();
      const double dt = now_s - state->prev_t;
      if (dt > 0.0) {
        const int width = std::max(1, srv->workers());
        in.utilization = std::clamp(
            (busy - state->prev_busy) / (dt * width), 0.0, 1.0);
      }
      state->prev_t = now_s;
      state->prev_busy = busy;
      return in;
    };
    autoscaler.emplace(&sim, config.serving, config.autoscaler,
                       std::move(hooks), std::move(sampler));
    CRAYFISH_RETURN_IF_ERROR(
        autoscaler->Arm(config.duration_s + config.drain_s));
  }

  // Timeline probes are registered centrally, over objects owned by this
  // frame (they all outlive sim.Run), and are strictly read-only.
  if (timed) {
    sim::Simulation* sim_ptr = &sim;
    timeline->AddProbe("sim_event_queue", obs::ProbeKind::kGauge,
                       [sim_ptr]() {
                         return static_cast<double>(sim_ptr->pending_events());
                       });
    sps::StreamEngine* eng = engine.get();
    timeline->AddProbe("consumer_lag", obs::ProbeKind::kGauge, [eng]() {
      return static_cast<double>(eng->Telemetry().consumer_lag);
    });
    timeline->AddProbe("max_partition_lag", obs::ProbeKind::kGauge, [eng]() {
      return static_cast<double>(eng->Telemetry().max_partition_lag);
    });
    timeline->AddProbe("sps_queue_depth", obs::ProbeKind::kGauge, [eng]() {
      return static_cast<double>(eng->Telemetry().queue_depth);
    });
    timeline->AddProbe("engine_stall_s", obs::ProbeKind::kCumulative,
                       [eng]() {
                         return eng->Telemetry().backpressure_stall_s;
                       });
    if (server != nullptr) {
      serving::ExternalServingServer* srv = server.get();
      timeline->AddProbe("serving_queue_depth", obs::ProbeKind::kGauge,
                         [srv]() {
                           return static_cast<double>(srv->queue_depth());
                         });
      timeline->AddProbe("serving_workers", obs::ProbeKind::kGauge, [srv]() {
        return static_cast<double>(srv->workers());
      });
      timeline->AddProbe("serving_busy_s", obs::ProbeKind::kCumulative,
                         [srv]() { return srv->worker_busy_seconds(); });
    }
  }

  if (server != nullptr) server->Start();
  CRAYFISH_RETURN_IF_ERROR(engine->Start());
  output_consumer.Start();
  producer.Start();
  for (std::unique_ptr<InputProducer>& tp : tenant_producers) tp->Start();

  sim.Run(config.duration_s + config.drain_s);

  // Close the trailing timeline window while every probed component is
  // still live; feeds arriving during teardown are ignored.
  if (timed) timeline->Finalize(sim.Now());

  engine->Stop();
  producer.Stop();
  for (std::unique_ptr<InputProducer>& tp : tenant_producers) tp->Stop();
  output_consumer.Stop();

  ExperimentResult result;
  result.measurements = output_consumer.measurements();
  result.summary = MetricsAnalyzer::Summarize(result.measurements);
  if (config.bursty) {
    result.recoveries = MetricsAnalyzer::BurstRecoveryTimes(
        result.measurements, ip_opts.schedule, sim.Now());
  }
  result.events_sent = producer.events_sent();
  result.events_scored = engine->events_scored();
  result.real_inferences = engine->real_inferences();
  result.sim_end_s = sim.Now();
  result.sim_events_executed = sim.events_executed();
  result.sim_heap_actions = sim.heap_actions();
  if (timed) {
    result.timeline = timeline;
    if (config.slo.active()) {
      CRAYFISH_RETURN_IF_ERROR(
          obs::SloMonitor::CheckMetrics(config.slo, *timeline));
      result.slo_report = obs::SloMonitor::Evaluate(config.slo, *timeline);
      result.has_slo_report = true;
      // SLO verdicts ride on the registry when one exists (or is created
      // for them) and on the trace's instant track when tracing.
      if (metrics == nullptr) {
        metrics = std::make_shared<obs::MetricsRegistry>();
      }
      obs::SloMonitor::PublishMetrics(result.slo_report, metrics.get());
      obs::SloMonitor::AnnotateTrace(result.slo_report, trace.get());
      if (!config.enable_tracing && !faulted) result.metrics = metrics;
    }
    sim.AttachTimeline(nullptr);
  }
  if (autoscaled) {
    result.autoscale = autoscaler->Summary();
    result.has_autoscale = true;
  }
  if (faulted || autoscaled) {
    // The loss scorecard covers autoscaled runs too: scale-in must drain,
    // never drop, and the `fault_metrics.lost` field is how tests and the
    // demand-metric runner assert that.
    for (const Measurement& m : result.measurements) {
      tracker.RecordDelivery(m.batch_id, m.append_time);
    }
    result.fault_metrics =
        tracker.Finalize(result.events_sent, sim.Now());
    for (const char* component : {"producer", "consumer", "serving-client"}) {
      result.fault_metrics.retries += static_cast<uint64_t>(
          metrics->Counter("fault_retries", {{"component", component}})
              ->value());
    }
    fault::RecoveryTracker::PublishMetrics(result.fault_metrics,
                                           metrics.get());
    result.has_fault_metrics = true;
    result.metrics = metrics;
    if (!config.enable_tracing) sim.AttachObservability(nullptr, nullptr);
  }
  if (config.enable_tracing) {
    // End-of-run gauges/counters from the serving side, then detach so
    // the recorder outlives the simulation safely.
    if (server != nullptr) server->PublishMetrics(metrics.get());
    if (library != nullptr) library->PublishMetrics(metrics.get());
    result.breakdown =
        BreakdownAnalyzer::Compute(*trace, result.measurements);
    result.trace = std::move(trace);
    result.metrics = std::move(metrics);
    sim.AttachObservability(nullptr, nullptr);
  }
  return result;
}

namespace {
Aggregate AggregateMetric(const std::vector<ExperimentResult>& results,
                          double (*metric)(const ExperimentResult&)) {
  crayfish::RunningStats stats;
  for (const ExperimentResult& r : results) stats.Add(metric(r));
  return Aggregate{stats.mean(), stats.stddev()};
}
}  // namespace

Aggregate AggregateThroughput(const std::vector<ExperimentResult>& results) {
  return AggregateMetric(results, [](const ExperimentResult& r) {
    return r.summary.throughput_eps;
  });
}

Aggregate AggregateLatencyMean(const std::vector<ExperimentResult>& results) {
  return AggregateMetric(results, [](const ExperimentResult& r) {
    return r.summary.latency_mean_ms;
  });
}

}  // namespace crayfish::core
