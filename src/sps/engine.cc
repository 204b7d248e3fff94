#include "sps/engine.h"

#include <algorithm>

#include "common/fields.h"
#include "common/json.h"
#include "common/logging.h"
#include "obs/registry.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "sps/flink_engine.h"
#include "sps/kafka_streams_engine.h"
#include "sps/ray_engine.h"
#include "sps/spark_engine.h"

namespace crayfish::sps {

StreamEngine::StreamEngine(sim::Simulation* sim, sim::Network* network,
                           broker::KafkaCluster* cluster, EngineConfig config,
                           ScoringConfig scoring)
    : sim_(sim), network_(network), cluster_(cluster),
      config_(std::move(config)), scoring_(std::move(scoring)),
      rng_(sim->ForkRng()) {
  CRAYFISH_CHECK_GT(config_.parallelism, 0);
  if (scoring_.external) {
    CRAYFISH_CHECK(scoring_.server != nullptr)
        << "external scoring requires a server";
  } else {
    CRAYFISH_CHECK(scoring_.library != nullptr)
        << "embedded scoring requires a library";
  }
  if (!network_->HasHost(config_.host)) {
    CRAYFISH_CHECK_OK(network_->AddHost(
        sim::Host{config_.host, /*vcpus=*/64, /*memory_bytes=*/240ULL << 30,
                  scoring_.use_gpu}));
  }
  host_id_ = *network_->FindHost(config_.host);
}

StreamEngine::~StreamEngine() { Stop(); }

crayfish::StatusOr<broker::KafkaConsumer*> StreamEngine::AddConsumer(
    const std::string& group, int share_count, int share_index,
    broker::ConsumerConfig consumer_config) {
  CRAYFISH_ASSIGN_OR_RETURN(broker::TopicId topic,
                            cluster_->FindTopic(config_.input_topic));
  CRAYFISH_ASSIGN_OR_RETURN(int partitions, cluster_->NumPartitions(topic));
  consumers_.push_back(std::make_unique<broker::KafkaConsumer>(
      cluster_, config_.host, group, consumer_config));
  CRAYFISH_RETURN_IF_ERROR(consumers_.back()->Assign(
      config_.input_topic, broker::KafkaCluster::RangeAssign(
                               partitions, share_count, share_index)));
  return consumers_.back().get();
}

OperatorTask* StreamEngine::AddTask(std::string name,
                                    OperatorTask::ProcessFn process,
                                    size_t max_queue) {
  tasks_.push_back(std::make_unique<OperatorTask>(
      sim_, std::move(name), std::move(process), max_queue));
  return tasks_.back().get();
}

void StreamEngine::Stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& consumer : consumers_) consumer->Close();
  for (auto& task : tasks_) task->Stop();
}

EngineTelemetry StreamEngine::Telemetry() const {
  EngineTelemetry t;
  for (const auto& consumer : consumers_) {
    t.consumer_lag += consumer->TotalLag();
    t.max_partition_lag =
        std::max(t.max_partition_lag, consumer->MaxPartitionLag());
    t.queue_depth += static_cast<int64_t>(consumer->buffered());
  }
  for (const auto& task : tasks_) {
    t.queue_depth += static_cast<int64_t>(task->queue_depth());
    t.backpressure_stall_s += task->stall_time_s();
  }
  return t;
}

double StreamEngine::ModelLoadSeconds() const {
  return scoring_.external ? 0.0
                           : scoring_.library->LoadTimeSeconds(scoring_.model);
}

double StreamEngine::StressMultiplier(size_t queue_depth) {
  double gamma;
  double tau_up;
  double tau_down;
  if (scoring_.external) {
    const serving::ExternalCosts& c = scoring_.server->costs();
    gamma = c.stress_gamma;
    tau_up = c.stress_tau_up_s;
    tau_down = c.stress_tau_down_s;
  } else {
    const serving::EmbeddedCosts& c = scoring_.library->costs();
    gamma = c.stress_gamma;
    tau_up = c.stress_tau_up_s;
    tau_down = c.stress_tau_down_s;
  }
  const double now = sim_->Now();
  const double dt = now - stress_updated_at_;
  stress_updated_at_ = now;
  if (queue_depth > 128) {
    stress_ = std::min(1.0, stress_ + dt / tau_up);
  } else {
    stress_ = std::max(0.0, stress_ - dt / tau_down);
  }
  return 1.0 + gamma * stress_;
}

double StreamEngine::SlowDriftFactor() {
  const double sigma = scoring_.external
                           ? scoring_.server->costs().slow_jitter_cv
                           : scoring_.library->costs().slow_jitter_cv;
  if (sigma <= 0.0) return 1.0;
  if (sim_->Now() >= slow_resample_at_) {
    slow_factor_ = rng_.LogNormal(-0.5 * sigma * sigma, sigma);
    // A slow client cannot make the network round trip faster than
    // nominal: external drift is slowdown-only (the mean shift is
    // compensated in the tools' calibrated client overheads).
    if (scoring_.external) slow_factor_ = std::max(1.0, slow_factor_);
    slow_resample_at_ = sim_->Now() + 10.0;
  }
  return slow_factor_;
}

double StreamEngine::WarmupFactor() {
  if (scoring_.external) return 1.0;  // the SPS does no local inference
  const serving::EmbeddedCosts& c = scoring_.library->costs();
  if (c.warmup_duration_s <= 0.0) return 1.0;
  if (first_apply_at_ < 0.0) first_apply_at_ = sim_->Now();
  const double progress =
      (sim_->Now() - first_apply_at_) / c.warmup_duration_s;
  if (progress >= 1.0) return 1.0;
  return c.warmup_factor - (c.warmup_factor - 1.0) * progress;
}

double StreamEngine::EmbeddedApplySeconds(int batch_size,
                                          size_t queue_depth) {
  return StressMultiplier(queue_depth) * SlowDriftFactor() *
         WarmupFactor() *
         scoring_.library->ApplyTimeSeconds(
             scoring_.model, batch_size, EffectiveContentionParallelism(),
             scoring_.use_gpu, queue_depth, &rng_);
}

double StreamEngine::ClientOverheadSeconds() const {
  return scoring_.server->costs().client_overhead_s;
}

void StreamEngine::Score(const broker::Record& record, double pre_s,
                         size_t queue_depth, std::function<void()> done) {
  const uint64_t batch_id = record.batch_id;
  const int batch_size = static_cast<int>(record.batch_size);
  if (scoring_.external) {
    sim_->Schedule(pre_s + ClientOverheadSeconds(),
                   [this, batch_id, batch_size, queue_depth,
                    done = std::move(done)]() mutable {
                     if (stopped_) return;
                     InvokeExternal(batch_id, batch_size, queue_depth,
                                    std::move(done));
                   });
    return;
  }
  MaybeRealApply(record);
  const double service = EmbeddedApplySeconds(batch_size, queue_depth);
  sim_->Schedule(pre_s + service,
                 [this, batch_id, done = std::move(done)]() mutable {
                   if (stopped_) return;
                   TraceMark(batch_id, obs::Stage::kScore);
                   done();
                 });
}

void StreamEngine::InvokeExternal(uint64_t batch_id, int batch_size,
                                  size_t queue_depth,
                                  std::function<void()> done, int attempt,
                                  double multiplier) {
  CRAYFISH_CHECK(scoring_.external);
  if (attempt == 0) {
    // Client-side preparation ends as the request leaves.
    TraceMark(batch_id, obs::Stage::kScore);
    // Stress and slow drift apply to the client-observed round trip: the
    // blocking operator thread holds the connection through GC pauses and
    // serving-side slowdowns alike.
    multiplier = StressMultiplier(queue_depth) * SlowDriftFactor();
  }
  const auto reply = [this, batch_id, multiplier,
                      started = sim_->Now()](std::function<void()> d) {
    sim_->Schedule((multiplier - 1.0) * (sim_->Now() - started),
                   [this, batch_id, d = std::move(d)]() mutable {
                     if (stopped_) return;
                     TraceMark(batch_id, obs::Stage::kServeRpc);
                     d();
                   });
  };
  if (!scoring_.retry.enabled()) {
    scoring_.server->Invoke(
        host_id_, batch_size,
        [reply, done = std::move(done)]() mutable { reply(std::move(done)); });
    return;
  }
  // Whichever of {timeout, reply} fires first settles the attempt; a late
  // reply to an abandoned attempt is ignored.
  struct Attempt {
    bool settled = false;
    std::function<void()> done;
  };
  auto call = std::make_shared<Attempt>(Attempt{false, std::move(done)});
  sim_->Schedule(scoring_.retry.timeout_s, [this, call, batch_id, batch_size,
                                            attempt, multiplier]() {
    if (call->settled) return;
    call->settled = true;
    if (stopped_) return;
    if (attempt < scoring_.retry.max_retries) {
      ++serving_retries_;
      if (obs::MetricsRegistry* reg = sim_->metrics()) {
        reg->Counter("fault_retries", {{"component", "serving-client"}})
            ->Increment(1.0);
      }
      if (obs::TimelineSampler* tl = sim_->timeline()) {
        tl->Count("serving_retries", sim_->Now());
      }
      sim_->Schedule(scoring_.retry.BackoffFor(attempt, &rng_),
                     [this, call, batch_id, batch_size, attempt,
                      multiplier]() {
                       if (stopped_) return;
                       InvokeExternal(batch_id, batch_size, 0,
                                      std::move(call->done), attempt + 1,
                                      multiplier);
                     });
      return;
    }
    // Retry budget exhausted: unblock the operator thread so the record
    // keeps flowing.
    TraceMark(batch_id, obs::Stage::kServeRpc);
    call->done();
  });
  scoring_.server->Invoke(host_id_, batch_size, [reply, call]() {
    if (call->settled) return;
    call->settled = true;
    reply(std::move(call->done));
  });
}

void StreamEngine::TraceMark(uint64_t batch_id, obs::Stage stage) {
  CRAYFISH_TRACE_MARK(sim_, batch_id, stage);
}

void StreamEngine::MaybeRealApply(const broker::Record& record) {
  if (scoring_.external || !record.has_payload() ||
      scoring_.library == nullptr || !scoring_.library->loaded()) {
    return;
  }
  // Parse the CrayfishDataBatch JSON payload into a [batch, ...] tensor.
  const std::string json(record.payload->begin(), record.payload->end());
  auto doc = crayfish::JsonValue::Parse(json);
  CRAYFISH_CHECK(doc.ok()) << doc.status().ToString();
  const crayfish::JsonValue* shape = doc->Find("shape");
  const crayfish::JsonValue* data = doc->Find("data");
  CRAYFISH_CHECK(shape != nullptr && data != nullptr)
      << "payload is not a CrayfishDataBatch";
  std::vector<int64_t> dims;
  dims.push_back(static_cast<int64_t>(record.batch_size));
  for (const crayfish::JsonValue& d : shape->as_array()) {
    dims.push_back(static_cast<int64_t>(d.as_number()));
  }
  std::vector<float> values;
  values.reserve(data->size());
  for (const crayfish::JsonValue& v : data->as_array()) {
    values.push_back(static_cast<float>(v.as_number()));
  }
  tensor::Tensor input(tensor::Shape(std::move(dims)), std::move(values));
  auto out = scoring_.library->Apply(input);
  CRAYFISH_CHECK(out.ok()) << out.status().ToString();
  CRAYFISH_CHECK_EQ(out->shape()[0],
                    static_cast<int64_t>(record.batch_size));
  ++real_inferences_;
}

crayfish::Status StreamEngine::EmitScored(broker::KafkaProducer* producer,
                                          const broker::Record& in) {
  broker::Record out;
  out.batch_id = in.batch_id;
  // The CrayfishDataBatch carries its creation timestamp through the
  // pipeline; the output consumer computes end-to-end latency against the
  // output topic's LogAppendTime (§3.3).
  out.create_time = in.create_time;
  out.batch_size = in.batch_size;
  out.wire_size = scoring_.model.OutputBatchWireBytes(
      static_cast<int>(in.batch_size));
  ++records_emitted_;
  if (!output_topic_) {
    CRAYFISH_ASSIGN_OR_RETURN(output_topic_,
                              cluster_->FindTopic(config_.output_topic));
  }
  return producer->Send(*output_topic_, std::move(out));
}

namespace {

// The cost-model fields a `<engine>.<field>` override may set; every other
// cost stays a calibration constant.
constexpr crayfish::Field<FlinkCosts> kFlinkFields[] = {
    {"buffer_cycle_s", &FlinkCosts::buffer_cycle_s},
    {"async_io", &FlinkCosts::async_io},
    {"async_capacity", &FlinkCosts::async_capacity},
    {"checkpoint_interval_s", &FlinkCosts::checkpoint_interval_s},
    {"checkpoint_stall_s", &FlinkCosts::checkpoint_stall_s},
    {"stage_queue_capacity", &FlinkCosts::stage_queue_capacity},
};

constexpr crayfish::Field<SparkCosts> kSparkFields[] = {
    {"max_offsets_per_trigger", &SparkCosts::max_offsets_per_trigger},
    {"checkpoint_s", &SparkCosts::checkpoint_s},
    {"driver_record_s", &SparkCosts::driver_record_s},
    {"continuous", &SparkCosts::continuous},
};

constexpr crayfish::Field<RayCosts> kRayFields[] = {
    {"py_record_s", &RayCosts::py_record_s},
};

constexpr crayfish::Field<KafkaStreamsCosts> kKafkaStreamsFields[] = {
    {"record_fixed_s", &KafkaStreamsCosts::record_fixed_s},
    {"idle_pickup_s", &KafkaStreamsCosts::idle_pickup_s},
};

/// The engines' cost structs with every override in `overrides` applied.
struct EngineCosts {
  FlinkCosts flink;
  SparkCosts spark;
  RayCosts ray;
  KafkaStreamsCosts kafka_streams;
};

crayfish::StatusOr<EngineCosts> ApplyEngineOverrides(
    const crayfish::Config& overrides) {
  EngineCosts costs;
  for (const auto& [key, text] : overrides.values()) {
    const size_t dot = key.find('.');
    const std::string prefix = key.substr(0, dot);
    const std::string field =
        dot == std::string::npos ? "" : key.substr(dot + 1);
    const crayfish::FieldValue value(text);
    crayfish::Status st = crayfish::Status::InvalidArgument(
        "unknown engine override: " + key +
        " (want flink., spark., ray. or kafka_streams.<field>)");
    if (prefix == "flink") {
      st = SetField(kFlinkFields, "flink", field, value, &costs.flink);
    } else if (prefix == "spark") {
      st = SetField(kSparkFields, "spark", field, value, &costs.spark);
    } else if (prefix == "ray") {
      st = SetField(kRayFields, "ray", field, value, &costs.ray);
    } else if (prefix == "kafka_streams") {
      st = SetField(kKafkaStreamsFields, "kafka_streams", field, value,
                    &costs.kafka_streams);
    }
    CRAYFISH_RETURN_IF_ERROR(st);
  }
  return costs;
}

}  // namespace

crayfish::Status CheckEngineOverrides(const crayfish::Config& overrides) {
  return ApplyEngineOverrides(overrides).status();
}

crayfish::StatusOr<std::unique_ptr<StreamEngine>> CreateEngine(
    const std::string& engine_name, sim::Simulation* sim,
    sim::Network* network, broker::KafkaCluster* cluster,
    EngineConfig config, ScoringConfig scoring) {
  CRAYFISH_ASSIGN_OR_RETURN(EngineCosts costs,
                            ApplyEngineOverrides(config.overrides));
  if (engine_name == "flink") {
    return {std::make_unique<FlinkEngine>(sim, network, cluster,
                                          std::move(config),
                                          std::move(scoring), costs.flink)};
  }
  if (engine_name == "kafka-streams") {
    return {std::make_unique<KafkaStreamsEngine>(
        sim, network, cluster, std::move(config), std::move(scoring),
        costs.kafka_streams)};
  }
  if (engine_name == "spark") {
    return {std::make_unique<SparkEngine>(sim, network, cluster,
                                          std::move(config),
                                          std::move(scoring), costs.spark)};
  }
  if (engine_name == "ray") {
    return {std::make_unique<RayEngine>(sim, network, cluster,
                                        std::move(config),
                                        std::move(scoring), costs.ray)};
  }
  return crayfish::Status::InvalidArgument("unknown engine: " + engine_name);
}

std::vector<std::string> EngineNames() {
  return {"flink", "kafka-streams", "spark", "ray"};
}

}  // namespace crayfish::sps
