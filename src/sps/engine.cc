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

crayfish::StatusOr<int> StreamEngine::InputPartitions() const {
  CRAYFISH_ASSIGN_OR_RETURN(broker::TopicId topic,
                            cluster_->FindTopic(config_.input_topic));
  return cluster_->NumPartitions(topic);
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

void StreamEngine::InvokeExternalWithStress(int batch_size,
                                            size_t queue_depth,
                                            std::function<void()> done) {
  CRAYFISH_CHECK(scoring_.external);
  // Stress and slow drift apply to the client-observed round trip: the
  // blocking operator thread holds the connection through GC pauses and
  // serving-side slowdowns alike.
  const double multiplier =
      StressMultiplier(queue_depth) * SlowDriftFactor();
  if (scoring_.retry.enabled()) {
    InvokeExternalAttempt(
        batch_size, multiplier, /*attempt=*/0,
        std::make_shared<std::function<void()>>(std::move(done)));
    return;
  }
  const double started = sim_->Now();
  scoring_.server->Invoke(
      host_id_, batch_size,
      [this, multiplier, started, done = std::move(done)]() mutable {
        const double elapsed = sim_->Now() - started;
        sim_->Schedule((multiplier - 1.0) * elapsed, std::move(done));
      });
}

void StreamEngine::InvokeExternalAttempt(
    int batch_size, double multiplier, int attempt,
    std::shared_ptr<std::function<void()>> done) {
  const crayfish::RetryPolicy& retry = scoring_.retry;
  // Whichever of {timeout, response} fires first settles the attempt; a
  // late response to an already-abandoned attempt is ignored.
  auto settled = std::make_shared<bool>(false);
  const double started = sim_->Now();
  sim_->Schedule(retry.timeout_s, [this, settled, batch_size, multiplier,
                                   attempt, done]() {
    if (*settled) return;
    *settled = true;
    if (!stopped_ && attempt < scoring_.retry.max_retries) {
      ++serving_retries_;
      if (obs::MetricsRegistry* reg = sim_->metrics()) {
        reg->Counter("fault_retries", {{"component", "serving-client"}})
            ->Increment(1.0);
      }
      if (obs::TimelineSampler* tl = sim_->timeline()) {
        tl->Count("serving_retries", sim_->Now());
      }
      sim_->Schedule(scoring_.retry.BackoffFor(attempt, &rng_),
                     [this, batch_size, multiplier, attempt, done]() {
                       if (stopped_) {
                         (*done)();
                         return;
                       }
                       InvokeExternalAttempt(batch_size, multiplier,
                                             attempt + 1, done);
                     });
      return;
    }
    // Teardown or retry budget exhausted: unblock the operator thread so
    // the record keeps flowing (scoring work is lost, the record is not).
    (*done)();
  });
  scoring_.server->Invoke(host_id_, batch_size,
                          [this, settled, multiplier, started, done]() {
                            if (*settled) return;
                            *settled = true;
                            const double elapsed = sim_->Now() - started;
                            sim_->Schedule((multiplier - 1.0) * elapsed,
                                           [done]() { (*done)(); });
                          });
}

void StreamEngine::InvokeExternalWithStress(const broker::Record& record,
                                            size_t queue_depth,
                                            std::function<void()> done) {
  TraceMark(record.batch_id, obs::Stage::kScore);
  const uint64_t batch_id = record.batch_id;
  InvokeExternalWithStress(
      static_cast<int>(record.batch_size), queue_depth,
      [this, batch_id, done = std::move(done)]() mutable {
        TraceMark(batch_id, obs::Stage::kServeRpc);
        done();
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

}  // namespace

crayfish::StatusOr<std::unique_ptr<StreamEngine>> CreateEngine(
    const std::string& engine_name, sim::Simulation* sim,
    sim::Network* network, broker::KafkaCluster* cluster,
    EngineConfig config, ScoringConfig scoring) {
  // Every override is checked, including those for another engine, so a
  // sweep base shared across engines fails on a typo whichever engine runs.
  FlinkCosts flink;
  SparkCosts spark;
  RayCosts ray;
  KafkaStreamsCosts kafka_streams;
  for (const auto& [key, text] : config.overrides.values()) {
    const size_t dot = key.find('.');
    const std::string prefix = key.substr(0, dot);
    const std::string field =
        dot == std::string::npos ? "" : key.substr(dot + 1);
    const crayfish::FieldValue value(text);
    crayfish::Status st = crayfish::Status::InvalidArgument(
        "unknown engine override: " + key +
        " (want flink., spark., ray. or kafka_streams.<field>)");
    if (prefix == "flink") {
      st = SetField(kFlinkFields, "flink", field, value, &flink);
    } else if (prefix == "spark") {
      st = SetField(kSparkFields, "spark", field, value, &spark);
    } else if (prefix == "ray") {
      st = SetField(kRayFields, "ray", field, value, &ray);
    } else if (prefix == "kafka_streams") {
      st = SetField(kKafkaStreamsFields, "kafka_streams", field, value,
                    &kafka_streams);
    }
    CRAYFISH_RETURN_IF_ERROR(st);
  }
  if (engine_name == "flink") {
    return {std::make_unique<FlinkEngine>(sim, network, cluster,
                                          std::move(config),
                                          std::move(scoring), flink)};
  }
  if (engine_name == "kafka-streams") {
    return {std::make_unique<KafkaStreamsEngine>(
        sim, network, cluster, std::move(config), std::move(scoring),
        kafka_streams)};
  }
  if (engine_name == "spark") {
    return {std::make_unique<SparkEngine>(sim, network, cluster,
                                          std::move(config),
                                          std::move(scoring), spark)};
  }
  if (engine_name == "ray") {
    return {std::make_unique<RayEngine>(sim, network, cluster,
                                        std::move(config),
                                        std::move(scoring), ray)};
  }
  return crayfish::Status::InvalidArgument("unknown engine: " + engine_name);
}

std::vector<std::string> EngineNames() {
  return {"flink", "kafka-streams", "spark", "ray"};
}

}  // namespace crayfish::sps
