#include "sps/engine.h"

#include <algorithm>

#include "common/json.h"
#include "common/logging.h"
#include "obs/registry.h"  // lint: layering-ok instrumentation hook; obs reads state, never feeds it back
#include "obs/timeline.h"  // lint: layering-ok instrumentation hook; obs reads state, never feeds it back
#include "obs/trace.h"  // lint: layering-ok instrumentation hook; obs reads state, never feeds it back
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
      config_.host, batch_size,
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
  scoring_.server->Invoke(config_.host, batch_size,
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
    dims.push_back(d.as_int());
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
  return producer->Send(config_.output_topic, std::move(out));
}

crayfish::StatusOr<std::unique_ptr<StreamEngine>> CreateEngine(
    const std::string& engine_name, sim::Simulation* sim,
    sim::Network* network, broker::KafkaCluster* cluster,
    EngineConfig config, ScoringConfig scoring) {
  if (engine_name == "flink") {
    return {std::make_unique<FlinkEngine>(sim, network, cluster,
                                          std::move(config),
                                          std::move(scoring))};
  }
  if (engine_name == "kafka-streams") {
    return {std::make_unique<KafkaStreamsEngine>(sim, network, cluster,
                                                 std::move(config),
                                                 std::move(scoring))};
  }
  if (engine_name == "spark") {
    return {std::make_unique<SparkEngine>(sim, network, cluster,
                                          std::move(config),
                                          std::move(scoring))};
  }
  if (engine_name == "ray") {
    return {std::make_unique<RayEngine>(sim, network, cluster,
                                        std::move(config),
                                        std::move(scoring))};
  }
  return crayfish::Status::InvalidArgument("unknown engine: " + engine_name);
}

std::vector<std::string> EngineNames() {
  return {"flink", "kafka-streams", "spark", "ray"};
}

}  // namespace crayfish::sps
