#include "serving/external_server.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "obs/registry.h"

namespace crayfish::serving {

ExternalServingServer::ExternalServingServer(sim::Simulation* sim,
                                             sim::Network* network,
                                             std::string tool_name,
                                             ExternalServerOptions options)
    : sim_(sim), network_(network), tool_name_(std::move(tool_name)),
      options_(std::move(options)), costs_(GetExternalCosts(tool_name_)),
      rng_(sim->ForkRng()) {
  CRAYFISH_CHECK_GT(options_.workers, 0);
  if (!network_->HasHost(options_.host)) {
    CRAYFISH_CHECK_OK(network_->AddHost(
        sim::Host{options_.host, /*vcpus=*/16, /*memory_bytes=*/60ULL << 30,
                  options_.use_gpu}));
  }
  host_id_ = *network_->FindHost(options_.host);
  workers_ = std::make_unique<sim::ServerPool>(
      sim_, tool_name_ + "-workers", options_.workers);
  if (costs_.shared_intra_op_pool) {
    intra_op_pool_ = std::make_unique<sim::SerialExecutor>(
        sim_, tool_name_ + "-intra-op");
  }
  if (costs_.proxy_per_request_s > 0.0) {
    http_proxy_ = std::make_unique<sim::SerialExecutor>(
        sim_, tool_name_ + "-http-proxy");
  }
  if (options_.use_gpu) {
    gpu_ = std::make_unique<sim::SerialExecutor>(sim_, tool_name_ + "-gpu");
  }
}

void ExternalServingServer::Start() {
  const double load =
      costs_.load_fixed_s +
      static_cast<double>(options_.model.weight_bytes) /
          costs_.load_bytes_per_s;
  sim_->Schedule(load, [this]() { ready_ = true; });
}

uint64_t ExternalServingServer::RequestWireBytes(int batch_size) const {
  // gRPC sends the tensor as packed f32 protobuf; HTTP (Ray Serve) ships
  // the JSON body, ~4 bytes per element plus headers.
  const uint64_t per_element =
      costs_.protocol == Protocol::kGrpc ? sizeof(float) : 4;
  return 256 + per_element *
                   static_cast<uint64_t>(options_.model.input_elements) *
                   static_cast<uint64_t>(batch_size);
}

uint64_t ExternalServingServer::ResponseWireBytes(int batch_size) const {
  const uint64_t per_element =
      costs_.protocol == Protocol::kGrpc ? sizeof(float) : 4;
  return 128 + per_element *
                   static_cast<uint64_t>(options_.model.output_elements) *
                   static_cast<uint64_t>(batch_size);
}

uint32_t ExternalServingServer::NewRequest(sim::HostId client, int batch_size,
                                           OnResponse on_response) {
  const uint32_t r = requests_.Acquire();
  PendingRequest& req = requests_[r];
  req.client = client;
  req.batch_size = batch_size;
  req.on_response = std::move(on_response);
  req.next = kNoRequest;
  return r;
}

void ExternalServingServer::ReleaseRequest(uint32_t r) {
  requests_[r].on_response = nullptr;
  requests_.Release(r);
}

void ExternalServingServer::Invoke(const std::string& client_host,
                                   int batch_size, OnResponse on_response) {
  auto client = network_->FindHost(client_host);
  CRAYFISH_CHECK(client.ok()) << client.status().ToString();
  Invoke(*client, batch_size, std::move(on_response));
}

void ExternalServingServer::Invoke(sim::HostId client, int batch_size,
                                   OnResponse on_response) {
  CRAYFISH_CHECK_GT(batch_size, 0);
  const uint32_t r = NewRequest(client, batch_size, std::move(on_response));
  if (!network_->Send(client, host_id_, RequestWireBytes(batch_size),
                      [this, r]() { HandleArrival(r); })) {
    ReleaseRequest(r);
  }
}

void ExternalServingServer::HandleArrival(uint32_t r) {
  if (server_down_) {
    // Crashed serving process: the request vanishes; no response ever
    // leaves the host. Clients notice via their own timeouts.
    ++requests_dropped_;
    ReleaseRequest(r);
    return;
  }
  if (!ready_) {
    // The service is still loading the model: retry shortly (clients
    // observe this as slow first responses).
    sim_->Schedule(0.01, [this, r]() { HandleArrival(r); });
    return;
  }
  if (obs::MetricsRegistry* reg = sim_->metrics()) {
    if (!depth_hist_) {
      depth_hist_ =
          reg->Histogram("serving_queue_depth", {{"tool", tool_name_}});
    }
    depth_hist_->Observe(static_cast<double>(queue_depth()));
  }
  if (http_proxy_ != nullptr) {
    // Ray Serve: one proxy per node forwards every request serially.
    http_proxy_->Post(costs_.proxy_per_request_s, [this, r]() {
      if (options_.adaptive_batching) {
        EnqueueForBatching(r);
      } else {
        RunGroupOnWorkers(r);
      }
    });
    return;
  }
  if (options_.adaptive_batching) {
    EnqueueForBatching(r);
    return;
  }
  RunGroupOnWorkers(r);
}

void ExternalServingServer::EnqueueForBatching(uint32_t r) {
  batch_queue_.push_back(r);
  int samples = 0;
  for (const uint32_t q : batch_queue_) samples += requests_[q].batch_size;
  if (samples >= options_.max_batch) {
    FlushBatch();
    return;
  }
  if (!batch_timer_armed_) {
    batch_timer_armed_ = true;
    sim_->Schedule(options_.batch_timeout_s, [this]() {
      batch_timer_armed_ = false;
      FlushBatch();
    });
  }
}

void ExternalServingServer::FlushBatch() {
  if (batch_queue_.empty()) return;
  // Chain the queued slots into one worker group, in arrival order.
  for (size_t i = 0; i + 1 < batch_queue_.size(); ++i) {
    requests_[batch_queue_[i]].next = batch_queue_[i + 1];
  }
  const uint32_t head = batch_queue_.front();
  batch_queue_.clear();
  RunGroupOnWorkers(head);
}

double ExternalServingServer::ComputeSeconds(int batch_size) {
  const ModelProfile& model = options_.model;
  const double ps = PerSampleSeconds(costs_.per_sample_s,
                                     costs_.fallback_flops_per_s, model);
  double compute = ps * static_cast<double>(batch_size);
  if (options_.use_gpu) {
    const GpuCosts& gc = GetGpuCosts();
    const double transfer_bytes = static_cast<double>(batch_size) *
                                  static_cast<double>(model.input_elements) *
                                  sizeof(float);
    compute = compute / costs_.gpu_speedup + gc.kernel_launch_s +
              transfer_bytes / gc.pcie_bytes_per_s;
  }
  // Overload inflation under deep request queues (burst behaviour);
  // saturates at (1 + beta).
  compute *= 1.0 + costs_.overload_beta *
                       std::min(static_cast<double>(queue_depth()) / 64.0,
                                1.0);
  if (costs_.jitter_cv > 0.0) {
    const double sigma = costs_.jitter_cv;
    compute *= rng_.LogNormal(-0.5 * sigma * sigma, sigma);
  }
  // Fault-injected straggler slowdown (1.0 when healthy).
  compute *= slow_factor_;
  return compute;
}

void ExternalServingServer::RunGroupOnWorkers(uint32_t head) {
  // Worker contention: tools whose workers own their compute (TorchServe
  // processes contend on the host/GIL) inflate the whole service; tools
  // with a shared compute pool only inflate request handling.
  const double contention =
      1.0 + costs_.worker_contention_alpha *
                static_cast<double>(workers_->servers() - 1);
  const double overhead = costs_.server_overhead_s * contention;
  // One amortized inference over the whole group (one per request when
  // batching is off).
  int samples = 0;
  for (uint32_t r = head; r != kNoRequest; r = requests_[r].next) {
    samples += requests_[r].batch_size;
  }
  const double compute = ComputeSeconds(samples);
  ++batches_executed_;

  const bool offload_compute =
      intra_op_pool_ != nullptr || gpu_ != nullptr;
  const double worker_service =
      offload_compute ? overhead : overhead + compute * contention;
  // The group's compute time rides in its head slot, so every closure
  // below is `{this, head}` and fits std::function's inline buffer.
  requests_[head].compute = compute;
  workers_->Submit(worker_service, [this, head](sim::SimTime) {
    const double group_compute = requests_[head].compute;
    if (gpu_ != nullptr) {
      gpu_->Post(group_compute, [this, head]() { RespondAll(head); });
      return;
    }
    if (intra_op_pool_ != nullptr) {
      // §4.3: intra-op parallelism pinned to 1 — all compute serializes on
      // this pool regardless of worker count.
      intra_op_pool_->Post(group_compute,
                           [this, head]() { RespondAll(head); });
      return;
    }
    RespondAll(head);
  });
}

void ExternalServingServer::RespondAll(uint32_t head) {
  for (uint32_t r = head; r != kNoRequest;) {
    PendingRequest& req = requests_[r];
    const uint32_t next = req.next;
    ++requests_served_;
    if (!network_->Send(host_id_, req.client,
                        ResponseWireBytes(req.batch_size),
                        [this, r]() { DeliverResponse(r); })) {
      ReleaseRequest(r);
    }
    r = next;
  }
}

void ExternalServingServer::DeliverResponse(uint32_t r) {
  OnResponse on_response = std::move(requests_[r].on_response);
  ReleaseRequest(r);
  if (on_response) on_response();
}

void ExternalServingServer::SetWorkers(int workers) {
  CRAYFISH_CHECK_GT(workers, 0);
  workers_->Resize(workers);
  options_.workers = workers;
}

int ExternalServingServer::workers() const { return workers_->servers(); }

int ExternalServingServer::target_workers() const {
  return workers_->target_servers();
}

void ExternalServingServer::InjectSlowdown(double factor) {
  CRAYFISH_CHECK_GT(factor, 0.0);
  slow_factor_ = factor;
}

void ExternalServingServer::SetServerDown(bool down) { server_down_ = down; }

size_t ExternalServingServer::queue_depth() const {
  size_t depth = workers_->queue_depth() + batch_queue_.size();
  if (intra_op_pool_ != nullptr) depth += intra_op_pool_->queue_depth();
  if (http_proxy_ != nullptr) depth += http_proxy_->queue_depth();
  if (gpu_ != nullptr) depth += gpu_->queue_depth();
  return depth;
}

void ExternalServingServer::PublishMetrics(
    obs::MetricsRegistry* registry) const {
  if (registry == nullptr) return;
  const obs::MetricLabels labels = {{"tool", tool_name_}};
  registry->Counter("serving_requests_served", labels)
      ->Increment(static_cast<double>(requests_served_));
  auto publish_pool = [&](const char* resource,
                          const sim::UtilizationStats& u) {
    const obs::MetricLabels rl = {{"tool", tool_name_},
                                  {"resource", resource}};
    registry->Gauge("serving_utilization", rl)->Set(u.busy_ratio);
    registry->Gauge("serving_wait_count", rl)
        ->Set(static_cast<double>(u.wait_count));
    registry->Gauge("serving_wait_mean_s", rl)->Set(u.wait_mean_s);
    registry->Gauge("serving_wait_max_s", rl)->Set(u.wait_max_s);
  };
  publish_pool("workers", workers_->UtilizationReport());
  if (intra_op_pool_ != nullptr) {
    publish_pool("intra-op", intra_op_pool_->UtilizationReport());
  }
  if (http_proxy_ != nullptr) {
    publish_pool("http-proxy", http_proxy_->UtilizationReport());
  }
  if (gpu_ != nullptr) publish_pool("gpu", gpu_->UtilizationReport());
}

crayfish::StatusOr<std::unique_ptr<ExternalServingServer>>
CreateExternalServer(sim::Simulation* sim, sim::Network* network,
                     const std::string& tool_name,
                     ExternalServerOptions options) {
  if (!IsExternalTool(tool_name)) {
    return crayfish::Status::InvalidArgument("unknown external tool: " +
                                             tool_name);
  }
  return {std::make_unique<ExternalServingServer>(sim, network, tool_name,
                                                  std::move(options))};
}

}  // namespace crayfish::serving
