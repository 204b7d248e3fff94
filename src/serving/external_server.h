#ifndef CRAYFISH_SERVING_EXTERNAL_SERVER_H_
#define CRAYFISH_SERVING_EXTERNAL_SERVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "serving/calibration.h"
#include "serving/model_profile.h"
#include "sim/inline_function.h"
#include "sim/network.h"
#include "sim/resource.h"
#include "sim/simulation.h"
#include "sim/slot_pool.h"

namespace crayfish::obs {
class HistogramMetric;
class MetricsRegistry;
}  // namespace crayfish::obs

namespace crayfish::serving {

struct ExternalServerOptions {
  /// Host name of the serving VM (paper: 16 vCPUs / 60 GB, own machine).
  std::string host = "serving";
  /// Worker threads/processes handling requests (the experiments' mp).
  int workers = 1;
  /// Serve the model on the GPU (Fig. 9 experiments).
  bool use_gpu = false;
  /// Default model the server hosts (more can be added — §7 multi-model).
  ModelProfile model;

  // --- §7 extensions (off by default; the paper's runs use none) ---

  /// Adaptive batching (Clipper/InferLine-style, §7.1): requests are
  /// grouped up to `max_batch` samples or `batch_timeout_s`, then
  /// executed as one amortized inference.
  bool adaptive_batching = false;
  int max_batch = 32;
  double batch_timeout_s = 0.005;
};

/// A standalone model-serving service (TF-Serving / TorchServe /
/// Ray Serve) as a simulated process on its own host.
///
/// Request path:  client --network--> [HTTP proxy (Ray Serve only)] -->
/// worker pool --> (shared intra-op pool | per-worker compute | GPU) -->
/// response --network--> client.
///
/// The worker pool is an M-server queue; the shared intra-op pool and the
/// GPU are single-lane serial resources — these two structural choices
/// reproduce Fig. 7 (TF-Serving flat on ResNet50, TorchServe scaling past
/// it) and Fig. 11 (Ray Serve's proxy ceiling) without per-figure tuning.
class ExternalServingServer {
 public:
  ExternalServingServer(sim::Simulation* sim, sim::Network* network,
                        std::string tool_name, ExternalServerOptions options);

  ExternalServingServer(const ExternalServingServer&) = delete;
  ExternalServingServer& operator=(const ExternalServingServer&) = delete;

  /// Begins model loading; requests arriving before loading completes
  /// queue until the model is ready.
  void Start();

  using OnResponse = sim::InlineFunction<void()>;

  /// Issues one inference RPC from `client` for `batch_size` samples
  /// against the default model. `on_response` fires at the simulated
  /// instant the client receives the response. The caller is responsible
  /// for modeling its own (blocking) thread occupancy (§4.3: all external
  /// calls execute as blocking).
  void Invoke(sim::HostId client, int batch_size, OnResponse on_response);
  /// Resolves `client_host` by name, then invokes as above.
  void Invoke(const std::string& client_host, int batch_size,
              OnResponse on_response);

  /// Multi-model variant (§7: "deploy and serve thousands of models
  /// concurrently"): targets a model registered via DeployModel.
  /// Unknown model names answer with an error flag.
  void InvokeModel(const std::string& client_host,
                   const std::string& model_name, int batch_size,
                   sim::InlineFunction<void(bool ok)> on_response);

  /// Registers (or hot-swaps, bumping the version) a model. The new
  /// version serves after its load time; in-flight requests for the
  /// model keep using the timings of whatever is loaded (§7 model
  /// versioning without redeploying the SPS).
  void DeployModel(const ModelProfile& profile);

  /// Current version of a deployed model (1-based; 0 = unknown).
  int ModelVersion(const std::string& model_name) const;

  /// Re-provisions the worker pool (the serving-side mp knob). A shrink
  /// with requests queued drains them first (ServerPool::Resize).
  void SetWorkers(int workers);
  int workers() const;
  /// Width the pool is converging to (equals workers() unless a shrink is
  /// still draining).
  int target_workers() const;

  // --- fault-injection hooks ---

  /// Straggler injection: multiplies every inference's compute time.
  /// CHECK-fails unless factor > 0; 1.0 restores healthy behaviour.
  void InjectSlowdown(double factor);
  double slowdown_factor() const { return slow_factor_; }

  /// Marks the serving process down (true) or back up (false). While down,
  /// arriving requests are dropped on the floor — the serving client's
  /// timeout/retry machinery is what notices, as with a crashed process
  /// whose host still routes packets.
  void SetServerDown(bool down);
  bool server_down() const { return server_down_; }
  uint64_t requests_dropped() const { return requests_dropped_; }

  const std::string& tool_name() const { return tool_name_; }
  const std::string& host() const { return options_.host; }
  const ExternalCosts& costs() const { return costs_; }
  /// The default model as currently deployed (follows hot swaps).
  const ModelProfile& model() const { return *default_model_; }
  bool ready() const { return ready_; }
  uint64_t requests_served() const { return requests_served_; }
  size_t queue_depth() const;
  /// Cumulative worker-pool busy seconds (monotone); the telemetry
  /// timeline differences this across windows for utilization.
  double worker_busy_seconds() const {
    return workers_ != nullptr ? workers_->busy_seconds() : 0.0;
  }

  /// Writes end-of-run serving metrics (requests served, worker-pool
  /// utilization and queue-wait stats) into `registry`, labeled by tool.
  void PublishMetrics(obs::MetricsRegistry* registry) const;

 private:
  static constexpr uint32_t kNoRequest = ~uint32_t{0};

  /// An in-flight request. Events on its path capture only `{this, slot}`;
  /// the slot returns to the free list when the client receives the
  /// response, or when the request is dropped.
  struct PendingRequest {
    sim::HostId client{};
    /// Points into `models_` (map nodes are stable), so a hot-swap is seen
    /// by requests already in flight, as before.
    const ModelProfile* model = nullptr;
    int batch_size = 1;
    OnResponse on_response;
    /// Next request of the same worker group (adaptive batching), or
    /// kNoRequest.
    uint32_t next = kNoRequest;
    /// Compute seconds of the group this request heads.
    double compute = 0.0;
  };

  uint32_t NewRequest(sim::HostId client, const ModelProfile* model,
                      int batch_size, OnResponse on_response);
  void ReleaseRequest(uint32_t request);
  /// Server-side handling once the request bytes arrive.
  void HandleArrival(uint32_t request);
  /// Adaptive-batching path: queue and flush groups.
  void EnqueueForBatching(uint32_t request);
  void FlushBatch();
  /// Runs the group of requests chained from `head` as one inference.
  void RunGroupOnWorkers(uint32_t head);
  void RespondAll(uint32_t head);
  /// Hands the response to the client and frees the slot.
  void DeliverResponse(uint32_t request);
  double ComputeSeconds(const ModelProfile& model, int batch_size);
  uint64_t RequestWireBytes(const ModelProfile& model,
                            int batch_size) const;
  uint64_t ResponseWireBytes(const ModelProfile& model,
                             int batch_size) const;

  sim::Simulation* sim_;
  sim::Network* network_;
  std::string tool_name_;
  ExternalServerOptions options_;
  sim::HostId host_id_{};
  ExternalCosts costs_;
  crayfish::Rng rng_;
  bool ready_ = false;
  std::unique_ptr<sim::ServerPool> workers_;
  /// Shared single-thread compute pool (TF-Serving intra-op, §4.3).
  std::unique_ptr<sim::SerialExecutor> intra_op_pool_;
  /// Ray Serve's per-node HTTP proxy.
  std::unique_ptr<sim::SerialExecutor> http_proxy_;
  /// The single accelerator on the serving VM.
  std::unique_ptr<sim::SerialExecutor> gpu_;
  uint64_t requests_served_ = 0;
  /// Fault-injected straggler multiplier on compute time (1.0 = healthy).
  double slow_factor_ = 1.0;
  bool server_down_ = false;
  uint64_t requests_dropped_ = 0;
  /// Additional models by name (the default model is always present).
  /// Ordered (lint R3): version sweeps and eviction walk this map during
  /// simulated serving, so iteration order is scheduling-visible.
  std::map<std::string, ModelProfile> models_;
  std::map<std::string, int> model_versions_;
  /// The default model's entry in `models_`.
  const ModelProfile* default_model_ = nullptr;
  sim::SlotPool<PendingRequest> requests_;
  /// Adaptive-batching queue of request slots.
  std::vector<uint32_t> batch_queue_;
  bool batch_timer_armed_ = false;
  uint64_t batches_executed_ = 0;
  /// Lazily resolved total-queue-depth histogram labeled by tool.
  obs::HistogramMetric* depth_hist_ = nullptr;

 public:
  uint64_t batches_executed() const { return batches_executed_; }
};

/// Factory for the three supported tools ("tf-serving" | "torchserve" |
/// "ray-serve").
crayfish::StatusOr<std::unique_ptr<ExternalServingServer>>
CreateExternalServer(sim::Simulation* sim, sim::Network* network,
                     const std::string& tool_name,
                     ExternalServerOptions options);

}  // namespace crayfish::serving

#endif  // CRAYFISH_SERVING_EXTERNAL_SERVER_H_
