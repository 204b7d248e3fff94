#include "serving/embedded_library.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "obs/registry.h"

namespace crayfish::serving {

crayfish::Status EmbeddedLibrary::Load(const Bytes& serialized) {
  CRAYFISH_ASSIGN_OR_RETURN(model::ModelFormat format,
                            model::DetectFormat(serialized));
  if (format != native_format()) {
    return crayfish::Status::InvalidArgument(
        name_ + " cannot load " + model::ModelFormatName(format) +
        " models; expected " + model::ModelFormatName(native_format()));
  }
  CRAYFISH_ASSIGN_OR_RETURN(model::ModelGraph graph,
                            model::Deserialize(serialized));
  return LoadGraph(std::move(graph));
}

crayfish::Status EmbeddedLibrary::LoadGraph(model::ModelGraph graph) {
  if (!graph.shapes_inferred()) {
    CRAYFISH_RETURN_IF_ERROR(graph.InferShapes());
  }
  graph_.emplace(std::move(graph));
  executor_ = std::make_unique<model::Executor>(&*graph_);
  return crayfish::Status::Ok();
}

const model::ModelGraph& EmbeddedLibrary::graph() const {
  CRAYFISH_CHECK(loaded());
  return *graph_;
}

crayfish::StatusOr<tensor::Tensor> EmbeddedLibrary::Apply(
    const tensor::Tensor& batch) const {
  if (!loaded()) {
    return crayfish::Status::FailedPrecondition(name_ +
                                                ": no model loaded");
  }
  return executor_->Run(batch);
}

double EmbeddedLibrary::LoadTimeSeconds(const ModelProfile& profile) const {
  return costs_.load_fixed_s +
         static_cast<double>(profile.weight_bytes) / costs_.load_bytes_per_s;
}

double EmbeddedLibrary::ApplyTimeSeconds(const ModelProfile& profile,
                                         int batch_size, double mp,
                                         bool gpu, size_t queue_depth,
                                         crayfish::Rng* rng) const {
  CRAYFISH_CHECK_GT(batch_size, 0);
  CRAYFISH_CHECK_GT(mp, 0.0);
  const double ps = PerSampleSeconds(costs_.per_sample_s,
                                     costs_.fallback_flops_per_s, profile);
  double compute = static_cast<double>(batch_size) * ps;
  if (gpu) {
    const GpuCosts& gc = GetGpuCosts();
    const double transfer_bytes = static_cast<double>(batch_size) *
                                  static_cast<double>(profile.input_elements) *
                                  sizeof(float);
    compute = compute / costs_.gpu_speedup + gc.kernel_launch_s +
              transfer_bytes / gc.pcie_bytes_per_s;
  }

  // Resource-sharing contention with the hosting SPS: service inflates
  // with scoring parallelism. Past max_useful_parallelism the library's
  // internal synchronization serializes extra tasks, so aggregate
  // throughput plateaus.
  double inflation;
  const double max_mp =
      static_cast<double>(costs_.max_useful_parallelism);
  if (max_mp > 0.0 && mp > max_mp) {
    inflation = (mp / max_mp) *
                (1.0 + costs_.contention_alpha * (max_mp - 1.0));
  } else {
    inflation = 1.0 + costs_.contention_alpha * (mp - 1.0);
  }

  // Overload inflation: deep input queues mean allocator/GC pressure.
  // Saturates at (1 + beta) once the queue is substantially backed up.
  const double overload =
      1.0 + costs_.overload_beta *
                std::min(static_cast<double>(queue_depth) / 64.0, 1.0);

  ++simulated_applies_;

  double total = (costs_.ffi_overhead_s + compute) * inflation * overload;
  if (rng != nullptr && costs_.jitter_cv > 0.0) {
    const double sigma = costs_.jitter_cv;
    // Mean-1 lognormal multiplier.
    total *= rng->LogNormal(-0.5 * sigma * sigma, sigma);
  }
  return total;
}

void EmbeddedLibrary::PublishMetrics(obs::MetricsRegistry* registry) const {
  if (registry == nullptr) return;
  registry->Counter("library_simulated_applies", {{"library", name_}})
      ->Increment(static_cast<double>(simulated_applies_));
  registry->Gauge("library_model_loaded", {{"library", name_}})
      ->Set(loaded() ? 1.0 : 0.0);
}

crayfish::StatusOr<std::unique_ptr<EmbeddedLibrary>> CreateEmbeddedLibrary(
    const std::string& name) {
  if (name == "dl4j") return {std::make_unique<Dl4jLibrary>()};
  if (name == "onnx") return {std::make_unique<OnnxRuntimeLibrary>()};
  if (name == "savedmodel") return {std::make_unique<SavedModelLibrary>()};
  return crayfish::Status::InvalidArgument("unknown embedded library: " +
                                           name);
}

}  // namespace crayfish::serving
