#ifndef CRAYFISH_CORE_GENERATOR_H_
#define CRAYFISH_CORE_GENERATOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "core/data_batch.h"
#include "tensor/tensor.h"

namespace crayfish::core {

/// Input-rate schedule (Table 1): constant rate, or periodic bursts of
/// `burst_rate` for `burst_duration_s` separated by `time_between_bursts_s`
/// at `base_rate`.
struct RateSchedule {
  double base_rate = 1.0;  ///< events/s (ir)
  bool bursty = false;
  double burst_rate = 0.0;          ///< events/s during a burst
  double burst_duration_s = 30.0;   ///< bd
  double time_between_bursts_s = 120.0;  ///< tbb
  /// Offset of the first burst from t=0 (lets the warmup window pass).
  double first_burst_at_s = 120.0;

  /// Workload-shape override: when set, RateAt delegates to this function
  /// of simulated time (scale::WorkloadShape plugs in here). Must stay
  /// strictly positive and be a pure function of t — the producer divides
  /// by it, and purity is what keeps shaped runs thread-count independent.
  std::function<double(double)> rate_fn;

  /// Instantaneous target rate at time t.
  double RateAt(double t) const;
  /// True when t falls inside a burst window.
  bool InBurst(double t) const;
};

/// Simulated cost of generating one sample before its send: the JSON
/// encode of the synthetic tensors, ~12 us per sample.
inline constexpr double kGenerateSecondsPerSample = 12e-6;

/// Synthetic tensor-like data generator (§4.1): produces batches of
/// user-defined shape with uniform random content. Content is irrelevant
/// to inference cost, so by default only batch *metadata* is materialized
/// and the payload size is accounted analytically; set
/// `materialize_payload` to build real JSON payloads (tests, examples,
/// real-inference runs).
class DataGenerator {
 public:
  /// Synthetic mode: batches of `batch_size` samples of `sample_shape`.
  DataGenerator(std::vector<int64_t> sample_shape, int batch_size,
                crayfish::Rng rng);

  /// Real-dataset mode (§3.1): replays the given batches cyclically,
  /// re-stamping ids and creation timestamps. All batches must share
  /// shape and batch size (see core::LoadDataset). Wire sizes come from
  /// the batches' actual JSON serialization.
  DataGenerator(std::vector<CrayfishDataBatch> dataset, crayfish::Rng rng);

  /// Next batch with metadata only (data empty; wire size accounted).
  CrayfishDataBatch NextMetadataOnly(double created_at);
  /// Next batch with real content (random in synthetic mode; the dataset
  /// sample in replay mode).
  CrayfishDataBatch NextMaterialized(double created_at);

  /// JSON wire size of one batch from this generator (payload + envelope;
  /// mean of the real serialized sizes in dataset mode).
  uint64_t BatchWireBytes() const;

  bool replaying_dataset() const { return !dataset_.empty(); }
  int batch_size() const { return batch_size_; }
  const std::vector<int64_t>& sample_shape() const { return sample_shape_; }
  uint64_t batches_generated() const { return next_id_; }

 private:
  std::vector<int64_t> sample_shape_;
  int batch_size_;
  int64_t elements_per_sample_;
  crayfish::Rng rng_;
  uint64_t next_id_ = 0;
  std::vector<CrayfishDataBatch> dataset_;
  uint64_t dataset_wire_bytes_ = 0;
};

}  // namespace crayfish::core

#endif  // CRAYFISH_CORE_GENERATOR_H_
