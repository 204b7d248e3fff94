#ifndef CRAYFISH_CORE_BREAKDOWN_H_
#define CRAYFISH_CORE_BREAKDOWN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/output_consumer.h"
#include "obs/stage.h"
#include "obs/trace.h"

namespace crayfish::core {

/// Per-stage slice of the end-to-end latency decomposition.
struct StageBreakdownRow {
  obs::Stage stage = obs::Stage::kProduce;
  /// Batches in the analyzed window that passed through this stage.
  uint64_t count = 0;
  /// Mean stage time over *all* analyzed batches (absent = 0), so the
  /// stage means sum to `LatencyBreakdown::total_mean_ms`.
  double mean_ms = 0.0;
  /// p95 over the batches that actually hit the stage.
  double p95_ms = 0.0;
  /// mean_ms / total_mean_ms.
  double share = 0.0;
};

/// Where one config's latency goes, stage by stage (the labyrinth map the
/// paper's Fig. 5/6 discussions reason about informally). Built from the
/// trace recorder's per-batch stage marks; because consecutive marks tile
/// a batch's lifetime, the per-stage means sum to the end-to-end mean of
/// the same measurement window MetricsAnalyzer::Summarize analyzes.
struct LatencyBreakdown {
  /// Completed, post-warmup batches the decomposition is over.
  uint64_t batches = 0;
  /// Mean end-to-end latency of those batches == sum of stage means.
  double total_mean_ms = 0.0;
  /// Stages with at least one contributing batch, in pipeline order.
  std::vector<StageBreakdownRow> stages;

  bool empty() const { return batches == 0; }
  /// Aligned table rendering (via ReportTable).
  std::string ToString() const;
  /// Machine-readable rendering: {batches, total_mean_ms, stages: [...]}.
  std::string ToJson() const;
};

/// Folds trace spans into the per-stage latency decomposition.
class BreakdownAnalyzer {
 public:
  /// Applies the same window selection as MetricsAnalyzer::Summarize
  /// (sort by append time, drop the leading `warmup_fraction`) and keeps
  /// the measurements whose batch trace completed, so the total here is
  /// directly comparable with the summary's latency_mean_ms.
  static LatencyBreakdown Compute(const obs::TraceRecorder& trace,
                                  const std::vector<Measurement>& ms,
                                  double warmup_fraction = 0.25);
};

}  // namespace crayfish::core

#endif  // CRAYFISH_CORE_BREAKDOWN_H_
