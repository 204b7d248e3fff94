#ifndef CRAYFISH_MODEL_LAYER_H_
#define CRAYFISH_MODEL_LAYER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace crayfish::model {

/// Operator kinds supported by the model graph. The set is exactly what
/// the paper's two models (FFNN, ResNet50) require, plus Input.
enum class LayerKind {
  kInput,
  kDense,
  kConv2D,
  kBatchNorm,
  kRelu,
  kMaxPool,
  kGlobalAvgPool,
  kAdd,
  kFlatten,
  kSoftmax,
};

const char* LayerKindName(LayerKind kind);

/// One node of the model DAG. Layers reference their producers by index
/// into the owning graph's layer vector, so a graph is a topologically
/// ordered DAG by construction.
struct Layer {
  LayerKind kind = LayerKind::kInput;
  std::string name;
  /// Producer layer indices (one for most ops, two for kAdd, zero for
  /// kInput).
  std::vector<int> inputs;

  // --- attributes (meaningful subset depends on kind) ---
  int64_t units = 0;        ///< kDense output features
  int64_t kernel = 0;       ///< kConv2D / kMaxPool window size
  int64_t stride = 1;       ///< kConv2D / kMaxPool stride
  tensor::Padding padding = tensor::Padding::kSame;

  /// Learned parameters by canonical name: "kernel"/"bias" (dense, conv),
  /// "gamma"/"beta"/"mean"/"variance" (batchnorm).
  std::map<std::string, tensor::Tensor> params;

  /// Per-sample output shape (no batch dimension); filled by
  /// ModelGraph::InferShapes.
  tensor::Shape output_shape;

  /// Total learned parameter count of this layer.
  int64_t ParamCount() const;
};

}  // namespace crayfish::model

#endif  // CRAYFISH_MODEL_LAYER_H_
