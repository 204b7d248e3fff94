#include "model/layer.h"

namespace crayfish::model {

const char* LayerKindName(LayerKind kind) {
  switch (kind) {
    case LayerKind::kInput:
      return "Input";
    case LayerKind::kDense:
      return "Dense";
    case LayerKind::kConv2D:
      return "Conv2D";
    case LayerKind::kBatchNorm:
      return "BatchNorm";
    case LayerKind::kRelu:
      return "ReLU";
    case LayerKind::kMaxPool:
      return "MaxPool";
    case LayerKind::kGlobalAvgPool:
      return "GlobalAvgPool";
    case LayerKind::kAdd:
      return "Add";
    case LayerKind::kFlatten:
      return "Flatten";
    case LayerKind::kSoftmax:
      return "Softmax";
  }
  return "Unknown";
}

int64_t Layer::ParamCount() const {
  int64_t total = 0;
  for (const auto& [name, t] : params) total += t.NumElements();
  return total;
}

}  // namespace crayfish::model
