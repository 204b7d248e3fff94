#include "model/executor.h"

#include <vector>

#include "common/logging.h"
#include "tensor/ops.h"

namespace crayfish::model {

using tensor::Shape;
using tensor::Tensor;

namespace {

/// Prepends the batch dimension to a per-sample shape.
Shape Batched(int64_t batch, const Shape& per_sample) {
  std::vector<int64_t> dims;
  dims.reserve(static_cast<size_t>(per_sample.rank()) + 1);
  dims.push_back(batch);
  for (int64_t d : per_sample.dims()) dims.push_back(d);
  return Shape(std::move(dims));
}

}  // namespace

Executor::Executor(const ModelGraph* graph) : graph_(graph) {
  CRAYFISH_CHECK(graph != nullptr);
  CRAYFISH_CHECK(graph->shapes_inferred())
      << "graph must have shapes inferred before execution";
}

crayfish::StatusOr<Tensor> Executor::Run(const Tensor& input) const {
  const auto& layers = graph_->layers();
  if (input.shape().rank() < 1) {
    return crayfish::Status::InvalidArgument("input needs a batch dimension");
  }
  const int64_t batch = input.shape()[0];
  const Shape expected = Batched(batch, graph_->input_shape());
  if (input.shape() != expected) {
    return crayfish::Status::InvalidArgument(
        "input shape " + input.shape().ToString() + " does not match " +
        expected.ToString());
  }

  std::vector<Tensor> values(layers.size());
  values[0] = input;
  for (size_t i = 1; i < layers.size(); ++i) {
    const Layer& l = layers[i];
    const Tensor& in = values[static_cast<size_t>(l.inputs[0])];
    switch (l.kind) {
      case LayerKind::kInput:
        return crayfish::Status::Internal("unexpected Input layer");
      case LayerKind::kDense: {
        CRAYFISH_ASSIGN_OR_RETURN(Tensor y,
                                  tensor::MatMul(in, l.params.at("kernel")));
        CRAYFISH_ASSIGN_OR_RETURN(values[i],
                                  tensor::BiasAdd(y, l.params.at("bias")));
        break;
      }
      case LayerKind::kConv2D: {
        CRAYFISH_ASSIGN_OR_RETURN(
            Tensor y,
            tensor::Conv2D(in, l.params.at("kernel"), l.stride, l.padding));
        CRAYFISH_ASSIGN_OR_RETURN(values[i],
                                  tensor::BiasAdd(y, l.params.at("bias")));
        break;
      }
      case LayerKind::kBatchNorm: {
        CRAYFISH_ASSIGN_OR_RETURN(
            values[i],
            tensor::BatchNorm(in, l.params.at("gamma"), l.params.at("beta"),
                              l.params.at("mean"),
                              l.params.at("variance")));
        break;
      }
      case LayerKind::kRelu:
        values[i] = tensor::Relu(in);
        break;
      case LayerKind::kMaxPool: {
        CRAYFISH_ASSIGN_OR_RETURN(
            values[i],
            tensor::MaxPool2D(in, l.kernel, l.stride, l.padding));
        break;
      }
      case LayerKind::kGlobalAvgPool: {
        CRAYFISH_ASSIGN_OR_RETURN(values[i], tensor::GlobalAvgPool(in));
        break;
      }
      case LayerKind::kAdd: {
        const Tensor& b = values[static_cast<size_t>(l.inputs[1])];
        CRAYFISH_ASSIGN_OR_RETURN(values[i], tensor::Add(in, b));
        break;
      }
      case LayerKind::kFlatten: {
        CRAYFISH_ASSIGN_OR_RETURN(values[i], tensor::FlattenBatch(in));
        break;
      }
      case LayerKind::kSoftmax:
        values[i] = tensor::Softmax(in);
        break;
    }
  }
  return values.back();
}

crayfish::StatusOr<std::vector<int64_t>> Executor::Classify(
    const Tensor& input) const {
  CRAYFISH_ASSIGN_OR_RETURN(Tensor out, Run(input));
  return tensor::Argmax(out);
}

}  // namespace crayfish::model
