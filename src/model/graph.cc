#include "model/graph.h"

#include <sstream>

#include "common/logging.h"

namespace crayfish::model {

using tensor::Padding;
using tensor::Shape;
using tensor::Tensor;

int ModelGraph::Append(Layer layer) {
  for (int in : layer.inputs) {
    CRAYFISH_CHECK_GE(in, 0);
    CRAYFISH_CHECK_LT(static_cast<size_t>(in), layers_.size())
        << "layer " << layer.name << " references future layer";
  }
  layers_.push_back(std::move(layer));
  shapes_inferred_ = false;
  return static_cast<int>(layers_.size()) - 1;
}

int ModelGraph::AddInput(Shape per_sample_shape, std::string name) {
  CRAYFISH_CHECK(layers_.empty()) << "input must be the first layer";
  Layer l;
  l.kind = LayerKind::kInput;
  l.name = std::move(name);
  l.output_shape = std::move(per_sample_shape);
  return Append(std::move(l));
}

int ModelGraph::AddDense(int input, int64_t units, std::string name) {
  Layer l;
  l.kind = LayerKind::kDense;
  l.name = std::move(name);
  l.inputs = {input};
  l.units = units;
  return Append(std::move(l));
}

int ModelGraph::AddConv2D(int input, int64_t filters, int64_t kernel,
                          int64_t stride, Padding padding, std::string name) {
  Layer l;
  l.kind = LayerKind::kConv2D;
  l.name = std::move(name);
  l.inputs = {input};
  l.units = filters;
  l.kernel = kernel;
  l.stride = stride;
  l.padding = padding;
  return Append(std::move(l));
}

int ModelGraph::AddBatchNorm(int input, std::string name) {
  Layer l;
  l.kind = LayerKind::kBatchNorm;
  l.name = std::move(name);
  l.inputs = {input};
  return Append(std::move(l));
}

int ModelGraph::AddRelu(int input, std::string name) {
  Layer l;
  l.kind = LayerKind::kRelu;
  l.name = std::move(name);
  l.inputs = {input};
  return Append(std::move(l));
}

int ModelGraph::AddMaxPool(int input, int64_t window, int64_t stride,
                           Padding padding, std::string name) {
  Layer l;
  l.kind = LayerKind::kMaxPool;
  l.name = std::move(name);
  l.inputs = {input};
  l.kernel = window;
  l.stride = stride;
  l.padding = padding;
  return Append(std::move(l));
}

int ModelGraph::AddGlobalAvgPool(int input, std::string name) {
  Layer l;
  l.kind = LayerKind::kGlobalAvgPool;
  l.name = std::move(name);
  l.inputs = {input};
  return Append(std::move(l));
}

int ModelGraph::AddResidualAdd(int a, int b, std::string name) {
  Layer l;
  l.kind = LayerKind::kAdd;
  l.name = std::move(name);
  l.inputs = {a, b};
  return Append(std::move(l));
}

int ModelGraph::AddFlatten(int input, std::string name) {
  Layer l;
  l.kind = LayerKind::kFlatten;
  l.name = std::move(name);
  l.inputs = {input};
  return Append(std::move(l));
}

int ModelGraph::AddSoftmax(int input, std::string name) {
  Layer l;
  l.kind = LayerKind::kSoftmax;
  l.name = std::move(name);
  l.inputs = {input};
  return Append(std::move(l));
}

crayfish::Status ModelGraph::InferShapes() {
  if (layers_.empty() || layers_[0].kind != LayerKind::kInput) {
    return crayfish::Status::FailedPrecondition(
        "graph must start with an Input layer");
  }
  for (size_t i = 1; i < layers_.size(); ++i) {
    Layer& l = layers_[i];
    if (l.inputs.empty()) {
      return crayfish::Status::InvalidArgument("layer " + l.name +
                                               " has no inputs");
    }
    const Shape& in = layers_[static_cast<size_t>(l.inputs[0])].output_shape;
    switch (l.kind) {
      case LayerKind::kInput:
        return crayfish::Status::InvalidArgument(
            "only the first layer may be Input");
      case LayerKind::kDense: {
        if (in.rank() != 1) {
          return crayfish::Status::InvalidArgument(
              "Dense " + l.name + " needs rank-1 input, got " +
              in.ToString());
        }
        const int64_t in_features = in[0];
        l.params["kernel"] = Tensor(Shape{in_features, l.units});
        l.params["bias"] = Tensor(Shape{l.units});
        l.output_shape = Shape{l.units};
        break;
      }
      case LayerKind::kConv2D: {
        if (in.rank() != 3) {
          return crayfish::Status::InvalidArgument(
              "Conv2D " + l.name + " needs HWC input, got " + in.ToString());
        }
        const int64_t in_c = in[2];
        l.params["kernel"] =
            Tensor(Shape{l.kernel, l.kernel, in_c, l.units});
        l.params["bias"] = Tensor(Shape{l.units});
        const int64_t oh =
            tensor::ConvOutputSize(in[0], l.kernel, l.stride, l.padding);
        const int64_t ow =
            tensor::ConvOutputSize(in[1], l.kernel, l.stride, l.padding);
        l.output_shape = Shape{oh, ow, l.units};
        break;
      }
      case LayerKind::kBatchNorm: {
        const int64_t c = in[in.rank() - 1];
        l.params["gamma"] = Tensor(Shape{c});
        l.params["beta"] = Tensor(Shape{c});
        l.params["mean"] = Tensor(Shape{c});
        l.params["variance"] = Tensor(Shape{c});
        l.output_shape = in;
        break;
      }
      case LayerKind::kRelu:
      case LayerKind::kSoftmax:
        l.output_shape = in;
        break;
      case LayerKind::kMaxPool: {
        if (in.rank() != 3) {
          return crayfish::Status::InvalidArgument(
              "MaxPool " + l.name + " needs HWC input");
        }
        const int64_t oh =
            tensor::ConvOutputSize(in[0], l.kernel, l.stride, l.padding);
        const int64_t ow =
            tensor::ConvOutputSize(in[1], l.kernel, l.stride, l.padding);
        l.output_shape = Shape{oh, ow, in[2]};
        break;
      }
      case LayerKind::kGlobalAvgPool: {
        if (in.rank() != 3) {
          return crayfish::Status::InvalidArgument(
              "GlobalAvgPool " + l.name + " needs HWC input");
        }
        l.output_shape = Shape{in[2]};
        break;
      }
      case LayerKind::kAdd: {
        if (l.inputs.size() != 2) {
          return crayfish::Status::InvalidArgument("Add " + l.name +
                                                   " needs two inputs");
        }
        const Shape& b =
            layers_[static_cast<size_t>(l.inputs[1])].output_shape;
        if (in != b) {
          return crayfish::Status::InvalidArgument(
              "Add " + l.name + " shape mismatch: " + in.ToString() +
              " vs " + b.ToString());
        }
        l.output_shape = in;
        break;
      }
      case LayerKind::kFlatten: {
        l.output_shape = Shape{in.NumElements()};
        break;
      }
    }
  }
  shapes_inferred_ = true;
  return crayfish::Status::Ok();
}

void ModelGraph::InitializeWeights(crayfish::Rng* rng) {
  CRAYFISH_CHECK(shapes_inferred_) << "call InferShapes() first";
  for (Layer& l : layers_) {
    switch (l.kind) {
      case LayerKind::kDense: {
        const int64_t fan_in = l.params["kernel"].shape()[0];
        l.params["kernel"] =
            Tensor::HeNormal(l.params["kernel"].shape(), rng, fan_in);
        // bias stays zero.
        break;
      }
      case LayerKind::kConv2D: {
        const Shape& ks = l.params["kernel"].shape();
        const int64_t fan_in = ks[0] * ks[1] * ks[2];
        l.params["kernel"] = Tensor::HeNormal(ks, rng, fan_in);
        break;
      }
      case LayerKind::kBatchNorm: {
        l.params["gamma"] = Tensor::Full(l.params["gamma"].shape(), 1.0f);
        // beta/mean zero; variance one for an identity transform.
        l.params["variance"] =
            Tensor::Full(l.params["variance"].shape(), 1.0f);
        break;
      }
      default:
        break;
    }
  }
}

const Shape& ModelGraph::input_shape() const {
  CRAYFISH_CHECK(!layers_.empty());
  return layers_.front().output_shape;
}

const Shape& ModelGraph::output_shape() const {
  CRAYFISH_CHECK(!layers_.empty());
  return layers_.back().output_shape;
}

int64_t ModelGraph::ParamCount() const {
  int64_t total = 0;
  for (const Layer& l : layers_) total += l.ParamCount();
  return total;
}

int64_t ModelGraph::Flops(int64_t batch) const {
  CRAYFISH_CHECK(shapes_inferred_);
  int64_t flops = 0;
  for (const Layer& l : layers_) {
    const int64_t out_elems = l.output_shape.NumElements();
    switch (l.kind) {
      case LayerKind::kDense: {
        const int64_t in_features =
            layers_[static_cast<size_t>(l.inputs[0])]
                .output_shape.NumElements();
        flops += 2 * in_features * l.units + l.units;
        break;
      }
      case LayerKind::kConv2D: {
        const Shape& in =
            layers_[static_cast<size_t>(l.inputs[0])].output_shape;
        const int64_t in_c = in[2];
        // 2 * K*K*Cin multiply-adds per output element, plus bias.
        flops += out_elems * (2 * l.kernel * l.kernel * in_c + 1);
        break;
      }
      case LayerKind::kBatchNorm:
        flops += 2 * out_elems;
        break;
      case LayerKind::kRelu:
      case LayerKind::kAdd:
        flops += out_elems;
        break;
      case LayerKind::kSoftmax:
        flops += 4 * out_elems;  // exp + max + sum + div, roughly.
        break;
      case LayerKind::kMaxPool: {
        flops += out_elems * l.kernel * l.kernel;
        break;
      }
      case LayerKind::kGlobalAvgPool: {
        const Shape& in =
            layers_[static_cast<size_t>(l.inputs[0])].output_shape;
        flops += in.NumElements();
        break;
      }
      case LayerKind::kInput:
      case LayerKind::kFlatten:
        break;
    }
  }
  return flops * batch;
}

uint64_t ModelGraph::WeightBytes() const {
  return static_cast<uint64_t>(ParamCount()) * sizeof(float);
}

std::string ModelGraph::Summary() const {
  std::ostringstream os;
  os << "Model: " << name_ << "\n";
  for (size_t i = 0; i < layers_.size(); ++i) {
    const Layer& l = layers_[i];
    os << "  #" << i << " " << LayerKindName(l.kind) << " '" << l.name
       << "' -> " << l.output_shape.ToString() << " params "
       << l.ParamCount() << "\n";
  }
  os << "Total params: " << ParamCount() << " (" << (WeightBytes() >> 10)
     << " KiB), FLOPs/sample: " << Flops(1) << "\n";
  return os.str();
}

ModelGraph BuildFfnn() {
  ModelGraph g("ffnn");
  int x = g.AddInput(Shape{28, 28}, "image");
  x = g.AddFlatten(x, "flatten");
  for (int i = 1; i <= 3; ++i) {
    x = g.AddDense(x, 32, "dense" + std::to_string(i));
    x = g.AddRelu(x, "relu" + std::to_string(i));
  }
  x = g.AddDense(x, 10, "logits");
  g.AddSoftmax(x, "probabilities");
  CRAYFISH_CHECK_OK(g.InferShapes());
  return g;
}

namespace {

/// One bottleneck residual block: 1x1 reduce, 3x3, 1x1 expand, with an
/// optional projection shortcut when the shape changes.
int BottleneckBlock(ModelGraph* g, int x, int64_t filters, int64_t stride,
                    bool project_shortcut, const std::string& prefix) {
  int shortcut = x;
  if (project_shortcut) {
    shortcut = g->AddConv2D(x, filters * 4, 1, stride, Padding::kSame,
                            prefix + "_proj_conv");
    shortcut = g->AddBatchNorm(shortcut, prefix + "_proj_bn");
  }
  int y = g->AddConv2D(x, filters, 1, stride, Padding::kSame,
                       prefix + "_conv1");
  y = g->AddBatchNorm(y, prefix + "_bn1");
  y = g->AddRelu(y, prefix + "_relu1");
  y = g->AddConv2D(y, filters, 3, 1, Padding::kSame, prefix + "_conv2");
  y = g->AddBatchNorm(y, prefix + "_bn2");
  y = g->AddRelu(y, prefix + "_relu2");
  y = g->AddConv2D(y, filters * 4, 1, 1, Padding::kSame, prefix + "_conv3");
  y = g->AddBatchNorm(y, prefix + "_bn3");
  y = g->AddResidualAdd(y, shortcut, prefix + "_add");
  y = g->AddRelu(y, prefix + "_out");
  return y;
}

ModelGraph BuildResNet(const std::string& name, int64_t input_hw,
                       int64_t classes, const std::vector<int>& block_counts) {
  ModelGraph g(name);
  int x = g.AddInput(Shape{input_hw, input_hw, 3}, "image");
  x = g.AddConv2D(x, 64, 7, 2, Padding::kSame, "stem_conv");
  x = g.AddBatchNorm(x, "stem_bn");
  x = g.AddRelu(x, "stem_relu");
  x = g.AddMaxPool(x, 3, 2, Padding::kSame, "stem_pool");
  const int64_t stage_filters[4] = {64, 128, 256, 512};
  for (size_t stage = 0; stage < block_counts.size(); ++stage) {
    const int64_t filters = stage_filters[stage];
    for (int block = 0; block < block_counts[stage]; ++block) {
      const bool first = block == 0;
      const int64_t stride = (first && stage > 0) ? 2 : 1;
      x = BottleneckBlock(&g, x, filters, stride, first,
                          "stage" + std::to_string(stage + 1) + "_block" +
                              std::to_string(block + 1));
    }
  }
  x = g.AddGlobalAvgPool(x, "avg_pool");
  x = g.AddDense(x, classes, "fc");
  g.AddSoftmax(x, "probabilities");
  CRAYFISH_CHECK_OK(g.InferShapes());
  return g;
}

}  // namespace

ModelGraph BuildResNet50() {
  return BuildResNet("resnet50", 224, 1000, {3, 4, 6, 3});
}

ModelGraph BuildTinyResNet(int64_t input_hw, int64_t classes) {
  return BuildResNet("tiny_resnet", input_hw, classes, {1, 1, 1, 1});
}

}  // namespace crayfish::model
