#ifndef CRAYFISH_MODEL_GRAPH_H_
#define CRAYFISH_MODEL_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "model/layer.h"
#include "tensor/tensor.h"

namespace crayfish::model {

/// A pre-trained model as a topologically ordered DAG of layers.
///
/// Construction uses the Add* builder methods, each returning the new
/// layer's index for wiring later layers. After construction, call
/// InferShapes() to propagate per-sample shapes and validate the wiring.
/// Parameters can be randomly initialized (InitializeWeights) to stand in
/// for real trained weights — the paper's serving measurements depend on
/// model *architecture*, not on learned values.
class ModelGraph {
 public:
  explicit ModelGraph(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // --- builders (return layer index) ---
  int AddInput(tensor::Shape per_sample_shape, std::string name = "input");
  int AddDense(int input, int64_t units, std::string name);
  int AddConv2D(int input, int64_t filters, int64_t kernel, int64_t stride,
                tensor::Padding padding, std::string name);
  int AddBatchNorm(int input, std::string name);
  int AddRelu(int input, std::string name);
  int AddMaxPool(int input, int64_t window, int64_t stride,
                 tensor::Padding padding, std::string name);
  int AddGlobalAvgPool(int input, std::string name);
  int AddResidualAdd(int a, int b, std::string name);
  int AddFlatten(int input, std::string name);
  int AddSoftmax(int input, std::string name);

  /// Propagates per-sample shapes from the input layer and sizes all
  /// parameter tensors (zero-filled). Must be called once after building.
  crayfish::Status InferShapes();

  /// Fills every parameter with deterministic pseudo-random values
  /// (He-normal kernels, zero biases, identity batch-norm statistics).
  void InitializeWeights(crayfish::Rng* rng);

  const std::vector<Layer>& layers() const { return layers_; }
  std::vector<Layer>& layers() { return layers_; }
  size_t layer_count() const { return layers_.size(); }

  /// Per-sample input/output shapes (valid after InferShapes).
  const tensor::Shape& input_shape() const;
  const tensor::Shape& output_shape() const;

  /// Total learned parameters across layers.
  int64_t ParamCount() const;

  /// Floating-point operations for a forward pass over `batch` samples
  /// (multiply-add counted as 2 FLOPs).
  int64_t Flops(int64_t batch = 1) const;

  /// Serialized f32 weight bytes (raw, before format overhead).
  uint64_t WeightBytes() const;

  /// Multi-line human-readable summary (Keras-style).
  std::string Summary() const;

  bool shapes_inferred() const { return shapes_inferred_; }

 private:
  int Append(Layer layer);

  std::string name_;
  std::vector<Layer> layers_;
  bool shapes_inferred_ = false;
};

/// Builds the paper's FFNN: Fashion-MNIST classifier, 28x28 input,
/// three hidden Dense(32)+ReLU layers, Dense(10)+Softmax head
/// (§4.1: ~28K parameters; this graph has 27,562).
ModelGraph BuildFfnn();

/// Builds the paper's second model: full ResNet50 v1 (He et al. 2016),
/// 224x224x3 input, bottleneck blocks [3,4,6,3], 1000-way softmax head
/// (§4.1: ~23M parameters reported for the TF/PyTorch exports; the
/// canonical architecture carries ~25.6M — the shape analysis is
/// identical).
ModelGraph BuildResNet50();

/// Smaller ResNet variant (ResNet-18-style with basic-block counts
/// approximated by bottlenecks [1,1,1,1]) used by tests to execute a deep
/// residual graph quickly.
ModelGraph BuildTinyResNet(int64_t input_hw = 32, int64_t classes = 10);

}  // namespace crayfish::model

#endif  // CRAYFISH_MODEL_GRAPH_H_
