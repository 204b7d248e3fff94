#include <gtest/gtest.h>

#include "common/rng.h"
#include "model/executor.h"
#include "model/formats.h"

#include "common/logging.h"
#include "model/graph.h"
#include "serving/model_profile.h"
#include "tensor/ops.h"

namespace crayfish::model {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(GraphBuilderTest, FfnnStructure) {
  ModelGraph g = BuildFfnn();
  EXPECT_EQ(g.name(), "ffnn");
  // input + flatten + 3x(dense+relu) + dense + softmax = 10 layers.
  EXPECT_EQ(g.layer_count(), 10u);
  EXPECT_EQ(g.input_shape(), Shape({28, 28}));
  EXPECT_EQ(g.output_shape(), Shape({10}));
}

TEST(GraphBuilderTest, FfnnParamCountMatchesPaper) {
  // §4.1: FFNN has ~28K parameters: 784*32+32 + 32*32+32 + 32*32+32 +
  // 32*10+10 = 27,562.
  ModelGraph g = BuildFfnn();
  EXPECT_EQ(g.ParamCount(), 27562);
}

TEST(GraphBuilderTest, FfnnProfilePinnedConstantsMatchGraph) {
  ModelGraph g = BuildFfnn();
  serving::ModelProfile from_graph = serving::ModelProfile::FromGraph(g);
  serving::ModelProfile pinned = serving::ModelProfile::Ffnn();
  EXPECT_EQ(from_graph.flops_per_sample, pinned.flops_per_sample);
  EXPECT_EQ(from_graph.input_elements, pinned.input_elements);
  EXPECT_EQ(from_graph.output_elements, pinned.output_elements);
  EXPECT_EQ(from_graph.parameter_count, pinned.parameter_count);
  EXPECT_EQ(from_graph.weight_bytes, pinned.weight_bytes);
}

TEST(GraphBuilderTest, ResNet50ProfilePinnedConstantsMatchGraph) {
  ModelGraph g = BuildResNet50();
  serving::ModelProfile from_graph = serving::ModelProfile::FromGraph(g);
  serving::ModelProfile pinned = serving::ModelProfile::ResNet50();
  EXPECT_EQ(from_graph.flops_per_sample, pinned.flops_per_sample);
  EXPECT_EQ(from_graph.input_elements, pinned.input_elements);
  EXPECT_EQ(from_graph.output_elements, pinned.output_elements);
  EXPECT_EQ(from_graph.parameter_count, pinned.parameter_count);
}

TEST(GraphBuilderTest, ResNet50CanonicalArchitecture) {
  ModelGraph g = BuildResNet50();
  EXPECT_EQ(g.input_shape(), Shape({224, 224, 3}));
  EXPECT_EQ(g.output_shape(), Shape({1000}));
  // Canonical ResNet50 v1 parameter count ~25.6M (paper's exports report
  // 23M trainable; shape analysis identical).
  EXPECT_EQ(g.ParamCount(), 25636712);
  // ~7.7 GFLOPs (3.9 GMACs) per 224x224 sample.
  EXPECT_GT(g.Flops(1), 7.5e9);
  EXPECT_LT(g.Flops(1), 8.0e9);
  // 16 bottleneck blocks -> 53 conv layers + fc.
  int convs = 0;
  int dense = 0;
  for (const Layer& l : g.layers()) {
    if (l.kind == LayerKind::kConv2D) ++convs;
    if (l.kind == LayerKind::kDense) ++dense;
  }
  EXPECT_EQ(convs, 53);
  EXPECT_EQ(dense, 1);
}

TEST(GraphBuilderTest, FlopsScaleLinearlyWithBatch) {
  ModelGraph g = BuildFfnn();
  EXPECT_EQ(g.Flops(8), 8 * g.Flops(1));
}

TEST(GraphTest, InferShapesRejectsBadWiring) {
  ModelGraph g("bad");
  g.AddInput(Shape{4}, "in");
  g.AddConv2D(0, 8, 3, 1, tensor::Padding::kSame, "conv");  // rank-1 input
  EXPECT_FALSE(g.InferShapes().ok());
}

TEST(GraphTest, ResidualAddRequiresMatchingShapes) {
  ModelGraph g("bad_add");
  int in = g.AddInput(Shape{4, 4, 3}, "in");
  int a = g.AddConv2D(in, 8, 1, 1, tensor::Padding::kSame, "a");
  int b = g.AddConv2D(in, 16, 1, 1, tensor::Padding::kSame, "b");
  g.AddResidualAdd(a, b, "add");
  EXPECT_FALSE(g.InferShapes().ok());
}

TEST(GraphTest, SummaryMentionsLayersAndParams) {
  ModelGraph g = BuildFfnn();
  const std::string summary = g.Summary();
  EXPECT_NE(summary.find("Dense"), std::string::npos);
  EXPECT_NE(summary.find("27562"), std::string::npos);
}

TEST(ExecutorTest, FfnnForwardProducesProbabilities) {
  ModelGraph g = BuildFfnn();
  crayfish::Rng rng(11);
  g.InitializeWeights(&rng);
  Executor exec(&g);
  Tensor input = Tensor::Random(Shape{4, 28, 28}, &rng);
  auto out = exec.Run(input);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->shape(), Shape({4, 10}));
  for (int64_t r = 0; r < 4; ++r) {
    float sum = 0.0f;
    for (int64_t c = 0; c < 10; ++c) {
      const float p = out->at2(r, c);
      EXPECT_GE(p, 0.0f);
      EXPECT_LE(p, 1.0f);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(ExecutorTest, DeterministicUnderSameWeightsAndInput) {
  ModelGraph g = BuildFfnn();
  crayfish::Rng rng(3);
  g.InitializeWeights(&rng);
  Executor exec(&g);
  crayfish::Rng input_rng(4);
  Tensor input = Tensor::Random(Shape{2, 28, 28}, &input_rng);
  auto a = exec.Run(input);
  auto b = exec.Run(input);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->AllClose(*b, 0.0f));
}

TEST(ExecutorTest, RejectsWrongInputShape) {
  ModelGraph g = BuildFfnn();
  Executor exec(&g);
  EXPECT_FALSE(exec.Run(Tensor(Shape{1, 28, 29})).ok());
  EXPECT_FALSE(exec.Run(Tensor(Shape{28, 28})).ok());
}

TEST(ExecutorTest, ClassifyReturnsPerSampleIndices) {
  ModelGraph g = BuildFfnn();
  crayfish::Rng rng(9);
  g.InitializeWeights(&rng);
  Executor exec(&g);
  Tensor input = Tensor::Random(Shape{3, 28, 28}, &rng);
  auto classes = exec.Classify(input);
  ASSERT_TRUE(classes.ok());
  ASSERT_EQ(classes->size(), 3u);
  for (int64_t c : *classes) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, 10);
  }
}

TEST(ExecutorTest, TinyResNetExecutesResidualGraph) {
  // A full deep-residual forward pass (conv, batchnorm, pooling,
  // projection shortcuts, residual adds) on a small input.
  ModelGraph g = BuildTinyResNet(/*input_hw=*/32, /*classes=*/10);
  crayfish::Rng rng(17);
  g.InitializeWeights(&rng);
  Executor exec(&g);
  Tensor input = Tensor::Random(Shape{2, 32, 32, 3}, &rng);
  auto out = exec.Run(input);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->shape(), Shape({2, 10}));
  for (int64_t r = 0; r < 2; ++r) {
    float sum = 0.0f;
    for (int64_t c = 0; c < 10; ++c) sum += out->at2(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-4f);
  }
}

TEST(ExecutorTest, BatchMatchesSingleSampleResults) {
  ModelGraph g = BuildFfnn();
  crayfish::Rng rng(23);
  g.InitializeWeights(&rng);
  Executor exec(&g);
  Tensor batch = Tensor::Random(Shape{3, 28, 28}, &rng);
  auto all = exec.Run(batch);
  ASSERT_TRUE(all.ok());
  for (int64_t i = 0; i < 3; ++i) {
    std::vector<float> one(batch.data() + i * 784,
                           batch.data() + (i + 1) * 784);
    auto single = exec.Run(Tensor(Shape{1, 28, 28}, std::move(one)));
    ASSERT_TRUE(single.ok());
    for (int64_t c = 0; c < 10; ++c) {
      EXPECT_NEAR(single->at2(0, c), all->at2(i, c), 1e-5f);
    }
  }
}

TEST(ModelProfileTest, WireSizesMatchPaperPayloads) {
  serving::ModelProfile ffnn = serving::ModelProfile::Ffnn();
  // "one FFNN input data point (3 KB)" (§4.2): 784 elements * ~4 B.
  EXPECT_NEAR(static_cast<double>(ffnn.InputWireBytesPerSample()),
              3.0 * 1024, 200.0);
  EXPECT_GT(ffnn.InputBatchWireBytes(2), 2 * ffnn.InputWireBytesPerSample());
  serving::ModelProfile resnet = serving::ModelProfile::ResNet50();
  EXPECT_GT(resnet.InputWireBytesPerSample(),
            100 * ffnn.InputWireBytesPerSample());
}

TEST(ModelProfileTest, ByNameLookup) {
  EXPECT_EQ(serving::ModelProfile::ByName("ffnn").name, "ffnn");
  EXPECT_EQ(serving::ModelProfile::ByName("resnet50").name, "resnet50");
}

TEST(ModelZooTest, ZooModelsServeThroughProfiles) {
  // A graph other than the paper's two benchmarks through FromGraph + the
  // FLOP fallback.
  const serving::ModelProfile p =
      serving::ModelProfile::FromGraph(BuildTinyResNet());
  EXPECT_GT(p.flops_per_sample, 0);
  EXPECT_GT(p.input_elements, 0);
  EXPECT_GT(p.InputBatchWireBytes(4), p.InputBatchWireBytes(1));
}

}  // namespace
}  // namespace crayfish::model
