#include <algorithm>
#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "model/executor.h"
#include "model/formats.h"
#include "model/graph.h"
#include "model/repository.h"
#include "tensor/tensor.h"

namespace crayfish::model {
namespace {

using tensor::Shape;
using tensor::Tensor;

class FormatsTest : public ::testing::TestWithParam<ModelFormat> {};

TEST_P(FormatsTest, RoundTripPreservesTopologyAndWeights) {
  ModelGraph g = BuildFfnn();
  crayfish::Rng rng(31);
  g.InitializeWeights(&rng);
  auto bytes = Serialize(g, GetParam());
  ASSERT_TRUE(bytes.ok());
  auto back = Deserialize(*bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->name(), g.name());
  EXPECT_EQ(back->layer_count(), g.layer_count());
  EXPECT_EQ(back->ParamCount(), g.ParamCount());
  for (size_t i = 0; i < g.layer_count(); ++i) {
    const Layer& a = g.layers()[i];
    const Layer& b = back->layers()[i];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.inputs, b.inputs);
    for (const auto& [pname, t] : a.params) {
      ASSERT_TRUE(b.params.count(pname) > 0) << pname;
      EXPECT_TRUE(t.AllClose(b.params.at(pname), 0.0f)) << pname;
    }
  }
}

TEST_P(FormatsTest, RoundTrippedModelExecutesIdentically) {
  ModelGraph g = BuildFfnn();
  crayfish::Rng rng(37);
  g.InitializeWeights(&rng);
  auto bytes = Serialize(g, GetParam());
  ASSERT_TRUE(bytes.ok());
  auto back = Deserialize(*bytes);
  ASSERT_TRUE(back.ok());
  crayfish::Rng input_rng(38);
  Tensor input = Tensor::Random(Shape{2, 28, 28}, &input_rng);
  Executor orig(&g);
  Executor loaded(&*back);
  auto a = orig.Run(input);
  auto b = loaded.Run(input);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->AllClose(*b, 0.0f));
}

TEST_P(FormatsTest, DetectFormatIdentifiesMagic) {
  ModelGraph g = BuildFfnn();
  auto bytes = Serialize(g, GetParam());
  ASSERT_TRUE(bytes.ok());
  auto detected = DetectFormat(*bytes);
  ASSERT_TRUE(detected.ok());
  EXPECT_EQ(*detected, GetParam());
}

TEST_P(FormatsTest, TruncatedFileIsCorruption) {
  ModelGraph g = BuildFfnn();
  auto bytes = Serialize(g, GetParam());
  ASSERT_TRUE(bytes.ok());
  Bytes cut(bytes->begin(), bytes->begin() +
                                static_cast<long>(bytes->size() / 2));
  auto back = Deserialize(cut);
  EXPECT_FALSE(back.ok());
}

INSTANTIATE_TEST_SUITE_P(AllFormats, FormatsTest,
                         ::testing::Values(ModelFormat::kOnnx,
                                           ModelFormat::kSavedModel,
                                           ModelFormat::kTorch,
                                           ModelFormat::kH5),
                         [](const auto& info) {
                           return std::string(ModelFormatName(info.param));
                         });

TEST(FormatsTest, UnknownMagicRejected) {
  Bytes junk = {'J', 'U', 'N', 'K', '!', 0, 0, 0};
  EXPECT_FALSE(DetectFormat(junk).ok());
  EXPECT_FALSE(Deserialize(junk).ok());
}

TEST(FormatsTest, SizesReproduceTable2Ordering) {
  // Table 2 (FFNN): ONNX 113 KB < Torch 115 KB < H5 133 KB << SavedModel
  // 508 KB. Our encodings reproduce the ordering and the SavedModel gap.
  ModelGraph g = BuildFfnn();
  crayfish::Rng rng(41);
  g.InitializeWeights(&rng);
  const size_t onnx = Serialize(g, ModelFormat::kOnnx)->size();
  const size_t torch = Serialize(g, ModelFormat::kTorch)->size();
  const size_t h5 = Serialize(g, ModelFormat::kH5)->size();
  const size_t saved = Serialize(g, ModelFormat::kSavedModel)->size();
  EXPECT_LT(onnx, torch);
  EXPECT_LT(torch, h5);
  EXPECT_LT(h5, saved);
  // Raw weights are ~110 KB; ONNX should be close to raw.
  EXPECT_NEAR(static_cast<double>(onnx), 113.0 * 1024, 8 * 1024);
  // SavedModel carries the ~fixed function-library blob: ~500 KB total.
  EXPECT_NEAR(static_cast<double>(saved), 508.0 * 1024, 40 * 1024);
}

TEST(FormatsTest, FormatNamesRoundTrip) {
  for (ModelFormat f :
       {ModelFormat::kOnnx, ModelFormat::kSavedModel, ModelFormat::kTorch,
        ModelFormat::kH5}) {
    auto parsed = ModelFormatFromName(ModelFormatName(f));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, f);
  }
  EXPECT_FALSE(ModelFormatFromName("bogus").ok());
}

TEST(FormatsTest, SerializeRequiresInferredShapes) {
  ModelGraph g("raw");
  g.AddInput(Shape{4}, "in");
  g.AddDense(0, 2, "d");
  EXPECT_FALSE(Serialize(g, ModelFormat::kOnnx).ok());
}

TEST(FormatsTest, LayerKindPastSoftmaxIsCorruption) {
  // Byte 10 was a recurrent layer kind no longer supported; it and every
  // other byte past kSoftmax fail with the same error.
  ModelGraph g = BuildFfnn();
  auto bytes = Serialize(g, ModelFormat::kOnnx);
  ASSERT_TRUE(bytes.ok());
  // Each layer's topology starts with its kind byte, then its name as a
  // u32 length and the characters.
  const std::string name = "flatten";
  const auto at = std::search(bytes->begin(), bytes->end(), name.begin(),
                              name.end());
  ASSERT_NE(at, bytes->end());
  const auto kind_at = static_cast<size_t>(at - bytes->begin()) - 5;
  ASSERT_EQ((*bytes)[kind_at], static_cast<uint8_t>(LayerKind::kFlatten));
  for (const uint8_t kind : {uint8_t{10}, uint8_t{11}, uint8_t{255}}) {
    Bytes mutated = *bytes;
    mutated[kind_at] = kind;
    auto back = Deserialize(mutated);
    ASSERT_FALSE(back.ok()) << int{kind};
    EXPECT_EQ(back.status().code(), StatusCode::kCorruption);
    EXPECT_NE(back.status().message().find("bad layer kind"),
              std::string::npos)
        << back.status().ToString();
  }
}

class RepositoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/crayfish_repo_" +
            std::to_string(reinterpret_cast<uintptr_t>(this));
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }
  std::string root_;
};

TEST_F(RepositoryTest, SaveLoadRoundTrip) {
  ModelRepository repo(root_);
  ModelGraph g = BuildFfnn();
  crayfish::Rng rng(43);
  g.InitializeWeights(&rng);
  auto path = repo.Save(g, ModelFormat::kOnnx);
  ASSERT_TRUE(path.ok());
  EXPECT_NE(path->find(".onnx"), std::string::npos);
  auto loaded = repo.Load("ffnn", ModelFormat::kOnnx);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->ParamCount(), g.ParamCount());
}

TEST_F(RepositoryTest, FileSizeAndList) {
  ModelRepository repo(root_);
  ModelGraph g = BuildFfnn();
  ASSERT_TRUE(repo.Save(g, ModelFormat::kH5).ok());
  auto size = repo.FileSize("ffnn", ModelFormat::kH5);
  ASSERT_TRUE(size.ok());
  EXPECT_GT(*size, 100u * 1024);
  auto names = repo.List();
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(names->size(), 1u);
  EXPECT_EQ((*names)[0], "ffnn.h5");
}

TEST_F(RepositoryTest, MissingModelIsNotFound) {
  ModelRepository repo(root_);
  EXPECT_TRUE(repo.Load("ghost", ModelFormat::kOnnx).status().IsNotFound());
  EXPECT_TRUE(
      repo.FileSize("ghost", ModelFormat::kOnnx).status().IsNotFound());
}

TEST_F(RepositoryTest, LoadFromFileAutoDetectsFormat) {
  ModelRepository repo(root_);
  ModelGraph g = BuildFfnn();
  auto path = repo.Save(g, ModelFormat::kTorch);
  ASSERT_TRUE(path.ok());
  auto loaded = ModelRepository::LoadFromFile(*path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->name(), "ffnn");
}

}  // namespace
}  // namespace crayfish::model
