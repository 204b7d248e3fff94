#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "core/dataset.h"
#include "core/experiment.h"
#include "core/generator.h"

namespace crayfish::core {
namespace {

class DatasetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/crayfish_dataset_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".jsonl";
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }

  std::vector<CrayfishDataBatch> MakeBatches(int n, int batch_size = 2) {
    crayfish::Rng rng(7);
    DataGenerator gen({4, 4}, batch_size, rng);
    std::vector<CrayfishDataBatch> batches;
    for (int i = 0; i < n; ++i) {
      batches.push_back(gen.NextMaterialized(static_cast<double>(i)));
    }
    return batches;
  }

  std::string path_;
};

TEST_F(DatasetTest, WriteLoadRoundTrip) {
  auto batches = MakeBatches(5);
  ASSERT_TRUE(WriteDataset(path_, batches).ok());
  auto loaded = LoadDataset(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 5u);
  EXPECT_EQ((*loaded)[3].shape, batches[3].shape);
  EXPECT_EQ((*loaded)[3].batch_size(), batches[3].batch_size());
  EXPECT_NEAR((*loaded)[3].data[7], batches[3].data[7], 1e-3f);
}

TEST_F(DatasetTest, MissingFileIsNotFound) {
  EXPECT_TRUE(LoadDataset("/nonexistent/ds.jsonl").status().IsNotFound());
}

TEST_F(DatasetTest, MalformedLineIsCorruption) {
  std::ofstream out(path_);
  out << MakeBatches(1)[0].ToJson() << "\n";
  out << "{not json\n";
  out.close();
  auto loaded = LoadDataset(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), crayfish::StatusCode::kCorruption);
}

TEST_F(DatasetTest, MixedShapesRejected) {
  auto a = MakeBatches(1)[0];
  crayfish::Rng rng(9);
  DataGenerator other({2, 2}, 2, rng);
  auto b = other.NextMaterialized(0.0);
  ASSERT_TRUE(WriteDataset(path_, {a, b}).ok());
  EXPECT_TRUE(LoadDataset(path_).status().IsInvalidArgument());
}

TEST_F(DatasetTest, EmptyDatasetRejected) {
  std::ofstream out(path_);
  out.close();
  EXPECT_TRUE(LoadDataset(path_).status().IsInvalidArgument());
}

TEST(DataBatchTest, RejectsBadIdsAndDims) {
  // A shape of [-1, -28] used to load, and a replay of it scored every
  // event; fractional dims truncated and out-of-range ids wrapped.
  for (const char* json : {R"({"shape":[-1,-28],"data":[1,2]})",
                           R"({"shape":[-2],"data":[1,2]})",
                           R"({"shape":[0],"data":[]})",
                           R"({"shape":[2.5],"data":[1,2]})",
                           R"({"shape":[1e300],"data":[1]})",
                           R"({"shape":[65536,65536],"data":[1]})",
                           R"({"id":-1,"shape":[1],"data":[1]})",
                           R"({"id":1.5,"shape":[1],"data":[1]})",
                           R"({"id":"7","shape":[1],"data":[1]})",
                           R"({"ts":"0.5","shape":[1],"data":[1]})"}) {
    EXPECT_TRUE(
        CrayfishDataBatch::FromJson(json).status().IsInvalidArgument())
        << json;
  }
  auto batch = CrayfishDataBatch::FromJson(
      R"({"id":7,"ts":0.5,"shape":[2],"data":[1,2,3,4]})");
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->id, 7u);
  EXPECT_DOUBLE_EQ(batch->created_at, 0.5);
  EXPECT_EQ(batch->batch_size(), 2);
}

TEST_F(DatasetTest, GeneratorReplayCyclesAndRestamps) {
  auto batches = MakeBatches(3);
  crayfish::Rng rng(11);
  DataGenerator gen(batches, rng);
  EXPECT_TRUE(gen.replaying_dataset());
  EXPECT_EQ(gen.batch_size(), 2);
  EXPECT_EQ(gen.sample_shape(), (std::vector<int64_t>{4, 4}));
  for (int i = 0; i < 7; ++i) {
    CrayfishDataBatch b = gen.NextMaterialized(100.0 + i);
    EXPECT_EQ(b.id, static_cast<uint64_t>(i));
    EXPECT_DOUBLE_EQ(b.created_at, 100.0 + i);
    // Content cycles through the dataset.
    EXPECT_NEAR(b.data[0], batches[static_cast<size_t>(i % 3)].data[0],
                1e-3f);
  }
}

TEST_F(DatasetTest, ReplayWireBytesTrackRealJson) {
  auto batches = MakeBatches(4);
  crayfish::Rng rng(13);
  DataGenerator gen(batches, rng);
  const double real =
      static_cast<double>(batches[0].ToJson().size());
  EXPECT_NEAR(static_cast<double>(gen.BatchWireBytes()), real, real * 0.1);
}

TEST_F(DatasetTest, ExperimentReplaysDatasetEndToEnd) {
  // A whole experiment fed from a file-backed dataset (§3.1's "read real
  // datasets" mode).
  crayfish::Rng rng(17);
  DataGenerator gen({28, 28}, 1, rng);
  std::vector<CrayfishDataBatch> batches;
  for (int i = 0; i < 8; ++i) {
    batches.push_back(gen.NextMaterialized(0.0));
  }
  ASSERT_TRUE(WriteDataset(path_, batches).ok());

  ExperimentConfig cfg;
  cfg.engine = "flink";
  cfg.serving = "onnx";
  cfg.dataset_path = path_;
  cfg.input_rate = 100.0;
  cfg.duration_s = 5.0;
  cfg.drain_s = 2.0;
  auto result = RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->events_sent, 400u);
  EXPECT_EQ(result->events_scored, result->events_sent);
}

TEST_F(DatasetTest, ExperimentWithMissingDatasetFails) {
  ExperimentConfig cfg;
  cfg.dataset_path = "/no/such/file.jsonl";
  cfg.input_rate = 10.0;
  EXPECT_TRUE(RunExperiment(cfg).status().IsNotFound());
}

}  // namespace
}  // namespace crayfish::core
