// Seeded byte-mutation test over every user input the simulator reads:
// the example properties files and JSON specs, and serialized models. Each
// mutated input must either load or return a Status error — no crash, no
// hang, and (in the ASan/UBSan CI leg, `ctest -L inputs`) no sanitizer
// report. The seed and iteration counts are fixed, so a failure replays
// exactly.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/config.h"
#include "common/rng.h"
#include "core/properties.h"
#include "fault/plan.h"
#include "model/formats.h"
#include "model/graph.h"
#include "obs/slo.h"
#include "scale/policy.h"
#include "scale/workload.h"

namespace crayfish {
namespace {

constexpr uint64_t kSeed = 20261018;
constexpr int kTextMutants = 400;  // per config file
/// Mutants per model and format: as many as fit in this many decoded
/// bytes, at most 24, and at least one in ONNX. TinyResNet (~32 MB, about a
/// second per decode under ASan) so gets a single mutant.
constexpr size_t kDecodeBudgetBytes = 2 << 20;

/// Applies 1-4 random edits: flip a byte, insert a random byte, or delete
/// one. Half of the edits land in the first 64 bytes, where headers,
/// lengths and the first keys live.
template <typename Buffer>
void Mutate(Buffer* buf, Rng* rng) {
  const int edits = 1 + static_cast<int>(rng->NextUint64(4));
  for (int e = 0; e < edits; ++e) {
    const size_t span = buf->size() + 1;
    const size_t limit = rng->Bernoulli(0.5) ? std::min<size_t>(span, 64)
                                             : span;
    const size_t pos = rng->NextUint64(limit);
    const auto byte = static_cast<typename Buffer::value_type>(
        rng->NextUint64(256));
    switch (rng->NextUint64(3)) {
      case 0:
        if (pos < buf->size()) (*buf)[pos] ^= byte == 0 ? 1 : byte;
        break;
      case 1:
        buf->insert(buf->begin() + static_cast<std::ptrdiff_t>(pos), byte);
        break;
      default:
        if (pos < buf->size()) {
          buf->erase(buf->begin() + static_cast<std::ptrdiff_t>(pos));
        }
        break;
    }
  }
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The loader for one example file, chosen by its name; returns the load
/// status.
std::function<Status(const std::string&)> LoaderFor(
    const std::filesystem::path& path) {
  const std::string name = path.filename().string();
  if (path.extension() == ".properties") {
    return [dir = path.parent_path().string()](const std::string& text) {
      CRAYFISH_ASSIGN_OR_RETURN(Config props, Config::FromProperties(text));
      return core::ExperimentConfigFromProperties(props, dir).status();
    };
  }
  if (name.rfind("faults_", 0) == 0) {
    return [](const std::string& text) {
      return fault::FaultPlan::FromJsonText(text).status();
    };
  }
  if (name.rfind("slo_", 0) == 0) {
    return [](const std::string& text) {
      return obs::SloConfig::FromJsonText(text).status();
    };
  }
  if (name.rfind("workload_", 0) == 0) {
    return [](const std::string& text) {
      return scale::WorkloadSpec::FromJsonText(text).status();
    };
  }
  if (name.rfind("autoscaler_", 0) == 0) {
    return [](const std::string& text) {
      return scale::PolicyConfig::FromJsonText(text).status();
    };
  }
  return nullptr;
}

TEST(InputMutationTest, EveryMutatedConfigLoadsOrFailsWithStatus) {
  const std::filesystem::path dir =
      std::filesystem::path(CRAYFISH_SOURCE_DIR) / "examples" / "configs";
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const auto ext = entry.path().extension();
    if (ext == ".json" || ext == ".properties") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 10u);
  Rng rng(kSeed);
  for (const auto& path : files) {
    const auto load = LoaderFor(path);
    ASSERT_TRUE(load) << "no loader for " << path
                      << "; name new example files after their spec kind";
    const std::string original = ReadFile(path);
    EXPECT_TRUE(load(original).ok()) << path;
    int loaded = 0;
    for (int i = 0; i < kTextMutants; ++i) {
      std::string text = original;
      Mutate(&text, &rng);
      if (load(text).ok()) ++loaded;
    }
    // Most edits break the syntax or a value; if nearly all of them still
    // load, the loader is ignoring its input.
    EXPECT_LT(loaded, kTextMutants * 3 / 4) << path;
  }
}

TEST(InputMutationTest, EveryMutatedModelLoadsOrFailsWithStatus) {
  // The zoo without ResNet50: its ~100 MB of weights would cost seconds per
  // mutant, and TinyResNet carries the same layer kinds.
  std::vector<model::ModelGraph> zoo;
  zoo.push_back(model::BuildFfnn());
  zoo.push_back(model::BuildTinyResNet());
  zoo.push_back(model::BuildLeNet());
  zoo.push_back(model::BuildAutoencoder());
  zoo.push_back(model::BuildGruClassifier());
  Rng rng(kSeed);
  for (model::ModelGraph& graph : zoo) {
    graph.InitializeWeights(&rng);
    for (model::ModelFormat format :
         {model::ModelFormat::kOnnx, model::ModelFormat::kSavedModel,
          model::ModelFormat::kTorch, model::ModelFormat::kH5}) {
      auto bytes = model::Serialize(graph, format);
      ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
      const size_t mutants = std::clamp<size_t>(
          kDecodeBudgetBytes / bytes->size(),
          format == model::ModelFormat::kOnnx ? 1 : 0, 24);
      for (size_t i = 0; i < mutants; ++i) {
        Bytes mutant = *bytes;
        Mutate(&mutant, &rng);
        (void)model::Deserialize(mutant);  // either outcome is fine
      }
    }
  }
}

}  // namespace
}  // namespace crayfish
