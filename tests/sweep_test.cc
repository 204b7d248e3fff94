// Witnesses for the parallel sweep runner (src/core/sweep.h): a sweep run
// across host threads must be indistinguishable — byte for byte — from the
// serial loop it replaced, results must come back in submission order, and
// a failing config must surface the earliest-submitted error.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/report.h"
#include "core/sweep.h"

namespace crayfish::core {
namespace {

ExperimentConfig SmallConfig(uint64_t seed) {
  ExperimentConfig cfg;
  cfg.engine = "flink";
  cfg.serving = "onnx";
  cfg.model = "ffnn";
  cfg.batch_size = 4;
  cfg.input_rate = 300.0;
  cfg.duration_s = 3.0;
  cfg.drain_s = 2.0;
  cfg.seed = seed;
  return cfg;
}

/// Bit-exact rendering of a double, as in determinism_test: decimal
/// round-trips could mask exactly the low-bit drift a racy sweep would
/// introduce.
void AppendBits(std::ostringstream* os, double d) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  *os << std::hex << bits << std::dec << ",";
}

std::string Fingerprint(const ExperimentResult& r) {
  std::ostringstream os;
  os << r.events_sent << "|" << r.events_scored << "|"
     << r.sim_events_executed << "|";
  AppendBits(&os, r.sim_end_s);
  os << "\n";
  for (const Measurement& m : r.measurements) {
    os << m.batch_id << ":" << m.batch_size << ":";
    AppendBits(&os, m.create_time);
    AppendBits(&os, m.append_time);
    os << "\n";
  }
  os << r.summary.ToJson() << "\n";
  return os.str();
}

/// A six-point sweep mixing engines, batch sizes, and seeds — enough
/// variety that any cross-thread state leak or result misordering would
/// change at least one fingerprint.
std::vector<ExperimentConfig> MixedSweep() {
  std::vector<ExperimentConfig> configs;
  for (int i = 0; i < 6; ++i) {
    ExperimentConfig cfg = SmallConfig(100 + static_cast<uint64_t>(i));
    cfg.engine = (i % 2 == 0) ? "flink" : "kafka-streams";
    cfg.batch_size = 1 + i;
    cfg.input_rate = 200.0 + 50.0 * i;
    configs.push_back(std::move(cfg));
  }
  return configs;
}

TEST(SweepTest, ParallelMatchesSerialByteForByte) {
  const std::vector<ExperimentConfig> configs = MixedSweep();

  auto serial = SweepRunner(1).RunAll(configs);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  auto parallel = SweepRunner(4).RunAll(configs);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  ASSERT_EQ(serial->size(), configs.size());
  ASSERT_EQ(parallel->size(), configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    ASSERT_GT((*serial)[i].events_scored, 0u) << "config " << i;
    const std::string a = Fingerprint((*serial)[i]);
    const std::string b = Fingerprint((*parallel)[i]);
    if (a != b) {
      size_t at = 0;
      while (at < a.size() && at < b.size() && a[at] == b[at]) ++at;
      FAIL() << "config " << i << " diverged at byte " << at << " (sizes "
             << a.size() << " vs " << b.size() << ")";
    }
  }
}

TEST(SweepTest, ParallelProducesIdenticalCsvBytes) {
  // The property the bench harness actually relies on: a ReportTable built
  // from a parallel sweep serializes to the same CSV bytes as the serial
  // run's table.
  const std::vector<ExperimentConfig> configs = MixedSweep();
  const auto to_csv = [&](const std::vector<ExperimentResult>& results) {
    ReportTable table("sweep", {"engine", "bsz", "thr ev/s", "lat ms"});
    for (size_t i = 0; i < results.size(); ++i) {
      table.AddRow({configs[i].engine, std::to_string(configs[i].batch_size),
                    ReportTable::Num(results[i].summary.throughput_eps),
                    ReportTable::Num(results[i].summary.latency_mean_ms)});
    }
    return table.ToCsv();
  };

  auto serial = RunExperiments(configs, 1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  auto parallel = RunExperiments(configs, 4);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(to_csv(*serial), to_csv(*parallel));
}

TEST(SweepTest, ResultsComeBackInSubmissionOrder) {
  // Run each config alone first, then as one jobs=4 batch: slot i of the
  // batch must hold exactly config i's result no matter which thread
  // finished first.
  const std::vector<ExperimentConfig> configs = MixedSweep();
  std::vector<std::string> expected;
  for (const ExperimentConfig& cfg : configs) {
    auto result = RunExperiment(cfg);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    expected.push_back(Fingerprint(*result));
  }
  // The individual runs are all distinct, so order mix-ups cannot hide.
  for (size_t i = 0; i + 1 < expected.size(); ++i) {
    ASSERT_NE(expected[i], expected[i + 1]);
  }

  auto batch = RunExperiments(configs, 4);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  for (size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(Fingerprint((*batch)[i]), expected[i]) << "slot " << i;
  }
}

TEST(SweepTest, EarliestSubmittedErrorWins) {
  std::vector<ExperimentConfig> configs = MixedSweep();
  configs[4].engine = "no-such-engine-late";
  configs[2].engine = "no-such-engine-early";

  auto result = RunExperiments(configs, 4);
  ASSERT_FALSE(result.ok());
  const std::string message = result.status().ToString();
  EXPECT_NE(message.find("no-such-engine-early"), std::string::npos)
      << message;
}

TEST(SweepTest, MakeRepeatedConfigsReproducesTheSeedChain) {
  // The repeat seed derivation is cumulative and applies before every run
  // (the first included):
  // seed_i = seed_{i-1} * 1000003 + i + 1, seed_{-1} = config.seed.
  // The materialized chain must match, or repeats would diverge from the
  // serial protocol.
  ExperimentConfig base = SmallConfig(42);
  const auto chain = MakeRepeatedConfigs(base, 4);
  ASSERT_EQ(chain.size(), 4u);
  uint64_t seed = 42;
  for (int i = 0; i < 4; ++i) {
    seed = seed * 1000003 + static_cast<uint64_t>(i) + 1;
    EXPECT_EQ(chain[i].seed, seed) << "repeat " << i;
  }
}

TEST(SweepTest, JobsResolutionAndDefaults) {
  EXPECT_GE(ResolveSweepJobs(1), 1);
  EXPECT_EQ(ResolveSweepJobs(7), 7);
  const int saved = DefaultSweepJobs();
  SetDefaultSweepJobs(3);
  EXPECT_EQ(ResolveSweepJobs(0), 3);
  EXPECT_EQ(ResolveSweepJobs(5), 5);  // explicit beats the default
  SetDefaultSweepJobs(saved);
  EXPECT_GE(ResolveSweepJobs(0), 1);  // hardware concurrency, floored at 1
}

TEST(SweepTest, EmptySweepIsFine) {
  auto result = RunExperiments({}, 4);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

}  // namespace
}  // namespace crayfish::core
