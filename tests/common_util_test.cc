#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/config.h"
#include "common/rng.h"
#include "common/stats.h"

namespace crayfish {
namespace {

// ---------------------------------------------------------------- bytes --

TEST(BytesTest, RoundTripsScalars) {
  ByteWriter w;
  w.PutU8(7);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFULL);
  w.PutI64(-42);
  w.PutF32(1.5f);
  w.PutF64(-2.25);
  ByteReader r(w.bytes());
  EXPECT_EQ(*r.GetU8(), 7);
  EXPECT_EQ(*r.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.GetU64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(*r.GetI64(), -42);
  EXPECT_EQ(*r.GetF32(), 1.5f);
  EXPECT_EQ(*r.GetF64(), -2.25);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, RoundTripsStringsBlocksArrays) {
  ByteWriter w;
  w.PutString("crayfish");
  const uint8_t blob[] = {1, 2, 3};
  w.PutBlock(blob, sizeof(blob));
  const float floats[] = {0.5f, -0.25f, 3.0f};
  w.PutF32Array(floats, 3);
  ByteReader r(w.bytes());
  EXPECT_EQ(*r.GetString(), "crayfish");
  Bytes block = *r.GetBlock();
  ASSERT_EQ(block.size(), 3u);
  EXPECT_EQ(block[2], 3);
  std::vector<float> arr = *r.GetF32Array();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_EQ(arr[1], -0.25f);
}

TEST(BytesTest, TruncationYieldsCorruption) {
  ByteWriter w;
  w.PutU64(1);
  ByteReader r(w.bytes().data(), 4);  // cut in half
  auto v = r.GetU64();
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kCorruption);
}

TEST(BytesTest, StringLengthBeyondBufferIsCorruption) {
  ByteWriter w;
  w.PutU32(1000);  // claims 1000 bytes follow
  ByteReader r(w.bytes());
  EXPECT_FALSE(r.GetString().ok());
}

TEST(BytesTest, EmptyStringAndArray) {
  ByteWriter w;
  w.PutString("");
  w.PutF32Array(nullptr, 0);
  ByteReader r(w.bytes());
  EXPECT_EQ(*r.GetString(), "");
  EXPECT_TRUE(r.GetF32Array()->empty());
}

// ---------------------------------------------------------------- config --

TEST(ConfigTest, ParsesProperties) {
  auto cfg = Config::FromProperties(
      "# comment\n"
      "bsz = 32\n"
      "engine= flink \n"
      "\n"
      "rate = 1.5\n"
      "gpu = true\n");
  ASSERT_TRUE(cfg.ok());
  EXPECT_EQ(cfg->values().size(), 4u);
  EXPECT_EQ(*cfg->GetString("engine"), "flink");
  int bsz = 0;
  ASSERT_TRUE(ParseNumber(*cfg->GetString("bsz"), &bsz).ok());
  EXPECT_EQ(bsz, 32);
  double rate = 0.0;
  ASSERT_TRUE(ParseNumber(*cfg->GetString("rate"), &rate).ok());
  EXPECT_DOUBLE_EQ(rate, 1.5);
  bool gpu = false;
  ASSERT_TRUE(ParseBool(*cfg->GetString("gpu"), &gpu).ok());
  EXPECT_TRUE(gpu);
}

TEST(ConfigTest, RejectsMalformedLines) {
  EXPECT_FALSE(Config::FromProperties("novalue\n").ok());
  EXPECT_FALSE(Config::FromProperties("= x\n").ok());
}

TEST(ConfigTest, LaterKeysOverrideEarlier) {
  auto cfg = Config::FromProperties("a = 1\na = 2\n");
  ASSERT_TRUE(cfg.ok());
  EXPECT_EQ(*cfg->GetString("a"), "2");
}

TEST(ConfigTest, TypeErrorsAreReported) {
  Config cfg;
  cfg.Set("x", "hello");
  const std::string x = *cfg.GetString("x");
  int64_t i = 0;
  double d = 0.0;
  bool b = false;
  EXPECT_FALSE(ParseNumber(x, &i).ok());
  EXPECT_FALSE(ParseNumber(x, &d).ok());
  EXPECT_FALSE(ParseBool(x, &b).ok());
  EXPECT_FALSE(cfg.GetString("missing").ok());
}

TEST(ConfigTest, IntegralDoubleReadsAsInt) {
  Config cfg;
  cfg.SetDouble("n", 16.0);
  int64_t n = 0;
  ASSERT_TRUE(ParseNumber(*cfg.GetString("n"), &n).ok());
  EXPECT_EQ(n, 16);
}

TEST(ConfigTest, ParseBoolSpellings) {
  for (const char* yes : {"true", "1", "yes"}) {
    bool b = false;
    ASSERT_TRUE(ParseBool(yes, &b).ok()) << yes;
    EXPECT_TRUE(b) << yes;
  }
  for (const char* no : {"false", "0", "no"}) {
    bool b = true;
    ASSERT_TRUE(ParseBool(no, &b).ok()) << no;
    EXPECT_FALSE(b) << no;
  }
  bool b = true;
  for (const char* bad : {"maybe", "TRUE", "", " true", "2"}) {
    EXPECT_FALSE(ParseBool(bad, &b).ok()) << bad;
  }
  EXPECT_TRUE(b);  // untouched on error
}

TEST(ConfigTest, ParseNumberIsStrictAboutTypeAndRange) {
  double d = 0.0;
  EXPECT_TRUE(ParseNumber("2.5", &d).ok());
  EXPECT_EQ(d, 2.5);
  EXPECT_FALSE(ParseNumber("4x", &d).ok());
  EXPECT_FALSE(ParseNumber("", &d).ok());
  for (const char* non_finite : {"nan", "-nan", "inf", "-inf", "infinity",
                                 "1e999", "-1e999"}) {
    EXPECT_FALSE(ParseNumber(non_finite, &d).ok()) << non_finite;
  }
  EXPECT_EQ(d, 2.5);  // untouched on error

  int i = 0;
  EXPECT_TRUE(ParseNumber("16.0", &i).ok());
  EXPECT_EQ(i, 16);
  EXPECT_TRUE(ParseNumber("1e3", &i).ok());
  EXPECT_EQ(i, 1000);
  EXPECT_TRUE(ParseNumber("2147483647", &i).ok());
  EXPECT_EQ(i, 2147483647);
  EXPECT_FALSE(ParseNumber("2147483648", &i).ok());
  EXPECT_FALSE(ParseNumber("1e12", &i).ok());
  EXPECT_FALSE(ParseNumber("2.5", &i).ok());
  EXPECT_FALSE(ParseNumber("nan", &i).ok());
  EXPECT_FALSE(ParseNumber("4x", &i).ok());

  int64_t big = 0;
  EXPECT_TRUE(ParseNumber("9007199254740993", &big).ok());
  EXPECT_EQ(big, 9007199254740993LL);  // exact, not rounded via double
  EXPECT_FALSE(ParseNumber("1e20", &big).ok());

  uint64_t seed = 0;
  EXPECT_TRUE(ParseNumber("18446744073709551615", &seed).ok());
  EXPECT_EQ(seed, UINT64_MAX);
  EXPECT_FALSE(ParseNumber("-1", &seed).ok());
  EXPECT_FALSE(ParseNumber("1e30", &seed).ok());
}

TEST(ConfigTest, ConvertNumberSharesTheTextChecks) {
  // JSON numbers arrive as doubles and pass the same checks as text.
  int i = 7;
  EXPECT_TRUE(ConvertNumber(16.0, &i).ok());
  EXPECT_EQ(i, 16);
  EXPECT_FALSE(ConvertNumber(2.5, &i).ok());
  EXPECT_FALSE(ConvertNumber(4294967296.0, &i).ok());
  EXPECT_FALSE(ConvertNumber(-3e9, &i).ok());
  EXPECT_FALSE(ConvertNumber(std::nan(""), &i).ok());
  EXPECT_EQ(i, 16);  // untouched on error
  uint64_t u = 0;
  EXPECT_FALSE(ConvertNumber(-1.0, &u).ok());
  EXPECT_FALSE(ConvertNumber(1e20, &u).ok());
  EXPECT_FALSE(ConvertNumber(18446744073709549568.0, &u).ok());
  int64_t big = 0;
  EXPECT_FALSE(ConvertNumber(9223372036854775808.0, &big).ok());
  EXPECT_FALSE(ConvertNumber(-9223372036854775808.0, &big).ok());
  // A double is exact for integers below 2^53 only: 2^53 + 1 reads back
  // as 2^53, so 2^53 itself may be a rounded value and is refused.
  EXPECT_TRUE(ConvertNumber(9007199254740991.0, &big).ok());
  EXPECT_EQ(big, 9007199254740991LL);
  EXPECT_TRUE(ConvertNumber(-9007199254740991.0, &big).ok());
  EXPECT_FALSE(ConvertNumber(9007199254740992.0, &big).ok());
  EXPECT_FALSE(ConvertNumber(-9007199254740992.0, &u).ok());
  EXPECT_FALSE(ConvertNumber(9007199254740992.0, &u).ok());
  EXPECT_EQ(big, -9007199254740991LL);
  double d = 0.0;
  EXPECT_FALSE(ConvertNumber(HUGE_VAL, &d).ok());
  EXPECT_FALSE(ConvertNumber(-HUGE_VAL, &d).ok());
  EXPECT_TRUE(ConvertNumber(-0.5, &d).ok());
  EXPECT_EQ(d, -0.5);
}

// ----------------------------------------------------------------- stats --

TEST(RunningStatsTest, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10 + i;
    all.Add(x);
    (i % 2 == 0 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(SampleSetTest, ExactPercentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.Add(i);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100.0);
  EXPECT_NEAR(s.Percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(s.Percentile(95), 95.05, 1e-9);
}

TEST(SampleSetTest, DiscardWarmupDropsPrefix) {
  SampleSet s;
  for (int i = 0; i < 100; ++i) s.Add(i < 25 ? 1000.0 : 1.0);
  s.DiscardWarmup(0.25);
  EXPECT_EQ(s.count(), 75u);
  EXPECT_DOUBLE_EQ(s.mean(), 1.0);
}

TEST(SampleSetTest, StddevOfConstantIsZero) {
  SampleSet s;
  for (int i = 0; i < 10; ++i) s.Add(3.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(HistogramTest, PercentileApproximatesDistribution) {
  Histogram h(0.1, 1000.0, 64);
  for (int i = 1; i <= 1000; ++i) h.Add(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000u);
  const double p50 = h.Percentile(50);
  EXPECT_GT(p50, 300.0);
  EXPECT_LT(p50, 800.0);
}

TEST(HistogramTest, OutOfRangeClampsToEdges) {
  Histogram h(1.0, 100.0, 10);
  h.Add(0.0001);
  h.Add(1e9);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(h.num_buckets() - 1), 1u);
}

TEST(HistogramTest, MergeIsEquivalentToAddingEverySample) {
  // Partitioning a stream across shards and merging the shard histograms
  // must reproduce the single-histogram result bucket for bucket — the
  // property the telemetry timeline's per-window roll-up relies on.
  Histogram whole(0.1, 1000.0, 64);
  Histogram shard_a(0.1, 1000.0, 64);
  Histogram shard_b(0.1, 1000.0, 64);
  for (int i = 1; i <= 1000; ++i) {
    const double x = static_cast<double>(i);
    whole.Add(x);
    (i % 3 == 0 ? shard_a : shard_b).Add(x);
  }
  shard_a.Merge(shard_b);
  ASSERT_EQ(shard_a.count(), whole.count());
  for (size_t i = 0; i < whole.num_buckets(); ++i) {
    EXPECT_EQ(shard_a.bucket_count(i), whole.bucket_count(i)) << "bucket " << i;
  }
  EXPECT_DOUBLE_EQ(shard_a.Percentile(50), whole.Percentile(50));
  EXPECT_DOUBLE_EQ(shard_a.Percentile(99), whole.Percentile(99));
}

TEST(HistogramTest, MergeIntoEmptyAndOfEmptyAreIdentities) {
  Histogram a(0.1, 1000.0, 64);
  Histogram b(0.1, 1000.0, 64);
  a.Add(5.0);
  const double p50 = a.Percentile(50);
  a.Merge(b);  // empty rhs: no-op
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.Percentile(50), p50);
  b.Merge(a);  // empty lhs: copies the distribution
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.Percentile(50), p50);
}

TEST(HistogramDeathTest, MergeChecksBucketGeometry) {
  Histogram coarse(0.1, 1000.0, 32);
  Histogram fine(0.1, 1000.0, 64);
  Histogram shifted(0.2, 1000.0, 32);
  EXPECT_DEATH(coarse.Merge(fine), "");
  EXPECT_DEATH(coarse.Merge(shifted), "");
}

TEST(WindowedThroughputTest, RatesPerWindow) {
  WindowedThroughput wt(1.0);
  for (int i = 0; i < 10; ++i) wt.Record(0.5);      // 10 in window 0
  for (int i = 0; i < 20; ++i) wt.Record(1.5);      // 20 in window 1
  wt.Record(3.2, 5);                                 // 5 in window 3
  auto rates = wt.RatesPerSecond();
  ASSERT_EQ(rates.size(), 4u);
  EXPECT_DOUBLE_EQ(rates[0], 10.0);
  EXPECT_DOUBLE_EQ(rates[1], 20.0);
  EXPECT_DOUBLE_EQ(rates[2], 0.0);
  EXPECT_DOUBLE_EQ(rates[3], 5.0);
}

TEST(WindowedThroughputTest, SteadyStateSkipsWarmup) {
  WindowedThroughput wt(1.0);
  for (int w = 0; w < 10; ++w) {
    const int events = w < 5 ? 1 : 100;
    for (int i = 0; i < events; ++i) {
      wt.Record(w + 0.5);
    }
  }
  EXPECT_NEAR(wt.SteadyStateRate(0.5), 100.0, 1e-9);
}

// ------------------------------------------------------------------- rng --

TEST(RngTest, DeterministicUnderSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BoundedValuesInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextUint64(17), 17u);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    const double u = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(RngTest, GaussianMomentsApproximatelyCorrect) {
  Rng rng(99);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.Add(rng.Gaussian(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(RngTest, ExponentialMeanIsInverseRate) {
  Rng rng(5);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.Add(rng.Exponential(4.0));
  EXPECT_NEAR(s.mean(), 0.25, 0.02);
}

TEST(RngTest, GammaMeanIsShapeTimesScale) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.Add(rng.Gamma(3.0, 2.0));
  EXPECT_NEAR(s.mean(), 6.0, 0.3);
  // Gamma(k, theta) variance = k * theta^2 = 12.
  EXPECT_NEAR(s.variance(), 12.0, 1.5);
}

TEST(RngTest, GammaSupportsShapeBelowOne) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.Gamma(0.5, 1.0);
    EXPECT_GE(x, 0.0);
    s.Add(x);
  }
  EXPECT_NEAR(s.mean(), 0.5, 0.05);
}

TEST(RngTest, LogNormalWithMeanOneMultiplier) {
  Rng rng(21);
  RunningStats s;
  const double sigma = 0.2;
  for (int i = 0; i < 20000; ++i) {
    s.Add(rng.LogNormal(-0.5 * sigma * sigma, sigma));
  }
  EXPECT_NEAR(s.mean(), 1.0, 0.02);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.Fork();
  // The fork must not replay the parent's stream.
  Rng parent_copy(42);
  parent_copy.Fork();
  EXPECT_EQ(a.NextUint64(), parent_copy.NextUint64());
  std::set<uint64_t> seen;
  for (int i = 0; i < 32; ++i) seen.insert(child.NextUint64());
  EXPECT_EQ(seen.size(), 32u);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(77);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Bernoulli(0.3)) ++heads;
  }
  EXPECT_NEAR(heads / 10000.0, 0.3, 0.02);
}

}  // namespace
}  // namespace crayfish
