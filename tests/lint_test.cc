#include "crayfish_lint/lint.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "crayfish_lint/include_graph.h"
#include "crayfish_lint/ir.h"
#include "crayfish_lint/lexer.h"
#include "crayfish_lint/parser.h"

namespace crayfish::lint {
namespace {

std::vector<Finding> Lint(const std::string& path, const std::string& src) {
  LintOptions options;
  options.fix_suggestions = true;
  return LintSource(path, src, options);
}

bool HasRule(const std::vector<Finding>& fs, Rule r) {
  for (const Finding& f : fs) {
    if (f.rule == r) return true;
  }
  return false;
}

int CountRule(const std::vector<Finding>& fs, Rule r) {
  int n = 0;
  for (const Finding& f : fs) n += f.rule == r ? 1 : 0;
  return n;
}

std::vector<FileIR> ParseAll(
    const std::vector<std::pair<std::string, std::string>>& sources) {
  std::vector<FileIR> irs;
  irs.reserve(sources.size());
  for (const auto& [path, src] : sources) {
    irs.push_back(ParseSource(path, src));
  }
  return irs;
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(LexerTest, TokenKindsAndLines) {
  const auto toks = Lex("int x = 42; // trailing\n\"str\" 'c' #include <a>\n");
  ASSERT_GE(toks.size(), 7u);
  EXPECT_TRUE(toks[0].IsIdent("int"));
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[2].kind, TokenKind::kPunct);
  EXPECT_EQ(toks[3].kind, TokenKind::kNumber);
  EXPECT_EQ(toks[5].kind, TokenKind::kComment);
  EXPECT_EQ(toks[6].kind, TokenKind::kString);
  EXPECT_EQ(toks[6].line, 2);
}

TEST(LexerTest, BannedNamesInsideStringsAndCommentsAreNotCode) {
  // "time(" in a string literal or comment must not trip R1.
  const auto fs = Lint("src/sim/a.cc",
                       "const char* s = \"time(now)\";\n"
                       "// system_clock is banned\n"
                       "/* rand() too */\n");
  EXPECT_TRUE(fs.empty());
}

TEST(LexerTest, RawStringsAreSingleTokens) {
  const auto toks = Lex("auto s = R\"(time( rand( ))\"; int y;");
  bool saw_raw = false;
  for (const auto& t : toks) {
    if (t.kind == TokenKind::kString) {
      saw_raw = true;
      EXPECT_NE(t.text.find("rand("), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_raw);
  const auto fs = Lint("src/sim/a.cc", "auto s = R\"(time(0))\";\n");
  EXPECT_TRUE(fs.empty());
}

TEST(LexerTest, PreprocessorDirectivesAreOpaque) {
  const auto fs = Lint("src/sim/a.cc", "#include <random>\n#define T time\n");
  EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------------
// R1: wall clock
// ---------------------------------------------------------------------------

TEST(R1WallClockTest, FlagsChronoClocksAndLibcTime) {
  const auto fs = Lint("src/sim/a.cc",
                       "auto t = std::chrono::steady_clock::now();\n"
                       "double u = time(nullptr);\n"
                       "long v = std::time(nullptr);\n");
  EXPECT_EQ(CountRule(fs, Rule::kWallClock), 3);
  EXPECT_EQ(fs[0].line, 1);
}

TEST(R1WallClockTest, MemberNamedTimeIsNotFlagged) {
  const auto fs = Lint("src/sim/a.cc",
                       "double a = sim.time();\n"
                       "double b = clockwork::time(x);\n"
                       "double c = m.create_time;\n");
  EXPECT_TRUE(fs.empty());
}

TEST(R1WallClockTest, LoggingSinkIsAllowlisted) {
  const std::string src = "auto t = std::chrono::system_clock::now();\n";
  EXPECT_TRUE(Lint("src/common/logging.cc", src).empty());
  EXPECT_TRUE(HasRule(Lint("src/common/config.cc", src), Rule::kWallClock));
}

// ---------------------------------------------------------------------------
// R2: ambient randomness
// ---------------------------------------------------------------------------

TEST(R2RandomnessTest, FlagsRandFamilyAndStdEngines) {
  const auto fs = Lint("src/core/a.cc",
                       "int a = rand() % 6;\n"
                       "std::random_device rd;\n"
                       "std::mt19937 gen(rd());\n");
  EXPECT_EQ(CountRule(fs, Rule::kRandomness), 3);
}

TEST(R2RandomnessTest, RngImplementationIsAllowlisted) {
  const std::string src = "std::mt19937 reference_stream(42);\n";
  EXPECT_TRUE(Lint("src/common/rng.cc", src).empty());
  EXPECT_TRUE(Lint("src/common/rng.h", src).empty());
  EXPECT_TRUE(HasRule(Lint("src/common/stats.cc", src), Rule::kRandomness));
}

TEST(R2RandomnessTest, SeededCrayfishRngIsFine) {
  const auto fs = Lint("src/core/a.cc",
                       "crayfish::Rng rng(seed);\n"
                       "double d = rng.NextDouble();\n");
  EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------------
// R3: hash-order iteration
// ---------------------------------------------------------------------------

TEST(R3HashOrderTest, FlagsRangeForOverUnorderedMap) {
  const auto fs = Lint("src/broker/a.cc",
                       "std::unordered_map<std::string, int> counts;\n"
                       "for (const auto& [k, v] : counts) { use(k, v); }\n");
  ASSERT_EQ(CountRule(fs, Rule::kHashOrder), 1);
  EXPECT_EQ(fs[0].line, 2);
}

TEST(R3HashOrderTest, FlagsExplicitIteratorLoop) {
  const auto fs = Lint("src/sps/a.cc",
                       "std::unordered_set<int> live;\n"
                       "for (auto it = live.begin(); it != live.end(); ++it) "
                       "{}\n");
  EXPECT_EQ(CountRule(fs, Rule::kHashOrder), 1);
}

TEST(R3HashOrderTest, NestedTemplateArgumentsParse) {
  const auto fs = Lint(
      "src/serving/a.cc",
      "std::unordered_map<std::string, std::vector<int>> waiting;\n"
      "for (auto& [k, v] : waiting) {}\n");
  EXPECT_EQ(CountRule(fs, Rule::kHashOrder), 1);
}

TEST(R3HashOrderTest, OrderedContainersAndLookupsAreFine) {
  const auto fs = Lint("src/broker/a.cc",
                       "std::map<std::string, int> counts;\n"
                       "for (const auto& [k, v] : counts) {}\n"
                       "std::unordered_map<int, int> cache;\n"
                       "auto it = cache.find(3);\n"
                       "cache[4] = 5;\n");
  EXPECT_TRUE(fs.empty());
}

TEST(R3HashOrderTest, OnlySchedulingDirectoriesAreInScope) {
  const std::string src =
      "std::unordered_map<int, int> m;\n"
      "for (auto& [k, v] : m) {}\n";
  EXPECT_TRUE(Lint("src/tensor/a.cc", src).empty());
  EXPECT_FALSE(Lint("src/sim/a.cc", src).empty());
  EXPECT_FALSE(Lint("/abs/prefix/src/core/a.cc", src).empty());
  // Fault injection schedules DES events: iteration order is on the hot
  // path for determinism, so src/fault is in scope too.
  EXPECT_FALSE(Lint("src/fault/injector.cc", src).empty());
}

TEST(R3HashOrderTest, SuppressionOnLineSilences) {
  const auto fs = Lint(
      "src/sim/a.cc",
      "std::unordered_map<int, int> m;\n"
      "for (auto& [k, v] : m) {  // lint: order-independent sums commute\n"
      "}\n");
  EXPECT_TRUE(fs.empty());
}

TEST(R3HashOrderTest, StandaloneSuppressionCommentCoversNextLine) {
  const auto fs = Lint("src/sim/a.cc",
                       "std::unordered_map<int, int> m;\n"
                       "// lint: order-independent all values are max()ed\n"
                       "for (auto& [k, v] : m) {}\n");
  EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------------
// R5: float accumulators
// ---------------------------------------------------------------------------

TEST(R5FloatAccumTest, FlagsCompoundAssignAndAccumulatorNames) {
  const auto fs = Lint("src/core/metrics.cc",
                       "float drift = 0;\n"
                       "drift += sample;\n"
                       "float total_latency = 0;\n");
  EXPECT_EQ(CountRule(fs, Rule::kFloatAccum), 2);
}

TEST(R5FloatAccumTest, PlainFloatsAndDoublesAreFine) {
  const auto fs = Lint("src/core/metrics.cc",
                       "float scale = 0.5f;\n"    // never accumulated
                       "double sum = 0.0;\n"      // correct type
                       "float accuracy = 0.f;\n"  // 'acc' prefix != part
                       "std::vector<float> values;\n");
  EXPECT_TRUE(fs.empty());
}

TEST(R5FloatAccumTest, OnlyMetricsFilesAreInScope) {
  const std::string src = "float sum = 0;\nsum += x;\n";
  EXPECT_TRUE(Lint("src/tensor/ops.cc", src).empty());
  EXPECT_FALSE(Lint("src/common/stats.cc", src).empty());
  EXPECT_FALSE(Lint("src/obs/registry.cc", src).empty());
}

TEST(R5FloatAccumTest, TimelineAndSloAggregationIsInScope) {
  // The telemetry timeline and SLO monitor accumulate per-window sums and
  // budget fractions; float accumulators there would drift exactly like in
  // the metrics registry, so the whole obs module stays under R5.
  const std::string src = "float total_stall = 0;\ntotal_stall += dt;\n";
  EXPECT_FALSE(Lint("src/obs/timeline.cc", src).empty());
  EXPECT_FALSE(Lint("src/obs/slo.cc", src).empty());
  EXPECT_TRUE(Lint("src/obs/timeline.cc", "double total = 0.0;\n").empty());
}

// ---------------------------------------------------------------------------
// R6: host-threading primitives
// ---------------------------------------------------------------------------

TEST(R6HostThreadingTest, FlagsStdThreadingPrimitives) {
  const auto fs = Lint("src/sim/simulation.cc",
                       "std::thread worker([] {});\n"
                       "std::mutex mu;\n"
                       "std::atomic<int> n{0};\n"
                       "auto f = std::async([] { return 1; });\n"
                       "std::condition_variable cv;\n");
  EXPECT_EQ(CountRule(fs, Rule::kHostThreading), 5);
}

TEST(R6HostThreadingTest, BareIdentifiersAreNotPrimitives) {
  // Unqualified names (a variable called `thread`, a member `.atomic`)
  // and other namespaces' symbols must not trip the rule.
  const auto fs = Lint("src/sim/simulation.cc",
                       "int thread = 0;\n"
                       "config.mutex = true;\n"
                       "my::thread t;\n"
                       "// std::thread in a comment\n"
                       "const char* s = \"std::mutex\";\n");
  EXPECT_TRUE(fs.empty());
}

TEST(R6HostThreadingTest, SweepRunnerAndBenchAreAllowlisted) {
  const std::string src = "std::vector<std::jthread> pool;\n"
                          "std::atomic<size_t> next{0};\n";
  EXPECT_TRUE(Lint("src/core/sweep.cc", src).empty());
  EXPECT_TRUE(Lint("src/core/sweep.h", src).empty());
  EXPECT_TRUE(Lint("bench/bench_perf_harness.cc", src).empty());
  EXPECT_TRUE(Lint("/abs/prefix/bench/bench_common.h", src).empty());
  EXPECT_EQ(CountRule(Lint("src/core/experiment.cc", src),
                      Rule::kHostThreading), 2);
  EXPECT_EQ(CountRule(Lint("src/broker/cluster.cc", src),
                      Rule::kHostThreading), 2);
}

TEST(R6HostThreadingTest, RegistryMutexIsFlaggedLikeAnyOther) {
  // Every run owns its metric registry, so obs gets no mutex: the
  // registry files are checked like the rest of src (std::mutex twice,
  // std::lock_guard once).
  const std::string guard =
      "mutable std::mutex mu_;\n"
      "const std::lock_guard<std::mutex> lock(mu_);\n";
  EXPECT_EQ(CountRule(Lint("src/obs/registry.h", guard),
                      Rule::kHostThreading), 3);
  EXPECT_EQ(CountRule(Lint("src/obs/registry.cc", guard),
                      Rule::kHostThreading), 3);
  EXPECT_EQ(CountRule(Lint("src/sim/simulation.cc", guard),
                      Rule::kHostThreading), 3);
}

TEST(R6HostThreadingTest, SuppressionWithJustificationSilences) {
  const auto fs = Lint(
      "src/core/a.cc",
      "std::once_flag once;  // lint: host-threading-ok process-level init "
      "guard, never inside a simulation\n");
  EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------------
// R0: suppression hygiene + output format
// ---------------------------------------------------------------------------

TEST(R0SuppressionTest, UnknownKeywordIsAFinding) {
  const auto fs =
      Lint("src/sim/a.cc", "int x = 0;  // lint: order-indep typo'd\n");
  ASSERT_EQ(CountRule(fs, Rule::kSuppression), 1);
  EXPECT_NE(fs[0].message.find("order-indep"), std::string::npos);
}

TEST(R0SuppressionTest, RetiredRuleKeywordsAreUnknown) {
  // R4 and R8 are owned by [[nodiscard]] + -Werror and clang-tidy's
  // bugprone-use-after-move; their old keywords now suppress nothing.
  for (const std::string keyword : {"status-ignored", "move-ok"}) {
    const auto fs = Lint("src/sim/a.cc",
                         "int x = 0;  // lint: " + keyword + " a reason\n");
    ASSERT_EQ(CountRule(fs, Rule::kSuppression), 1) << keyword;
    EXPECT_NE(fs[0].message.find("unknown lint suppression keyword '" +
                                 keyword + "'"),
              std::string::npos)
        << fs[0].message;
  }
}

TEST(R0SuppressionTest, MissingJustificationIsAFindingAndDoesNotSuppress) {
  const auto fs = Lint("src/sim/a.cc",
                       "std::unordered_map<int, int> m;\n"
                       "for (auto& [k, v] : m) {}  // lint: order-independent\n");
  EXPECT_EQ(CountRule(fs, Rule::kSuppression), 1);
  EXPECT_EQ(CountRule(fs, Rule::kHashOrder), 1);  // still reported
}

TEST(R0SuppressionTest, UrlInsideDefineIsNotATrailingComment) {
  // `//` inside a quoted URL in a #define body must not be read as the start
  // of a trailing comment — before the raw-string fix, `lint:` text after it
  // was parsed as a (bogus) suppression attempt and tripped R0.
  const auto fs = Lint(
      "src/sim/a.cc",
      "#define DOCS \"http://example.com/lint: see-this guide\"\n"
      "int x = 0;\n");
  EXPECT_EQ(CountRule(fs, Rule::kSuppression), 0);
}

TEST(R0SuppressionTest, RawStringInDefineIsOpaqueToSuppressions) {
  // A raw string in a directive can hold `//` and even a fake marker; only a
  // real trailing comment after the literal counts.
  const auto fs = Lint(
      "src/sim/a.cc",
      "#define FIXTURE R\"(// lint: bogus-keyword not a real marker)\"\n"
      "int x = 0;\n");
  EXPECT_EQ(CountRule(fs, Rule::kSuppression), 0);
}

TEST(R0SuppressionTest, RealTrailingSuppressionAfterStringStillWorks) {
  // The fix must not eat legitimate trailing comments: an #include carrying
  // its own layering suppression keeps working even though the directive
  // text contains a quoted string before the `//`.
  const auto fs = Lint(
      "src/sim/a.cc",
      "#include \"broker/record.h\"  // lint: layering-ok transitional shim\n");
  EXPECT_EQ(CountRule(fs, Rule::kLayering), 0);
  EXPECT_EQ(CountRule(fs, Rule::kSuppression), 0);
}

TEST(FindingTest, MachineReadableFormat) {
  const auto fs = Lint("src/sim/a.cc", "auto t = time(nullptr);\n");
  ASSERT_EQ(fs.size(), 1u);
  const std::string line = fs[0].ToString();
  EXPECT_EQ(line.rfind("src/sim/a.cc:1: R1: ", 0), 0u) << line;
  EXPECT_NE(line.find("suggestion:"), std::string::npos);  // --fix-suggestions
}

TEST(FindingTest, SuggestionsOffByDefault) {
  const auto fs =
      LintSource("src/sim/a.cc", "auto t = time(nullptr);\n", {});
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_TRUE(fs[0].suggestion.empty());
}

// ---------------------------------------------------------------------------
// R7: architecture layering
// ---------------------------------------------------------------------------

TEST(R7LayeringTest, ModuleOfAndRanks) {
  EXPECT_EQ(ModuleOf("src/broker/record.h"), "broker");
  EXPECT_EQ(ModuleOf("/abs/prefix/src/obs/trace.cc"), "obs");
  EXPECT_EQ(ModuleOf("tools/crayfish_lint/lint.cc"), "");
  EXPECT_EQ(ModuleOf("tests/lint_test.cc"), "");
  EXPECT_LT(ModuleRank("common"), ModuleRank("sim"));
  EXPECT_LT(ModuleRank("broker"), ModuleRank("sps"));
  EXPECT_LT(ModuleRank("common"), ModuleRank("obs"));
  EXPECT_LT(ModuleRank("obs"), ModuleRank("sim"));
  EXPECT_EQ(ModuleRank("sim"), ModuleRank("tensor"));
  EXPECT_EQ(ModuleRank("not_a_module"), -1);
}

TEST(R7LayeringTest, DownwardEdgesAllowedBackEdgesNot) {
  EXPECT_TRUE(LayeringAllows("sps", "broker"));
  EXPECT_TRUE(LayeringAllows("obs", "common"));
  EXPECT_TRUE(LayeringAllows("sim", "obs"));  // instrumentation hook
  EXPECT_TRUE(LayeringAllows("core", "serving"));
  EXPECT_TRUE(LayeringAllows("sps", "serving"));   // the one sanctioned edge
  EXPECT_FALSE(LayeringAllows("serving", "sps"));  // not the reverse
  EXPECT_FALSE(LayeringAllows("obs", "sim"));
  EXPECT_FALSE(LayeringAllows("obs", "core"));
  EXPECT_FALSE(LayeringAllows("broker", "sps"));
  EXPECT_FALSE(LayeringAllows("sim", "tensor"));  // same layer, not excepted
}

TEST(R7LayeringTest, FaultModuleSitsBetweenBrokerAndTheEngines) {
  // src/fault drives broker/sim primitives and is consumed by core; it
  // must never reach up into sps/serving (those are wired via hooks).
  EXPECT_EQ(ModuleOf("src/fault/injector.cc"), "fault");
  EXPECT_GT(ModuleRank("fault"), ModuleRank("broker"));
  EXPECT_LT(ModuleRank("fault"), ModuleRank("sps"));
  EXPECT_LT(ModuleRank("fault"), ModuleRank("serving"));
  EXPECT_TRUE(LayeringAllows("fault", "broker"));
  EXPECT_TRUE(LayeringAllows("fault", "sim"));
  EXPECT_TRUE(LayeringAllows("core", "fault"));
  EXPECT_TRUE(LayeringAllows("sps", "fault"));
  EXPECT_FALSE(LayeringAllows("fault", "sps"));
  EXPECT_FALSE(LayeringAllows("fault", "serving"));
  EXPECT_FALSE(LayeringAllows("broker", "fault"));
}

TEST(R7LayeringTest, FaultReachingIntoAnEngineIsABackEdge) {
  const auto fs = Lint("src/fault/injector.cc",
                       "#include \"broker/cluster.h\"\n"
                       "#include \"serving/server.h\"\n");
  ASSERT_EQ(CountRule(fs, Rule::kLayering), 1);
  EXPECT_EQ(fs[0].line, 2);
  ASSERT_EQ(fs[0].path.size(), 2u);
  EXPECT_EQ(fs[0].path[0], "fault");
  EXPECT_EQ(fs[0].path[1], "serving");
}

TEST(R7LayeringTest, FlagsBackEdgeIncludeWithModulePath) {
  const auto fs = Lint("src/obs/trace.cc",
                       "#include \"sim/simulation.h\"\n"
                       "#include \"common/status.h\"\n"
                       "#include \"core/experiment.h\"\n");
  ASSERT_EQ(CountRule(fs, Rule::kLayering), 2);
  EXPECT_EQ(fs[0].line, 1);
  EXPECT_EQ(fs[0].path, (std::vector<std::string>{"obs", "sim"}));
  EXPECT_EQ(fs[1].line, 3);
  EXPECT_EQ(fs[1].path, (std::vector<std::string>{"obs", "core"}));
}

TEST(R7LayeringTest, DownwardAndSystemIncludesAreFine) {
  const auto fs = Lint("src/core/experiment.cc",
                       "#include <vector>\n"
                       "#include \"broker/record.h\"\n"
                       "#include \"common/status.h\"\n"
                       "#include \"core/experiment.h\"\n");
  EXPECT_TRUE(fs.empty());
}

TEST(R7LayeringTest, HarnessCodeIsExemptFromLayering) {
  const auto fs = Lint("tools/crayfish_run.cc",
                       "#include \"obs/trace.h\"\n"
                       "#include \"core/experiment.h\"\n");
  EXPECT_FALSE(HasRule(fs, Rule::kLayering));
}

TEST(R7LayeringTest, SuppressionOnIncludeLineSilences) {
  const auto fs = Lint(
      "src/obs/trace.cc",
      "#include \"sim/simulation.h\"  // lint: layering-ok test-only shim\n");
  EXPECT_TRUE(fs.empty());
}

TEST(R7LayeringTest, InstrumentationHooksAreDownwardIncludes) {
  // The timeline sampler and the metric registry are fed by hooks in every
  // layer above obs; those includes point down the DAG and need no
  // suppression.
  for (const char* file :
       {"src/sim/simulation.cc", "src/broker/consumer.cc",
        "src/sps/operator_task.cc", "src/serving/external_server.cc",
        "src/fault/injector.cc", "src/core/experiment.h"}) {
    EXPECT_TRUE(Lint(file,
                     "#include \"obs/registry.h\"\n"
                     "#include \"obs/timeline.h\"\n")
                    .empty())
        << file;
  }
}

TEST(R7LayeringTest, SloSitsAtTheObsLayer) {
  // slo.cc consumes the timeline plus common primitives — clean intra-
  // module and downward includes, nothing for the linter to flag.
  EXPECT_TRUE(Lint("src/obs/slo.cc",
                   "#include \"obs/slo.h\"\n"
                   "#include \"obs/timeline.h\"\n"
                   "#include \"common/json.h\"\n")
                  .empty());
  EXPECT_EQ(ModuleOf("src/obs/slo.cc"), "obs");
  EXPECT_EQ(ModuleOf("src/obs/timeline.cc"), "obs");
  // obs sits just above common: every producing layer may include its
  // hooks, and obs may never include the layers it observes.
  EXPECT_TRUE(LayeringAllows("sps", "obs"));
  EXPECT_TRUE(LayeringAllows("serving", "obs"));
  EXPECT_TRUE(LayeringAllows("fault", "obs"));
  EXPECT_FALSE(LayeringAllows("obs", "sps"));
  EXPECT_FALSE(LayeringAllows("obs", "fault"));
}

TEST(R7LayeringTest, AdHocIncludeFromModuleIsFlagged) {
  const auto fs = Lint("src/sps/engine.cc", "#include \"engine.h\"\n");
  ASSERT_EQ(CountRule(fs, Rule::kLayering), 1);
  EXPECT_NE(fs[0].message.find("not module-qualified"), std::string::npos);
}

TEST(R7LayeringTest, IncludeGraphFindsCycles) {
  IncludeGraph graph;
  graph.Add(ParseSource("src/sim/a.cc", "#include \"obs/trace.h\"\n"));
  graph.Add(ParseSource("src/obs/b.cc", "#include \"sim/events.h\"\n"));
  const auto cycles = graph.FindCycles();
  ASSERT_EQ(cycles.size(), 1u);
  const std::vector<std::string> expected = {"obs", "sim", "obs"};
  EXPECT_EQ(cycles[0], expected);
  const auto fs = LintIncludeCycles(graph);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, Rule::kLayering);
  EXPECT_EQ(fs[0].path, expected);
  EXPECT_NE(fs[0].message.find("cycle"), std::string::npos);
}

TEST(R7LayeringTest, AcyclicGraphHasNoCycleFindings) {
  IncludeGraph graph;
  graph.Add(ParseSource("src/sps/a.cc", "#include \"broker/record.h\"\n"));
  graph.Add(ParseSource("src/broker/b.cc", "#include \"common/status.h\"\n"));
  EXPECT_TRUE(graph.FindCycles().empty());
  EXPECT_TRUE(LintIncludeCycles(graph).empty());
}

TEST(IncludeGraphTest, DiamondIncludeIsNotACycle) {
  // core -> {sps, serving} -> common: two paths reconverge on the same base
  // module. A naive visited-set walk can misreport the reconvergence as a
  // back-edge; the DAG check must not.
  const auto irs = ParseAll({
      {"src/core/top.h",
       "#include \"sps/a.h\"\n#include \"serving/b.h\"\n"},
      {"src/sps/a.h", "#include \"common/base.h\"\n"},
      {"src/serving/b.h", "#include \"common/base.h\"\n"},
      {"src/common/base.h", "int Base();\n"},
  });
  IncludeGraph g;
  for (const FileIR& ir : irs) g.Add(ir);
  EXPECT_TRUE(g.FindCycles().empty());
  const auto& edges = g.edges();
  ASSERT_TRUE(edges.count("core"));
  EXPECT_TRUE(edges.at("core").count("sps"));
  EXPECT_TRUE(edges.at("core").count("serving"));
  ASSERT_TRUE(edges.count("sps"));
  EXPECT_TRUE(edges.at("sps").count("common"));
  // The shared base edge dedupes and keeps its first observed site.
  EXPECT_EQ(g.EdgeSite("sps", "common"), "src/sps/a.h:1");
}

TEST(IncludeGraphTest, SelfIncludeProducesNoEdgeAndNoCycle) {
  // A header including its own module (x.cc -> x.h is the normal case, a
  // literal self-include the pathological one) is not a module edge.
  const auto irs = ParseAll({
      {"src/sim/event.h", "#include \"sim/event.h\"\n#include \"sim/clock.h\"\n"},
      {"src/sim/clock.h", "int Now();\n"},
  });
  IncludeGraph g;
  for (const FileIR& ir : irs) g.Add(ir);
  EXPECT_TRUE(g.FindCycles().empty());
  const auto it = g.edges().find("sim");
  if (it != g.edges().end()) {
    EXPECT_EQ(it->second.count("sim"), 0u);
  }
}

TEST(IncludeGraphTest, RealCycleIsStillReportedOnce) {
  const auto irs = ParseAll({
      {"src/sim/a.h", "#include \"broker/b.h\"\n"},
      {"src/broker/b.h", "#include \"sim/a.h\"\n"},
  });
  IncludeGraph g;
  for (const FileIR& ir : irs) g.Add(ir);
  const auto cycles = g.FindCycles();
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].front(), cycles[0].back());
}

// ---------------------------------------------------------------------------
// R9: immutable shared payload aliasing
// ---------------------------------------------------------------------------

/// Builds the two-file project the R9 fixtures share: `record.h` declares the
/// immutable payload member (its construction site), `other` is the file
/// under test.
std::vector<Finding> LintWithPayloadHome(const std::string& other_path,
                                         const std::string& other_src) {
  const FileIR home = ParseSource(
      "src/broker/record.h",
      "struct Record {\n"
      "  std::shared_ptr<const Bytes> payload;\n"
      "};\n");
  const FileIR other = ParseSource(other_path, other_src);
  ProjectContext ctx;
  CollectProject(home, &ctx);
  CollectProject(other, &ctx);
  LintOptions options;
  options.fix_suggestions = true;
  return LintFile(other, ctx, options);
}

TEST(R9PayloadAliasTest, FlagsConstCastOnPayload) {
  const auto fs = LintWithPayloadHome(
      "src/sps/operator_task.cc",
      "void Mutate(Record& rec) {\n"
      "  auto* raw = const_cast<Bytes*>(rec.payload.get());\n"
      "}\n");
  ASSERT_EQ(CountRule(fs, Rule::kPayloadAlias), 1);
  EXPECT_EQ(fs[0].line, 2);
  EXPECT_NE(fs[0].message.find("payload"), std::string::npos);
}

TEST(R9PayloadAliasTest, FlagsConstPointerCastRewrap) {
  const auto fs = LintWithPayloadHome(
      "src/sps/operator_task.cc",
      "void Rewrap(Record& rec) {\n"
      "  auto mut = std::const_pointer_cast<Bytes>(rec.payload);\n"
      "}\n");
  EXPECT_EQ(CountRule(fs, Rule::kPayloadAlias), 1);
}

TEST(R9PayloadAliasTest, FlagsAssignmentOutsideConstructionSite) {
  const auto fs = LintWithPayloadHome(
      "src/sps/operator_task.cc",
      "void Rebind(Record& rec, std::shared_ptr<const Bytes> b) {\n"
      "  rec.payload = b;\n"
      "}\n");
  ASSERT_EQ(CountRule(fs, Rule::kPayloadAlias), 1);
  EXPECT_NE(fs[0].message.find("src/broker/record.h"), std::string::npos);
}

TEST(R9PayloadAliasTest, ConstructionSiteMayAssign) {
  // The declaring file is the producer construction site: SetPayload-style
  // assignment there is the sanctioned write.
  const FileIR home = ParseSource(
      "src/broker/record.h",
      "struct Record {\n"
      "  std::shared_ptr<const Bytes> payload;\n"
      "  void SetPayload(Bytes b) {\n"
      "    this->payload = std::make_shared<const Bytes>(std::move(b));\n"
      "  }\n"
      "};\n");
  ProjectContext ctx;
  CollectProject(home, &ctx);
  EXPECT_TRUE(ctx.immutable_member_home.count("payload") > 0);
  const auto fs = LintFile(home, ctx, {});
  EXPECT_FALSE(HasRule(fs, Rule::kPayloadAlias));
}

TEST(R9PayloadAliasTest, ReadsAndCopiesAreFine) {
  const auto fs = LintWithPayloadHome(
      "src/sps/operator_task.cc",
      "size_t Read(const Record& rec) {\n"
      "  auto copy = std::make_shared<Bytes>(*rec.payload);\n"
      "  return rec.payload->size();\n"
      "}\n");
  EXPECT_FALSE(HasRule(fs, Rule::kPayloadAlias));
}

TEST(R9PayloadAliasTest, SuppressionWithJustificationSilences) {
  const auto fs = LintWithPayloadHome(
      "src/sps/operator_task.cc",
      "void Mutate(Record& rec) {\n"
      "  // lint: aliasing-ok bench-only scratch record, never published\n"
      "  auto* raw = const_cast<Bytes*>(rec.payload.get());\n"
      "}\n");
  EXPECT_FALSE(HasRule(fs, Rule::kPayloadAlias));
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

TEST(JsonOutputTest, RoundTripsThroughProjectJsonParser) {
  const auto fs = Lint("src/sim/a.cc",
                       "#include \"broker/record.h\"\n"
                       "auto t = time(nullptr);\n");
  ASSERT_GE(fs.size(), 2u);
  const std::string json =
      FindingsToJson(fs, /*files_scanned=*/1, {"cannot read src/sim/gone.cc"});

  const auto parsed = crayfish::JsonValue::Parse(json);
  ASSERT_TRUE(parsed.ok()) << json;
  const crayfish::JsonValue& doc = *parsed;
  ASSERT_NE(doc.Find("tool"), nullptr);
  EXPECT_EQ(doc.Find("tool")->as_string(), "crayfish_lint");
  EXPECT_EQ(doc.GetNumberOr("schema_version", 0), 4);
  EXPECT_EQ(doc.GetNumberOr("files_scanned", 0), 1);
  ASSERT_NE(doc.Find("errors"), nullptr);
  EXPECT_EQ(doc.Find("errors")->size(), 1u);
  ASSERT_NE(doc.Find("findings"), nullptr);
  EXPECT_EQ(doc.Find("findings")->size(), fs.size());
  const crayfish::JsonValue& first = doc.Find("findings")->as_array()[0];
  EXPECT_EQ(first.Find("file")->as_string(), "src/sim/a.cc");
  EXPECT_EQ(first.Find("rule")->as_string(), "R7");
  EXPECT_EQ(first.Find("suppress_keyword")->as_string(), "layering-ok");
  ASSERT_NE(first.Find("path"), nullptr);
  ASSERT_EQ(first.Find("path")->size(), 2u);
  EXPECT_EQ(first.Find("path")->as_array()[0].as_string(), "sim");
}

TEST(JsonOutputTest, EscapesQuotesAndBackslashes) {
  Finding f;
  f.file = "src/sim/a.cc";
  f.line = 1;
  f.rule = Rule::kWallClock;
  f.message = "text with \"quotes\" and \\backslash\\ and\nnewline";
  const std::string json = FindingsToJson({f}, 1, {});
  const auto parsed = crayfish::JsonValue::Parse(json);
  ASSERT_TRUE(parsed.ok()) << json;
  EXPECT_EQ(parsed->Find("findings")->as_array()[0].Find("message")->as_string(),
            f.message);
}

TEST(JsonOutputTest, EmptyRunIsValidJson) {
  const std::string json = FindingsToJson({}, 0, {});
  const auto parsed = crayfish::JsonValue::Parse(json);
  ASSERT_TRUE(parsed.ok()) << json;
  ASSERT_NE(parsed->Find("findings"), nullptr);
  EXPECT_EQ(parsed->Find("findings")->size(), 0u);
}

// ---------------------------------------------------------------------------
// Parser / IR
// ---------------------------------------------------------------------------

TEST(ParserTest, ExtractsIncludesAndKinds) {
  const FileIR ir = ParseSource("src/sps/a.cc",
                                "#include <vector>\n"
                                "#include \"broker/record.h\"\n");
  ASSERT_EQ(ir.includes.size(), 2u);
  EXPECT_TRUE(ir.includes[0].is_system);
  EXPECT_EQ(ir.includes[1].target, "broker/record.h");
  EXPECT_EQ(ir.includes[1].line, 2);
}

TEST(ParserTest, SuppressionInsidePreprocessorTokenIsExtracted) {
  const FileIR ir = ParseSource(
      "src/sim/a.cc",
      "#include \"obs/trace.h\"  // lint: layering-ok hook only\n");
  ASSERT_EQ(ir.suppressions.size(), 1u);
  EXPECT_EQ(ir.suppressions[0].keyword, "layering-ok");
  EXPECT_EQ(ir.suppressions[0].applies_to, 1);
}

TEST(ParserTest, ProseMentioningLintIsNotASuppression) {
  const FileIR ir = ParseSource(
      "src/sim/a.cc",
      "// crayfish_lint: determinism checks for the simulated stack\n"
      "// syntax is `// lint: <keyword> <justification>`\n"
      "int x = 0;\n");
  EXPECT_TRUE(ir.suppressions.empty());
}

}  // namespace
}  // namespace crayfish::lint
