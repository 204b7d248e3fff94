#include "crayfish_lint/lint.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <iomanip>
#include <map>
#include <set>
#include <sstream>
#include <utility>

namespace crayfish::lint {
namespace {

// ---------------------------------------------------------------------------
// Path scoping
// ---------------------------------------------------------------------------

/// True when `path` ends with `suffix` at a path-component boundary, so
/// "src/common/rng.cc" matches both "/root/repo/src/common/rng.cc" and
/// "src/common/rng.cc" but not "xsrc/common/rng.cc".
bool PathEndsWith(std::string_view path, std::string_view suffix) {
  if (path.size() < suffix.size()) return false;
  if (path.compare(path.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  return path.size() == suffix.size() ||
         path[path.size() - suffix.size() - 1] == '/';
}

/// True when `path` lies under src/<dir>/ regardless of how much prefix the
/// caller passed (absolute, repo-relative, or bare).
bool InDir(std::string_view path, std::string_view dir) {
  std::string needle;
  needle.reserve(dir.size() + 2);
  needle.push_back('/');
  needle.append(dir);
  needle.push_back('/');
  if (path.find(needle) != std::string_view::npos) return true;
  // needle without the leading '/' is the repo-relative prefix form.
  return path.substr(0, needle.size() - 1) == needle.substr(1);
}

/// True when the linted file and the recorded home file are the same file,
/// whichever of the two carries the longer path prefix.
bool SamePath(std::string_view a, std::string_view b) {
  return a == b || PathEndsWith(a, b) || PathEndsWith(b, a);
}

/// R3 applies where iteration order can reach scheduling decisions or
/// exported results.
bool InSchedulingDir(std::string_view path) {
  return InDir(path, "src/sim") || InDir(path, "src/broker") ||
         InDir(path, "src/fault") || InDir(path, "src/sps") ||
         InDir(path, "src/serving") || InDir(path, "src/core");
}

/// R5 applies to metrics/statistics aggregation code.
bool InMetricsCode(std::string_view path) {
  return PathEndsWith(path, "src/common/stats.h") ||
         PathEndsWith(path, "src/common/stats.cc") ||
         PathEndsWith(path, "src/core/metrics.h") ||
         PathEndsWith(path, "src/core/metrics.cc") ||
         PathEndsWith(path, "src/core/report.h") ||
         PathEndsWith(path, "src/core/report.cc") ||
         PathEndsWith(path, "src/core/breakdown.h") ||
         PathEndsWith(path, "src/core/breakdown.cc") || InDir(path, "src/obs");
}

/// R6 allowlist: the sweep runner owns the host thread pool and bench
/// harness code may measure with host threads; simulated components must
/// stay single-threaded so event order is bit-deterministic.
bool IsHostThreadingAllowlisted(std::string_view path) {
  return PathEndsWith(path, "src/core/sweep.h") ||
         PathEndsWith(path, "src/core/sweep.cc") || InDir(path, "bench");
}

/// R1 allowlist: the logging real-time sink is the single src/ place allowed
/// to read the host clock (it never feeds back into simulation state), and
/// bench/ harness code exists to measure wall time.
bool IsWallClockAllowlisted(std::string_view path) {
  return PathEndsWith(path, "src/common/logging.cc") || InDir(path, "bench");
}

bool IsRngAllowlisted(std::string_view path) {
  return PathEndsWith(path, "src/common/rng.h") ||
         PathEndsWith(path, "src/common/rng.cc");
}

const std::map<std::string, Rule, std::less<>> kKeywordToRule = {
    {"wall-clock-ok", Rule::kWallClock},
    {"unseeded-ok", Rule::kRandomness},
    {"order-independent", Rule::kHashOrder},
    {"float-ok", Rule::kFloatAccum},
    {"host-threading-ok", Rule::kHostThreading},
    {"layering-ok", Rule::kLayering},
    {"aliasing-ok", Rule::kPayloadAlias},
};

// ---------------------------------------------------------------------------
// Linter
// ---------------------------------------------------------------------------

class Linter {
 public:
  Linter(const FileIR& ir, const ProjectContext& ctx,
         const LintOptions& options)
      : ir_(ir), ctx_(ctx), options_(options), path_(ir.path),
        toks_(ir.tokens) {}

  std::vector<Finding> Run() {
    CheckSuppressionComments();
    if (!IsWallClockAllowlisted(path_)) CheckWallClock();
    if (!IsRngAllowlisted(path_)) CheckRandomness();
    if (InSchedulingDir(path_)) CheckHashOrder();
    if (InMetricsCode(path_)) CheckFloatAccumulators();
    if (!IsHostThreadingAllowlisted(path_)) CheckHostThreading();
    CheckLayering();
    CheckPayloadAlias();
    // Rule id is the final tie-break so that multi-rule hits on one
    // (file, line) order identically no matter which check enqueued first.
    std::stable_sort(findings_.begin(), findings_.end(),
                     [](const Finding& a, const Finding& b) {
                       if (a.line != b.line) return a.line < b.line;
                       return static_cast<int>(a.rule) <
                              static_cast<int>(b.rule);
                     });
    return std::move(findings_);
  }

 private:
  void Report(Rule rule, int line, std::string message, std::string suggestion,
              std::vector<std::string> path = {}) {
    for (const Suppression& s : ir_.suppressions) {
      if (s.applies_to != line) continue;
      const auto it = kKeywordToRule.find(s.keyword);
      if (it != kKeywordToRule.end() && it->second == rule &&
          !s.justification.empty()) {
        return;  // validly suppressed
      }
    }
    Finding f;
    f.file = path_;
    f.line = line;
    f.rule = rule;
    f.message = std::move(message);
    f.path = std::move(path);
    if (options_.fix_suggestions) f.suggestion = std::move(suggestion);
    findings_.push_back(std::move(f));
  }

  // R0: a malformed suppression is itself a finding, so a typo'd keyword
  // cannot silently disable enforcement.
  void CheckSuppressionComments() {
    for (const Suppression& s : ir_.suppressions) {
      if (kKeywordToRule.find(s.keyword) == kKeywordToRule.end()) {
        Report(Rule::kSuppression, s.line,
               "unknown lint suppression keyword '" + s.keyword + "'",
               "use one of: wall-clock-ok, unseeded-ok, order-independent, "
               "float-ok, host-threading-ok, layering-ok, aliasing-ok");
      } else if (s.justification.empty()) {
        Report(Rule::kSuppression, s.line,
               "lint suppression '" + s.keyword +
                   "' is missing a justification",
               "append a short reason, e.g. `// lint: " + s.keyword +
                   " counts are summed, order cannot matter`");
      }
    }
  }

  /// True when the identifier at `i` is used as a free (or std::) function
  /// call rather than a member access or another namespace's symbol.
  bool IsFreeCall(int i) {
    const int next = NextCode(toks_, i);
    if (next < 0 || !toks_[next].IsPunct("(")) return false;
    const int prev = PrevCode(toks_, i);
    if (prev < 0) return true;
    if (toks_[prev].IsPunct(".") || toks_[prev].IsPunct("->")) return false;
    if (toks_[prev].IsPunct("::")) {
      const int qual = PrevCode(toks_, prev);
      // `std::time(` and global `::time(` are still the libc clock;
      // `other_ns::time(` is not ours to judge.
      return qual < 0 || toks_[qual].IsIdent("std") ||
             toks_[qual].kind != TokenKind::kIdentifier;
    }
    return true;
  }

  // R1 --------------------------------------------------------------------
  void CheckWallClock() {
    static const std::set<std::string> banned_idents = {
        "system_clock", "steady_clock", "high_resolution_clock",
        "gettimeofday", "clock_gettime", "localtime", "gmtime", "mktime",
        "timespec_get"};
    static const std::set<std::string> banned_calls = {"time", "clock"};
    for (int i = 0; i < static_cast<int>(toks_.size()); ++i) {
      const Token& t = toks_[i];
      if (t.kind != TokenKind::kIdentifier) continue;
      const bool banned_ident = banned_idents.count(t.text) > 0;
      const bool banned_call = banned_calls.count(t.text) > 0 && IsFreeCall(i);
      if (!banned_ident && !banned_call) continue;
      Report(Rule::kWallClock, t.line,
             "wall-clock read '" + t.text +
                 "' in simulated code; all time must come from the "
                 "simulation clock",
             "take the current time from sim::Simulation::Now() (plumbed "
             "through the component), or move the read into the allowlisted "
             "real-time logging sink");
    }
  }

  // R2 --------------------------------------------------------------------
  void CheckRandomness() {
    static const std::set<std::string> banned_idents = {
        "random_device", "mt19937",      "mt19937_64",
        "minstd_rand",   "minstd_rand0", "default_random_engine",
        "random_shuffle"};
    static const std::set<std::string> banned_calls = {
        "rand", "srand", "drand48", "lrand48", "srandom", "random"};
    for (int i = 0; i < static_cast<int>(toks_.size()); ++i) {
      const Token& t = toks_[i];
      if (t.kind != TokenKind::kIdentifier) continue;
      const bool banned_ident = banned_idents.count(t.text) > 0;
      const bool banned_call = banned_calls.count(t.text) > 0 && IsFreeCall(i);
      if (!banned_ident && !banned_call) continue;
      Report(Rule::kRandomness, t.line,
             "ambient randomness '" + t.text +
                 "' outside src/common/rng; every stochastic draw must come "
                 "from a seeded crayfish::Rng",
             "accept a crayfish::Rng (or fork one with Rng::Fork()) and draw "
             "from it instead");
    }
  }

  // R3 --------------------------------------------------------------------
  void CheckHashOrder() {
    static const std::set<std::string> unordered_types = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    // Pass A: names declared with (or returned as) an unordered type.
    std::set<std::string> unordered_names;
    for (int i = 0; i < static_cast<int>(toks_.size()); ++i) {
      if (toks_[i].kind != TokenKind::kIdentifier ||
          unordered_types.count(toks_[i].text) == 0) {
        continue;
      }
      int k = NextCode(toks_, i);
      if (k >= 0 && toks_[k].IsPunct("<")) k = SkipAngles(toks_, k);
      if (k >= 0 && k < static_cast<int>(toks_.size()) &&
          !IsCodeToken(toks_[k])) {
        k = NextCode(toks_, k - 1);
      }
      if (k >= static_cast<int>(toks_.size())) continue;
      while (k >= 0 && (toks_[k].IsPunct("*") || toks_[k].IsPunct("&") ||
                        toks_[k].IsIdent("const"))) {
        k = NextCode(toks_, k);
      }
      if (k >= 0 && toks_[k].kind == TokenKind::kIdentifier) {
        unordered_names.insert(toks_[k].text);
      }
    }
    if (unordered_names.empty()) return;

    for (int i = 0; i < static_cast<int>(toks_.size()); ++i) {
      const Token& t = toks_[i];
      // Range-for whose range expression mentions an unordered name.
      if (t.IsIdent("for")) {
        const int open = NextCode(toks_, i);
        if (open < 0 || !toks_[open].IsPunct("(")) continue;
        const int close = MatchParen(toks_, open);
        if (close < 0) continue;
        int colon = -1;
        int depth = 0;
        for (int k = open; k < close; ++k) {
          if (!IsCodeToken(toks_[k])) continue;
          if (toks_[k].IsPunct("(")) ++depth;
          if (toks_[k].IsPunct(")")) --depth;
          if (depth == 1 && toks_[k].IsPunct(":")) {
            colon = k;
            break;
          }
        }
        if (colon < 0) continue;
        for (int k = colon + 1; k < close; ++k) {
          if (toks_[k].kind == TokenKind::kIdentifier &&
              unordered_names.count(toks_[k].text) > 0) {
            ReportHashOrder(t.line, toks_[k].text);
            break;
          }
        }
      }
      // Explicit iterator loop: name.begin() / name.cbegin().
      if (t.kind == TokenKind::kIdentifier &&
          unordered_names.count(t.text) > 0) {
        const int dot = NextCode(toks_, i);
        if (dot < 0 || !toks_[dot].IsPunct(".")) continue;
        const int fn = NextCode(toks_, dot);
        if (fn >= 0 && (toks_[fn].IsIdent("begin") ||
                        toks_[fn].IsIdent("cbegin")) &&
            IsCallAt(fn)) {
          ReportHashOrder(t.line, t.text);
        }
      }
    }
  }

  bool IsCallAt(int ident) {
    const int next = NextCode(toks_, ident);
    return next >= 0 && toks_[next].IsPunct("(");
  }

  void ReportHashOrder(int line, const std::string& name) {
    Report(Rule::kHashOrder, line,
           "iteration over unordered container '" + name +
               "' in a scheduling-adjacent directory; hash order is not "
               "deterministic across platforms or library versions",
           "switch '" + name +
               "' to std::map/std::set, iterate a sorted copy of the keys, "
               "or annotate the line `// lint: order-independent <why>`");
  }

  // R5 --------------------------------------------------------------------
  void CheckFloatAccumulators() {
    // Declared `float <name>` variables in this file.
    std::map<std::string, int> float_decls;
    for (int i = 0; i < static_cast<int>(toks_.size()); ++i) {
      if (!toks_[i].IsIdent("float")) continue;
      const int name = NextCode(toks_, i);
      if (name < 0 || toks_[name].kind != TokenKind::kIdentifier) continue;
      float_decls.emplace(toks_[name].text, toks_[name].line);
    }
    if (float_decls.empty()) return;

    std::set<std::string> flagged;
    // Accumulation detected structurally: `<name> += ...` / `-=` / `*=`.
    for (int i = 0; i + 1 < static_cast<int>(toks_.size()); ++i) {
      if (toks_[i].kind != TokenKind::kIdentifier) continue;
      const int op = NextCode(toks_, i);
      if (op < 0) continue;
      if (toks_[op].IsPunct("+=") || toks_[op].IsPunct("-=") ||
          toks_[op].IsPunct("*=")) {
        flagged.insert(toks_[i].text);
      }
    }
    // ...or by name: snake_case parts that scream "accumulator".
    static const std::set<std::string> accum_parts = {
        "sum", "total", "acc", "accum", "avg", "mean", "agg", "aggregate",
        "cum", "running"};
    for (const auto& [name, line] : float_decls) {
      bool by_name = false;
      std::string part;
      std::string padded = name;
      padded.push_back('_');  // flush the final part through the loop
      for (char c : padded) {
        if (c == '_') {
          if (accum_parts.count(part) > 0) by_name = true;
          part.clear();
        } else {
          part += static_cast<char>(
              std::tolower(static_cast<unsigned char>(c)));
        }
      }
      if (flagged.count(name) == 0 && !by_name) continue;
      Report(Rule::kFloatAccum, line,
             "float accumulator '" + name +
                 "' in metrics/stats code; single-precision accumulation "
                 "drifts and makes results depend on summation order",
             "declare '" + name +
                 "' as double (the convention in src/common/stats.*); cast "
                 "to float only at the output boundary if needed");
    }
  }

  // R6 --------------------------------------------------------------------
  void CheckHostThreading() {
    static const std::set<std::string> banned = {
        "thread",        "jthread",
        "mutex",         "recursive_mutex",
        "timed_mutex",   "recursive_timed_mutex",
        "shared_mutex",  "shared_timed_mutex",
        "condition_variable", "condition_variable_any",
        "atomic",        "atomic_flag",
        "atomic_ref",    "future",
        "shared_future", "promise",
        "packaged_task", "async",
        "lock_guard",    "unique_lock",
        "shared_lock",   "scoped_lock",
        "counting_semaphore", "binary_semaphore",
        "latch",         "barrier",
        "call_once",     "once_flag",
        "stop_source",   "stop_token"};
    for (int i = 0; i < static_cast<int>(toks_.size()); ++i) {
      const Token& t = toks_[i];
      if (t.kind != TokenKind::kIdentifier || banned.count(t.text) == 0) {
        continue;
      }
      // Only std-qualified uses: `std::thread`, `std::atomic<...>`. A bare
      // `thread` identifier (a variable, a field) is not a primitive.
      const int colons = PrevCode(toks_, i);
      if (colons < 0 || !toks_[colons].IsPunct("::")) continue;
      const int qual = PrevCode(toks_, colons);
      if (qual < 0 || !toks_[qual].IsIdent("std")) continue;
      Report(Rule::kHostThreading, t.line,
             "host-threading primitive 'std::" + t.text +
                 "' outside the sweep runner; simulated components must stay "
                 "single-threaded so event order is bit-deterministic",
             "run concurrency at the experiment level through "
             "core::SweepRunner (src/core/sweep.h), or annotate the line "
             "`// lint: host-threading-ok <why>` if this code never runs "
             "inside a simulation");
    }
  }

  // R7 --------------------------------------------------------------------
  void CheckLayering() {
    const std::string from = ModuleOf(path_);
    if (from.empty()) return;  // tools/bench/tests sit above the DAG
    for (const Include& inc : ir_.includes) {
      if (inc.is_system) continue;
      const size_t slash = inc.target.find('/');
      const std::string to =
          slash == std::string::npos ? "" : inc.target.substr(0, slash);
      if (ModuleRank(to) < 0) {
        Report(Rule::kLayering, inc.line,
               "quoted include \"" + inc.target + "\" from module '" + from +
                   "' is not module-qualified, so the layering DAG cannot "
                   "place it",
               "include project headers as \"<module>/<header>.h\" (e.g. "
               "\"broker/record.h\"); for genuinely external headers "
               "annotate `// lint: layering-ok <why>`",
               {from});
        continue;
      }
      if (LayeringAllows(from, to)) continue;
      std::ostringstream msg;
      msg << "include of \"" << inc.target
          << "\" is a back-edge in the module DAG: '" << from << "' (layer "
          << ModuleRank(from) << ") may only include strictly lower layers, "
          << "but '" << to << "' is layer " << ModuleRank(to)
          << "; allowed order is common -> obs -> {sim, tensor} -> "
          << "{broker, model} -> fault -> scale -> {sps, serving} -> core "
          << "(plus sps -> serving)";
      Report(Rule::kLayering, inc.line, msg.str(),
             "invert the dependency: move the shared type into a lower "
             "layer, or have the lower layer expose a hook the higher layer "
             "registers into; if the edge is an intentional exception, "
             "annotate `// lint: layering-ok <why>`",
             {from, to});
    }
  }

  // R9 --------------------------------------------------------------------
  void CheckPayloadAlias() {
    if (ctx_.immutable_member_home.empty()) return;
    const int n = static_cast<int>(toks_.size());
    for (int i = 0; i < n; ++i) {
      const Token& t = toks_[i];
      if (t.kind != TokenKind::kIdentifier) continue;
      if (t.text == "const_cast" || t.text == "const_pointer_cast") {
        const std::string touched = ImmutableNameInStatement(i);
        if (touched.empty()) continue;
        const std::string& home = ctx_.immutable_member_home.at(touched);
        Report(Rule::kPayloadAlias, t.line,
               "'" + t.text + "' in a statement touching immutable shared "
                   "payload '" + touched + "' (declared shared_ptr<const T> "
                   "in " + home + "); casting away const re-opens a buffer "
                   "that consumers alias zero-copy",
               "copy the bytes into a fresh buffer "
               "(std::make_shared<Bytes>(*" + touched + ")) and publish the "
               "copy; if the cast provably never mutates shared state, "
               "annotate `// lint: aliasing-ok <why>`");
        continue;
      }
      const auto home_it = ctx_.immutable_member_home.find(t.text);
      if (home_it == ctx_.immutable_member_home.end()) continue;
      const int prev = PrevCode(toks_, i);
      const int next = NextCode(toks_, i);
      const bool member_access =
          prev >= 0 && (toks_[prev].IsPunct(".") || toks_[prev].IsPunct("->"));
      const bool assigned = next >= 0 && toks_[next].IsPunct("=");
      if (!member_access || !assigned) continue;
      if (SamePath(path_, home_it->second)) continue;  // construction site
      Report(Rule::kPayloadAlias, t.line,
             "assignment to immutable shared payload '" + t.text +
                 "' outside its construction site (" + home_it->second +
                 "); after publication these bytes are aliased zero-copy by "
                 "every consumer",
             "build a new record through the producer-side constructor / "
             "SetPayload instead of rebinding the member in place; if this "
             "site provably owns the only reference, annotate "
             "`// lint: aliasing-ok <why>`");
    }
  }

  /// First immutable-shared name mentioned in the statement containing token
  /// `i` (bounded by `;`/`{`/`}` on both sides), or "".
  std::string ImmutableNameInStatement(int i) {
    const int n = static_cast<int>(toks_.size());
    int begin = i;
    for (int k = i - 1; k >= 0; --k) {
      if (!IsCodeToken(toks_[k])) continue;
      if (toks_[k].IsPunct(";") || toks_[k].IsPunct("{") ||
          toks_[k].IsPunct("}")) {
        break;
      }
      begin = k;
    }
    int end = i;
    for (int k = i + 1; k < n; ++k) {
      if (!IsCodeToken(toks_[k])) continue;
      if (toks_[k].IsPunct(";") || toks_[k].IsPunct("{") ||
          toks_[k].IsPunct("}")) {
        break;
      }
      end = k;
    }
    for (int k = begin; k <= end; ++k) {
      if (toks_[k].kind == TokenKind::kIdentifier &&
          ctx_.immutable_member_home.count(toks_[k].text) > 0) {
        return toks_[k].text;
      }
    }
    return "";
  }

  const FileIR& ir_;
  const ProjectContext& ctx_;
  const LintOptions& options_;
  const std::string& path_;
  const std::vector<Token>& toks_;
  std::vector<Finding> findings_;
};

// ---------------------------------------------------------------------------
// JSON serialization
// ---------------------------------------------------------------------------

std::string JsonEscape(std::string_view s) {
  std::ostringstream os;
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << "\\u" << std::hex << std::setw(4) << std::setfill('0')
             << static_cast<int>(static_cast<unsigned char>(c)) << std::dec;
        } else {
          os << c;
        }
    }
  }
  return os.str();
}

}  // namespace

std::string_view RuleName(Rule rule) {
  switch (rule) {
    case Rule::kSuppression:
      return "R0";
    case Rule::kWallClock:
      return "R1";
    case Rule::kRandomness:
      return "R2";
    case Rule::kHashOrder:
      return "R3";
    case Rule::kFloatAccum:
      return "R5";
    case Rule::kHostThreading:
      return "R6";
    case Rule::kLayering:
      return "R7";
    case Rule::kPayloadAlias:
      return "R9";
  }
  return "R?";
}

std::string_view SuppressionKeyword(Rule rule) {
  switch (rule) {
    case Rule::kSuppression:
      return "";
    case Rule::kWallClock:
      return "wall-clock-ok";
    case Rule::kRandomness:
      return "unseeded-ok";
    case Rule::kHashOrder:
      return "order-independent";
    case Rule::kFloatAccum:
      return "float-ok";
    case Rule::kHostThreading:
      return "host-threading-ok";
    case Rule::kLayering:
      return "layering-ok";
    case Rule::kPayloadAlias:
      return "aliasing-ok";
  }
  return "";
}

std::string Finding::ToString() const {
  std::ostringstream os;
  os << file << ":" << line << ": " << RuleName(rule) << ": " << message;
  if (!suggestion.empty()) {
    os << "\n    suggestion: " << suggestion;
  }
  return os.str();
}

std::vector<Finding> LintFile(const FileIR& ir, const ProjectContext& ctx,
                              const LintOptions& options) {
  Linter linter(ir, ctx, options);
  return linter.Run();
}

std::vector<Finding> LintIncludeCycles(const IncludeGraph& graph) {
  std::vector<Finding> out;
  for (const auto& cycle : graph.FindCycles()) {
    if (cycle.size() < 2) continue;
    Finding f;
    f.rule = Rule::kLayering;
    const std::string site = graph.EdgeSite(cycle[0], cycle[1]);
    const size_t colon = site.rfind(':');
    if (colon != std::string::npos) {
      f.file = site.substr(0, colon);
      f.line = std::atoi(site.c_str() + colon + 1);
    }
    std::ostringstream msg;
    msg << "module cycle in the include graph: ";
    for (size_t k = 0; k < cycle.size(); ++k) {
      if (k > 0) msg << " -> ";
      msg << cycle[k];
    }
    msg << "; the architecture requires the module graph to be a DAG, and a "
        << "cycle cannot be excused at any single include site";
    f.message = msg.str();
    f.path = cycle;
    out.push_back(std::move(f));
  }
  return out;
}

std::vector<Finding> LintSource(const std::string& path,
                                std::string_view source,
                                const LintOptions& options) {
  const FileIR ir = ParseSource(path, source);
  ProjectContext ctx;
  CollectProject(ir, &ctx);
  return LintFile(ir, ctx, options);
}

std::string FindingsToJson(const std::vector<Finding>& findings,
                           size_t files_scanned,
                           const std::vector<std::string>& errors) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"tool\": \"crayfish_lint\",\n";
  os << "  \"schema_version\": 4,\n";
  os << "  \"files_scanned\": " << files_scanned << ",\n";
  os << "  \"errors\": [";
  for (size_t i = 0; i < errors.size(); ++i) {
    if (i > 0) os << ", ";
    os << "\"" << JsonEscape(errors[i]) << "\"";
  }
  os << "],\n";
  os << "  \"findings\": [";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    os << (i > 0 ? ",\n    " : "\n    ");
    os << "{\"file\": \"" << JsonEscape(f.file) << "\", \"line\": " << f.line
       << ", \"rule\": \"" << RuleName(f.rule) << "\", \"suppress_keyword\": \""
       << SuppressionKeyword(f.rule) << "\", \"message\": \""
       << JsonEscape(f.message) << "\"";
    if (!f.suggestion.empty()) {
      os << ", \"suggestion\": \"" << JsonEscape(f.suggestion) << "\"";
    }
    if (!f.path.empty()) {
      os << ", \"path\": [";
      for (size_t k = 0; k < f.path.size(); ++k) {
        if (k > 0) os << ", ";
        os << "\"" << JsonEscape(f.path[k]) << "\"";
      }
      os << "]";
    }
    os << "}";
  }
  os << (findings.empty() ? "]\n" : "\n  ]\n");
  os << "}\n";
  return os.str();
}

}  // namespace crayfish::lint
