// crayfish_lint: determinism & correctness static analysis for the Crayfish
// simulated stack. See DESIGN.md "Determinism rules" and §4.3 "Architecture
// layering" for the rule set.
//
// Usage:
//   crayfish_lint [--fix-suggestions] [--format=text|json] [--jobs=N]
//                 [--dump-dag] <file-or-dir>...
//
// Text output is machine readable, one finding per line:
//   <file>:<line>: <rule>: <message>
// --format=json emits one SARIF-ish JSON document on stdout instead.
// Exit status: 0 = clean, 1 = findings, 2 = usage or internal/IO error.
// Unreadable files are reported and skipped so one bad path cannot hide the
// findings of the rest; any such error still forces exit status 2.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "crayfish_lint/include_graph.h"
#include "crayfish_lint/lexer.h"
#include "crayfish_lint/lint.h"
#include "crayfish_lint/parser.h"

namespace fs = std::filesystem;

namespace {

bool IsCppSource(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".h" || ext == ".cpp" || ext == ".hpp";
}

/// Collects .h/.cc files under `root` (or `root` itself when it is a file),
/// skipping build trees. Sorted so output order is stable across filesystems
/// — the linter holds itself to its own R3.
std::vector<std::string> GatherFiles(const std::string& root) {
  std::vector<std::string> files;
  std::error_code ec;
  if (fs::is_regular_file(root, ec)) {
    files.push_back(root);
    return files;
  }
  for (fs::recursive_directory_iterator it(root, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    const fs::path& p = it->path();
    const std::string name = p.filename().string();
    if (it->is_directory(ec) &&
        (name == "build" || name == ".git" || name.rfind("cmake-", 0) == 0)) {
      it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file(ec) && IsCppSource(p)) {
      files.push_back(p.generic_string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

int Usage() {
  std::cerr
      << "usage: crayfish_lint [--fix-suggestions] [--format=text|json]\n"
         "                     [--jobs=N] [--dump-dag] <file-or-dir>...\n"
         "\n"
         "Determinism & correctness rules enforced over the Crayfish "
         "sources:\n"
         "  R1  no wall-clock reads (allowlisted: src/common/logging.cc,\n"
         "      bench/)\n"
         "  R2  no ambient randomness outside src/common/rng.{h,cc}\n"
         "  R3  no unordered-container iteration in scheduling dirs\n"
         "      (src/sim, src/broker, src/sps, src/serving, src/core)\n"
         "  R5  no float accumulators in metrics/stats code\n"
         "  R6  no host-threading primitives (std::thread, std::mutex,\n"
         "      std::atomic, ...) outside src/core/sweep.{h,cc}, bench/,\n"
         "      and tools/crayfish_lint/\n"
         "  R7  include graph must follow the module DAG\n"
         "      common -> obs -> {sim, tensor} -> {broker, model} ->\n"
         "      fault -> scale -> {sps, serving} -> core\n"
         "      (plus sps -> serving)\n"
         "  R9  no mutation or const-stripping of shared_ptr<const T>\n"
         "      payloads outside their construction site\n"
         "\n"
         "Flags:\n"
         "  --fix-suggestions  append a remediation hint to each finding\n"
         "  --format=json      one JSON document on stdout instead of lines\n"
         "  --jobs=N           lint files with N worker threads (output\n"
         "                     order stays deterministic)\n"
         "  --dump-dag         print the observed module edges (the block\n"
         "                     DESIGN.md §4.3 embeds) and exit\n"
         "\n"
         "Suppress a finding on its line (or the line below a standalone\n"
         "comment) with `// lint: <keyword> <justification>`, keywords:\n"
         "  wall-clock-ok unseeded-ok order-independent float-ok\n"
         "  host-threading-ok layering-ok aliasing-ok\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  crayfish::lint::LintOptions options;
  std::string format = "text";
  int jobs = 1;
  bool dump_dag = false;
  std::vector<std::string> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fix-suggestions") {
      options.fix_suggestions = true;
    } else if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "text" && format != "json") {
        std::cerr << "crayfish_lint: unknown format '" << format << "'\n";
        return Usage();
      }
    } else if (arg.rfind("--jobs=", 0) == 0) {
      jobs = std::atoi(arg.c_str() + 7);
      if (jobs < 1) {
        std::cerr << "crayfish_lint: --jobs wants a positive integer\n";
        return Usage();
      }
    } else if (arg == "--dump-dag") {
      dump_dag = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "crayfish_lint: unknown flag '" << arg << "'\n";
      return Usage();
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) return Usage();

  std::vector<std::string> files;
  for (const std::string& root : roots) {
    std::error_code ec;
    if (!fs::exists(root, ec)) {
      std::cerr << "crayfish_lint: no such file or directory: " << root
                << "\n";
      return 2;
    }
    std::vector<std::string> sub = GatherFiles(root);
    files.insert(files.end(), sub.begin(), sub.end());
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  // Pass 1 (serial): read, lex, and parse every file; fold each file's
  // `shared_ptr<const T>` declarations into the R9 construction-site map and
  // its includes into the R7 include graph. Unreadable files become errors,
  // not an early exit, so the rest still gets linted.
  std::vector<crayfish::lint::FileIR> irs;
  irs.reserve(files.size());
  crayfish::lint::ProjectContext ctx;
  crayfish::lint::IncludeGraph graph;
  std::vector<std::string> errors;
  for (const std::string& file : files) {
    std::string content;
    if (!ReadFile(file, &content)) {
      errors.push_back("cannot read " + file);
      continue;
    }
    irs.push_back(crayfish::lint::ParseSource(file, content));
    crayfish::lint::CollectProject(irs.back(), &ctx);
    graph.Add(irs.back());
  }

  if (dump_dag) {
    std::cout << graph.Dump();
    for (const std::string& e : errors) {
      std::cerr << "crayfish_lint: " << e << "\n";
    }
    return errors.empty() ? 0 : 2;
  }

  // Pass 2: run the rules, optionally across worker threads. Results land in
  // a per-file slot indexed by the pass-1 order, so output is byte-identical
  // whatever --jobs is.
  std::vector<std::vector<crayfish::lint::Finding>> results(irs.size());
  int workers = jobs;
  if (static_cast<size_t>(workers) > irs.size()) {
    workers = static_cast<int>(irs.size());
  }
  if (workers <= 1) {
    for (size_t i = 0; i < irs.size(); ++i) {
      results[i] = crayfish::lint::LintFile(irs[i], ctx, options);
    }
  } else {
    std::atomic<size_t> next{0};
    std::vector<std::jthread> pool;
    pool.reserve(workers);
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        for (size_t i = next.fetch_add(1); i < irs.size();
             i = next.fetch_add(1)) {
          results[i] = crayfish::lint::LintFile(irs[i], ctx, options);
        }
      });
    }
  }

  std::vector<crayfish::lint::Finding> all;
  for (std::vector<crayfish::lint::Finding>& per_file : results) {
    all.insert(all.end(), std::make_move_iterator(per_file.begin()),
               std::make_move_iterator(per_file.end()));
  }
  // Project-level R7: module cycles are emergent facts of the whole include
  // graph.
  std::vector<crayfish::lint::Finding> cycles =
      crayfish::lint::LintIncludeCycles(graph);
  all.insert(all.end(), std::make_move_iterator(cycles.begin()),
             std::make_move_iterator(cycles.end()));
  // Strict (file, line) order for the whole run: per-file slots already come
  // out in path order, and this folds the project-level findings into the
  // same order instead of tacking them onto the end, so text output is
  // byte-identical for every --jobs value *and* sorted like the JSON.
  // Rule id breaks (file, line) ties so multi-rule hits on one line
  // serialize identically for every --jobs value.
  std::stable_sort(all.begin(), all.end(),
                   [](const crayfish::lint::Finding& a,
                      const crayfish::lint::Finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     return static_cast<int>(a.rule) <
                            static_cast<int>(b.rule);
                   });

  if (format == "json") {
    std::cout << crayfish::lint::FindingsToJson(all, irs.size(), errors);
  } else {
    std::set<std::string> files_with_findings;
    for (const crayfish::lint::Finding& f : all) {
      std::cout << f.ToString() << "\n";
      files_with_findings.insert(f.file);
    }
    std::cerr << "crayfish_lint: " << irs.size() << " files, " << all.size()
              << " finding(s) in " << files_with_findings.size()
              << " file(s)\n";
  }
  for (const std::string& e : errors) {
    std::cerr << "crayfish_lint: " << e << "\n";
  }
  if (!errors.empty()) return 2;
  return all.empty() ? 0 : 1;
}
