#ifndef CRAYFISH_TOOLS_LINT_LINT_H_
#define CRAYFISH_TOOLS_LINT_LINT_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "crayfish_lint/include_graph.h"
#include "crayfish_lint/ir.h"
#include "crayfish_lint/lexer.h"
#include "crayfish_lint/parser.h"

namespace crayfish::lint {

/// Rule identifiers. R0 is the meta-rule that validates suppression comments
/// themselves (unknown keyword, missing justification).
enum class Rule {
  kSuppression,   // R0
  kWallClock,     // R1: no wall-clock reads in simulated code
  kRandomness,    // R2: no ambient randomness outside common/rng
  kHashOrder,     // R3: no iteration over unordered containers in
                  //     scheduling-adjacent directories
  kIgnoredStatus, // R4: no discarded common::Status results
  kFloatAccum,    // R5: no float accumulators in metrics/stats code
  kHostThreading, // R6: no host-threading primitives outside the sweep
                  //     runner (src/core/sweep*), bench/, and the lint tool
  kLayering,      // R7: include graph must follow the module DAG
  kUseAfterMove,  // R8: no use of a moved-from local/param on any path
  kPayloadAlias,  // R9: no mutation/aliasing of shared_ptr<const T> payloads
};

/// Stable short name used in machine-readable output ("R1", "R2", ...).
std::string_view RuleName(Rule rule);

/// The suppression keyword that silences a rule on its line, e.g.
/// `// lint: order-independent <justification>` for R3.
std::string_view SuppressionKeyword(Rule rule);

struct Finding {
  std::string file;  ///< path as given to the linter (repo-relative in CI)
  int line = 0;
  Rule rule = Rule::kSuppression;
  std::string message;
  std::string suggestion;  ///< printed only under --fix-suggestions
  /// R7 only: the offending module path (`{from, to}` for a back-edge, the
  /// full module sequence for a cycle), machine-readable in --format=json.
  std::vector<std::string> path;

  /// "file:line: R3: message" (one line, grep/IDE friendly).
  std::string ToString() const;
};

struct LintOptions {
  bool fix_suggestions = false;
};

/// Runs all per-file rules over one parsed file. `ir.path` should use
/// forward slashes; directory-scoped rules match on path suffixes so
/// absolute and relative invocations behave identically.
std::vector<Finding> LintFile(const FileIR& ir, const ProjectContext& ctx,
                              const LintOptions& options);

/// Project-level R7 findings: module cycles through the observed include
/// graph. Cycles are emergent (every single edge may carry a justified
/// suppression, yet together they can close a loop), so they are not
/// suppressible at any one site.
std::vector<Finding> LintIncludeCycles(const IncludeGraph& graph);

/// Convenience used by the unit tests and the two-pass driver: parse + lint
/// one file with a caller-supplied symbol table (legacy signature; the rest
/// of the project context defaults to empty).
std::vector<Finding> LintTokens(const std::string& path,
                                const std::vector<Token>& tokens,
                                const SymbolTable& table,
                                const LintOptions& options);

/// Convenience: lex + parse + lint one in-memory source. The file's own
/// declarations feed its project context, so single-file fixtures exercise
/// R7-R9 without a separate pass.
std::vector<Finding> LintSource(const std::string& path,
                                std::string_view source,
                                const SymbolTable& table,
                                const LintOptions& options);

/// Serializes a lint run machine-readably (SARIF-ish, stable key order):
/// `{"tool": "crayfish_lint", "schema_version": 4, "files_scanned": N,
///   "errors": [...], "findings": [{"file", "line", "rule", "message",
///   "suppress_keyword", "suggestion"?, "path"?}]}`.
std::string FindingsToJson(const std::vector<Finding>& findings,
                           size_t files_scanned,
                           const std::vector<std::string>& errors);

}  // namespace crayfish::lint

#endif  // CRAYFISH_TOOLS_LINT_LINT_H_
