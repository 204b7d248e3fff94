#ifndef CRAYFISH_TOOLS_LINT_INCLUDE_GRAPH_H_
#define CRAYFISH_TOOLS_LINT_INCLUDE_GRAPH_H_

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "crayfish_lint/ir.h"

namespace crayfish::lint {

/// The architecture layering R7 enforces (DESIGN.md §4.3):
///
///   common → obs → {sim, tensor} → {broker, model} → fault → scale →
///   {sps, serving} → core
///
/// An arrow means "may be included by what follows": a module may include
/// itself and any module of a strictly lower layer. One extra documented
/// edge exists inside the {sps, serving} layer: sps → serving, because the
/// serving backends sit below the SPS engines that invoke them. Everything
/// else — same-layer includes and back-edges — is rejected. obs sits just
/// above common so every layer can call its instrumentation hooks, while obs
/// itself can never reach into the stack it observes.

/// Module of a source path: the `<m>` of `src/<m>/...`, or "" for files
/// outside src/ (tools/, bench/, tests/ are harness code above the DAG and
/// exempt from layering).
std::string ModuleOf(std::string_view path);

/// Layer rank of a module (0 = common, 1 = obs ... 7 = core), or -1 when
/// unknown.
int ModuleRank(std::string_view module);

/// True when a file of module `from` may include a header of module `to`.
bool LayeringAllows(std::string_view from, std::string_view to);

/// Records every project (quoted) include of every file and answers
/// module-level queries: the observed module dependency graph, and cycles
/// through it. Back-edge findings are produced per include site by the
/// linter (so they are suppressible); cycle findings are emergent project
/// facts and are produced here.
class IncludeGraph {
 public:
  /// Registers `ir`'s project includes. Files outside src/ still contribute
  /// edges from the pseudo-module "" so --dump-dag shows the full picture,
  /// but "" never participates in layering or cycle checks.
  void Add(const FileIR& ir);

  /// Observed module-dependency edges (self-edges omitted), keyed by source
  /// module; deterministic order.
  const std::map<std::string, std::set<std::string>>& edges() const {
    return edges_;
  }

  /// Module cycles through the observed graph, each as the module path
  /// `a -> b -> ... -> a`. Deterministic: smallest cycle entry first.
  std::vector<std::vector<std::string>> FindCycles() const;

  /// One line per observed edge, `from -> to`, sorted. DESIGN.md §4.3 embeds
  /// this block verbatim and a ctest gate keeps the two in sync.
  std::string Dump() const;

  /// A representative `file:line` for an observed module edge (the first
  /// include site registered, in sorted-path order), for cycle findings.
  std::string EdgeSite(const std::string& from, const std::string& to) const;

 private:
  std::map<std::string, std::set<std::string>> edges_;
  std::map<std::string, std::string> edge_sites_;  // "from>to" -> file:line
};

}  // namespace crayfish::lint

#endif  // CRAYFISH_TOOLS_LINT_INCLUDE_GRAPH_H_
