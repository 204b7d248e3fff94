#include "crayfish_lint/include_graph.h"

#include <algorithm>
#include <functional>
#include <sstream>

namespace crayfish::lint {
namespace {

/// Layer ranks of the module DAG. Same-layer modules may not include each
/// other; the single sanctioned same-layer edge is sps → serving.
const std::map<std::string, int, std::less<>> kModuleRanks = {
    {"common", 0}, {"obs", 1},     {"sim", 2},   {"tensor", 2},
    {"broker", 3}, {"model", 3},   {"fault", 4}, {"scale", 5},
    {"sps", 6},    {"serving", 6}, {"core", 7},
};

}  // namespace

std::string ModuleOf(std::string_view path) {
  // Accept absolute, repo-relative, and bare forms: anything containing
  // "src/<module>/" (or starting with it) maps to <module>.
  size_t at = path.rfind("src/");
  while (at != std::string_view::npos) {
    const bool boundary = at == 0 || path[at - 1] == '/';
    if (boundary) {
      const size_t start = at + 4;
      const size_t slash = path.find('/', start);
      if (slash != std::string_view::npos) {
        const std::string_view module = path.substr(start, slash - start);
        if (kModuleRanks.count(module) > 0) return std::string(module);
      }
    }
    if (at == 0) break;
    at = path.rfind("src/", at - 1);
  }
  return "";
}

int ModuleRank(std::string_view module) {
  const auto it = kModuleRanks.find(module);
  return it == kModuleRanks.end() ? -1 : it->second;
}

bool LayeringAllows(std::string_view from, std::string_view to) {
  if (from == to) return true;
  const int rf = ModuleRank(from);
  const int rt = ModuleRank(to);
  if (rf < 0 || rt < 0) return true;  // outside the DAG: not layered
  if (rt < rf) return true;
  return from == "sps" && to == "serving";
}

void IncludeGraph::Add(const FileIR& ir) {
  const std::string from = ModuleOf(ir.path);
  for (const Include& inc : ir.includes) {
    if (inc.is_system) continue;
    // Project includes are written module-relative ("broker/record.h").
    const size_t slash = inc.target.find('/');
    if (slash == std::string::npos) continue;
    const std::string to_module = inc.target.substr(0, slash);
    if (ModuleRank(to_module) < 0) continue;
    if (to_module == from) continue;
    edges_[from].insert(to_module);
    std::ostringstream site;
    site << ir.path << ":" << inc.line;
    edge_sites_.emplace(from + ">" + to_module, site.str());
  }
}

std::vector<std::vector<std::string>> IncludeGraph::FindCycles() const {
  // Iterative DFS with colors over the (tiny) module graph; the pseudo-
  // module "" (harness code) never takes part.
  std::vector<std::vector<std::string>> cycles;
  std::set<std::string> done;
  for (const auto& [start, _] : edges_) {
    if (start.empty()) continue;
    std::vector<std::string> stack = {start};
    std::set<std::string> on_path = {start};
    // Depth-first walk remembering the path; report each cycle once, keyed
    // by its smallest rotation.
    std::function<void(const std::string&)> dfs =
        [&](const std::string& node) {
          const auto it = edges_.find(node);
          if (it == edges_.end()) return;
          for (const std::string& next : it->second) {
            if (next.empty()) continue;
            if (on_path.count(next) > 0) {
              // Found a cycle: slice the stack from `next` onward.
              auto from = std::find(stack.begin(), stack.end(), next);
              std::vector<std::string> cycle(from, stack.end());
              cycle.push_back(next);
              // Canonical rotation so each cycle is reported once.
              auto min_it =
                  std::min_element(cycle.begin(), cycle.end() - 1);
              std::rotate(cycle.begin(), min_it, cycle.end() - 1);
              cycle.back() = cycle.front();
              if (std::find(cycles.begin(), cycles.end(), cycle) ==
                  cycles.end()) {
                cycles.push_back(cycle);
              }
              continue;
            }
            if (done.count(next) > 0) continue;
            stack.push_back(next);
            on_path.insert(next);
            dfs(next);
            on_path.erase(next);
            stack.pop_back();
          }
        };
    dfs(start);
    done.insert(start);
  }
  std::sort(cycles.begin(), cycles.end());
  return cycles;
}

std::string IncludeGraph::Dump() const {
  std::ostringstream os;
  for (const auto& [from, tos] : edges_) {
    for (const std::string& to : tos) {
      os << (from.empty() ? "(harness)" : from) << " -> " << to << "\n";
    }
  }
  return os.str();
}

std::string IncludeGraph::EdgeSite(const std::string& from,
                                   const std::string& to) const {
  const auto it = edge_sites_.find(from + ">" + to);
  return it == edge_sites_.end() ? "" : it->second;
}

}  // namespace crayfish::lint
