#ifndef CRAYFISH_TOOLS_LINT_IR_H_
#define CRAYFISH_TOOLS_LINT_IR_H_

#include <map>
#include <string>
#include <vector>

#include "crayfish_lint/lexer.h"

namespace crayfish::lint {

/// One `#include` directive as the include-graph rules see it.
struct Include {
  std::string target;      ///< header path between the delimiters
  bool is_system = false;  ///< `<...>` form (never part of the project graph)
  int line = 0;
};

/// A member or variable declared as `std::shared_ptr<const T>`: an immutable
/// shared buffer in Crayfish's ownership model (R9).
struct ImmutableSharedDecl {
  std::string name;
  int line = 0;
};

/// `// lint: <keyword> <justification>` extracted from comments *and* from
/// trailing comments folded into preprocessor tokens (so an `#include` line
/// can carry its own suppression).
struct Suppression {
  std::string keyword;
  std::string justification;
  int line = 0;        ///< line the comment is on
  int applies_to = 0;  ///< line of code it suppresses
};

/// The per-file intermediate representation every rule runs over. No C++
/// semantics — just tokens, includes, `shared_ptr<const T>` declarations and
/// suppressions, which is what the Crayfish rules need.
struct FileIR {
  std::string path;
  std::vector<Token> tokens;
  std::vector<Include> includes;
  std::vector<ImmutableSharedDecl> immutable_decls;
  std::vector<Suppression> suppressions;
};

/// Cross-file facts collected in pass 1 and shared (read-only) by every
/// per-file lint pass: the R9 map from immutable shared-buffer member names
/// to the file that declares them (their construction site).
struct ProjectContext {
  std::map<std::string, std::string> immutable_member_home;
};

}  // namespace crayfish::lint

#endif  // CRAYFISH_TOOLS_LINT_IR_H_
