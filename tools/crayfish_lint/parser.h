#ifndef CRAYFISH_TOOLS_LINT_PARSER_H_
#define CRAYFISH_TOOLS_LINT_PARSER_H_

#include <string>
#include <string_view>
#include <vector>

#include "crayfish_lint/ir.h"
#include "crayfish_lint/lexer.h"

namespace crayfish::lint {

/// Lexes and parses one in-memory source into the rule IR: include
/// directives, suppression comments, and `shared_ptr<const T>` declarations.
/// Like the lexer, the parser is forgiving — on code it cannot model it
/// records nothing rather than failing, because lint must never block a
/// build the compiler accepts.
FileIR ParseSource(std::string path, std::string_view source);

/// Records this file's `shared_ptr<const T>` declarations into the R9
/// immutable-member home map. Called once per file in pass 1, before any
/// rule runs.
void CollectProject(const FileIR& ir, ProjectContext* ctx);

// --- Token-stream helpers shared by the parser and the token-level rules --

/// True for tokens the rules treat as code (not comments / preprocessor).
bool IsCodeToken(const Token& t);

/// Index of the next/previous code token, or -1.
int NextCode(const std::vector<Token>& toks, int i);
int PrevCode(const std::vector<Token>& toks, int i);

/// Starting at the index of a `<` token, returns the index just past the
/// matching `>` (handles `>>` produced by the lexer), or -1 when unmatched.
int SkipAngles(const std::vector<Token>& toks, int open);

/// Starting at the index of a `(` token, returns the index of the matching
/// `)`, or -1.
int MatchParen(const std::vector<Token>& toks, int open);

}  // namespace crayfish::lint

#endif  // CRAYFISH_TOOLS_LINT_PARSER_H_
