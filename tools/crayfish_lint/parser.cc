#include "crayfish_lint/parser.h"

#include <algorithm>
#include <cctype>
#include <set>
#include <sstream>
#include <utility>

namespace crayfish::lint {
namespace {

/// Identifiers that can never be the type of a declaration or the name of a
/// function being defined — seeing one aborts the respective parse attempt.
const std::set<std::string> kStatementKeywords = {
    "return", "co_return", "co_await", "co_yield", "case",   "goto",
    "new",    "delete",    "throw",    "else",     "do",     "sizeof",
    "alignof", "typedef",  "using",    "namespace", "if",    "while",
    "for",    "switch",    "template", "typename", "class",  "struct",
    "enum",   "public",    "private",  "protected", "operator", "friend",
    "break",  "continue",  "static_assert", "catch", "try",  "default",
};

/// Decl-specifier noise skipped before (and interleaved with) the type.
const std::set<std::string> kDeclQualifiers = {
    "static",   "const",    "constexpr", "consteval", "constinit",
    "inline",   "mutable",  "volatile",  "unsigned",  "signed",
    "long",     "short",    "register",  "thread_local", "extern",
};

/// Method names that leave a moved-from object in a defined state again.
const std::set<std::string> kResetMethods = {"clear", "reset", "assign",
                                             "swap"};

int MatchBrace(const std::vector<Token>& toks, int open) {
  int depth = 0;
  for (int k = open; k < static_cast<int>(toks.size()); ++k) {
    const Token& t = toks[k];
    if (!IsCodeToken(t)) continue;
    if (t.IsPunct("{")) ++depth;
    if (t.IsPunct("}")) {
      --depth;
      if (depth == 0) return k;
    }
  }
  return -1;
}

int MatchBracket(const std::vector<Token>& toks, int open) {
  int depth = 0;
  for (int k = open; k < static_cast<int>(toks.size()); ++k) {
    const Token& t = toks[k];
    if (!IsCodeToken(t)) continue;
    if (t.IsPunct("[")) ++depth;
    if (t.IsPunct("]")) {
      --depth;
      if (depth == 0) return k;
    }
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Includes & suppressions
// ---------------------------------------------------------------------------

void ExtractIncludes(const std::vector<Token>& toks, FileIR* ir) {
  for (const Token& t : toks) {
    if (t.kind != TokenKind::kPreprocessor) continue;
    size_t p = t.text.find('#');
    if (p == std::string::npos) continue;
    ++p;
    while (p < t.text.size() && (t.text[p] == ' ' || t.text[p] == '\t')) ++p;
    if (t.text.compare(p, 7, "include") != 0) continue;
    p += 7;
    while (p < t.text.size() && (t.text[p] == ' ' || t.text[p] == '\t')) ++p;
    if (p >= t.text.size()) continue;
    const char open = t.text[p];
    if (open != '"' && open != '<') continue;
    const char close = open == '"' ? '"' : '>';
    const size_t end = t.text.find(close, p + 1);
    if (end == std::string::npos) continue;
    Include inc;
    inc.target = t.text.substr(p + 1, end - p - 1);
    inc.is_system = open == '<';
    inc.line = t.line;
    ir->includes.push_back(std::move(inc));
  }
}

/// Position of the first `//` that actually starts a comment in a
/// preprocessor directive's folded text — i.e. `//` outside every string,
/// raw-string, and character literal. `R"(http://...)"` and `"// not a
/// comment"` in a #define body must not count. Returns npos when the line
/// has no trailing comment.
size_t TrailingCommentPos(const std::string& text) {
  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    const char c = text[i];
    if (c == '/' && i + 1 < n && text[i + 1] == '/') return i;
    if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      const size_t close = text.find("*/", i + 2);
      if (close == std::string::npos) return std::string::npos;
      i = close + 2;
      continue;
    }
    if (c == '"' || c == '\'') {
      // Raw string? Look back over an optional encoding prefix for `R`.
      bool raw = false;
      if (c == '"' && i > 0) {
        size_t p = i;
        while (p > 0 && (text[p - 1] == '8' || text[p - 1] == 'u' ||
                         text[p - 1] == 'U' || text[p - 1] == 'L')) {
          --p;
        }
        raw = p > 0 && text[p - 1] == 'R' &&
              (p < 2 || !(std::isalnum(static_cast<unsigned char>(
                              text[p - 2])) ||
                          text[p - 2] == '_'));
      }
      if (raw) {
        const size_t open_paren = text.find('(', i + 1);
        if (open_paren == std::string::npos) return std::string::npos;
        std::string closer = ")";
        closer.append(text, i + 1, open_paren - i - 1);
        closer += '"';
        const size_t close = text.find(closer, open_paren + 1);
        if (close == std::string::npos) return std::string::npos;
        i = close + closer.size();
        continue;
      }
      ++i;
      while (i < n && text[i] != c) {
        if (text[i] == '\\' && i + 1 < n) ++i;
        ++i;
      }
      ++i;
      continue;
    }
    ++i;
  }
  return std::string::npos;
}

std::string TrimJustification(std::string s) {
  const auto is_noise = [](char c) {
    return c == ' ' || c == '\t' || c == '-' || c == ':' ||
           static_cast<unsigned char>(c) >= 0x80;  // em-dash bytes etc.
  };
  size_t b = 0;
  while (b < s.size() && is_noise(s[b])) ++b;
  size_t e = s.size();
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '/' ||
                   s[e - 1] == '*')) {
    --e;
  }
  return s.substr(b, e - b);
}

/// Extracts `// lint: <keyword> <justification>` from comment tokens and
/// from comments folded into preprocessor directive lines (which is how an
/// `#include` carries its own suppression). A comment on a line of its own
/// applies to the next line; a trailing comment applies to its own line.
void ExtractSuppressions(const std::vector<Token>& toks, FileIR* ir) {
  std::set<int> code_lines;
  for (const Token& t : toks) {
    if (IsCodeToken(t) || t.kind == TokenKind::kPreprocessor) {
      code_lines.insert(t.line);
    }
  }
  for (const Token& t : toks) {
    if (t.kind != TokenKind::kComment &&
        t.kind != TokenKind::kPreprocessor) {
      continue;
    }
    const size_t at = t.text.find("lint:");
    if (at == std::string::npos) continue;
    // `lint:` must start a word: `crayfish_lint:` in prose is not a marker.
    if (at > 0) {
      const char before = t.text[at - 1];
      if (std::isalnum(static_cast<unsigned char>(before)) || before == '_') {
        continue;
      }
    }
    // Inside a preprocessor token, only a trailing `//` comment counts —
    // and `//` inside a string/raw-string literal (`R"(http://...)"`, a
    // quoted URL in a #define) does not start a comment.
    if (t.kind == TokenKind::kPreprocessor) {
      const size_t comment = TrailingCommentPos(t.text);
      if (comment == std::string::npos || comment > at) continue;
    }
    std::istringstream rest(t.text.substr(at + 5));
    Suppression s;
    rest >> s.keyword;
    // Keywords are kebab-case words; anything else (`<keyword>` in a doc
    // comment quoting the syntax) is prose, not a suppression attempt.
    const bool plausible =
        !s.keyword.empty() &&
        std::all_of(s.keyword.begin(), s.keyword.end(), [](char c) {
          return std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
                 c == '_';
        });
    if (!plausible) continue;
    std::string tail;
    std::getline(rest, tail);
    s.justification = TrimJustification(tail);
    s.line = t.line;
    s.applies_to =
        (t.kind == TokenKind::kPreprocessor || code_lines.count(t.line))
            ? t.line
            : t.line + 1;
    ir->suppressions.push_back(std::move(s));
  }
}

// ---------------------------------------------------------------------------
// shared_ptr<const T> declarations (R9)
// ---------------------------------------------------------------------------

void ExtractImmutableDecls(const std::vector<Token>& toks, FileIR* ir) {
  for (int i = 0; i < static_cast<int>(toks.size()); ++i) {
    if (!toks[i].IsIdent("shared_ptr")) continue;
    const int open = NextCode(toks, i);
    if (open < 0 || !toks[open].IsPunct("<")) continue;
    const int first = NextCode(toks, open);
    if (first < 0 || !toks[first].IsIdent("const")) continue;
    int k = SkipAngles(toks, open);
    if (k < 0) continue;
    if (k < static_cast<int>(toks.size()) && !IsCodeToken(toks[k])) {
      k = NextCode(toks, k - 1);
    }
    if (k < 0 || k >= static_cast<int>(toks.size()) ||
        toks[k].kind != TokenKind::kIdentifier) {
      continue;
    }
    const int after = NextCode(toks, k);
    // `shared_ptr<const T> name ;|=|{` — a declaration, not a cast or a
    // template argument somewhere else.
    if (after >= 0 &&
        !(toks[after].IsPunct(";") || toks[after].IsPunct("=") ||
          toks[after].IsPunct("{") || toks[after].IsPunct(")"))) {
      continue;
    }
    ir->immutable_decls.push_back({toks[k].text, toks[k].line});
  }
}

// ---------------------------------------------------------------------------
// Discarded call statements (R4 input)
// ---------------------------------------------------------------------------

void ExtractDiscardedCalls(const std::vector<Token>& toks, FileIR* ir) {
  for (int i = 0; i < static_cast<int>(toks.size()); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    // Statement start: previous code token ends a statement or block.
    const int prev = PrevCode(toks, i);
    if (prev >= 0) {
      const Token& p = toks[prev];
      const bool boundary = p.IsPunct(";") || p.IsPunct("{") ||
                            p.IsPunct("}") || p.IsPunct(")") ||
                            p.IsIdent("else") || p.IsIdent("do");
      if (!boundary) continue;
    }
    if (kStatementKeywords.count(t.text) > 0) continue;
    // Walk the qualified/member chain to the callee identifier.
    int callee = i;
    int k = NextCode(toks, i);
    while (k >= 0 && (toks[k].IsPunct("::") || toks[k].IsPunct(".") ||
                      toks[k].IsPunct("->"))) {
      const int name = NextCode(toks, k);
      if (name < 0 || toks[name].kind != TokenKind::kIdentifier) break;
      callee = name;
      k = NextCode(toks, name);
    }
    if (k < 0 || !toks[k].IsPunct("(")) continue;
    const int close = MatchParen(toks, k);
    if (close < 0) continue;
    const int after = NextCode(toks, close);
    if (after < 0 || !toks[after].IsPunct(";")) continue;
    ir->discarded_calls.push_back({toks[callee].text, toks[callee].line});
  }
}

// ---------------------------------------------------------------------------
// Statement / CFG parser
// ---------------------------------------------------------------------------

class FunctionParser {
 public:
  explicit FunctionParser(const std::vector<Token>& toks) : toks_(toks) {}

  /// Scans the whole token stream for function definitions; statements
  /// inside a parsed body are consumed and never re-scanned. Callbacks
  /// peeled out of Schedule/ScheduleAt lambda arguments follow their host
  /// function in token order, so R8 also walks each scheduled callback's
  /// body as a function of its own.
  std::vector<Function> ParseAll() {
    std::vector<Function> out;
    const int n = static_cast<int>(toks_.size());
    int i = 0;
    while (i < n) {
      if (!IsCodeToken(toks_[i]) || !toks_[i].IsPunct("(")) {
        ++i;
        continue;
      }
      Function fn;
      pending_callbacks_.clear();
      cb_counter_ = 0;
      int past = TryParseFunctionAt(i, &fn);
      if (past > 0) {
        out.push_back(std::move(fn));
        for (Function& cb : pending_callbacks_) out.push_back(std::move(cb));
        pending_callbacks_.clear();
        i = past;
      } else {
        ++i;
      }
    }
    return out;
  }

 private:
  const std::vector<Token>& toks_;
  std::vector<Function> pending_callbacks_;
  int cb_counter_ = 0;

  /// `open` is a `(` token. Returns the index past the function body when
  /// `name(params) [specifiers] [: init-list] { ... }` matches, else -1.
  int TryParseFunctionAt(int open, Function* fn) {
    const int name = PrevCode(toks_, open);
    if (name < 0 || toks_[name].kind != TokenKind::kIdentifier) return -1;
    if (kStatementKeywords.count(toks_[name].text) > 0 ||
        toks_[name].IsIdent("void")) {
      return -1;
    }
    // The token before the name must look like the tail of a return type /
    // qualifier (`Status F`, `KafkaCluster::F`, `T& F`, `T* F`, `T> F`) so
    // that call statements and macro invocations are not misread as
    // definitions.
    const int before = PrevCode(toks_, name);
    if (before < 0) return -1;
    const Token& b = toks_[before];
    const bool typeish =
        (b.kind == TokenKind::kIdentifier &&
         kStatementKeywords.count(b.text) == 0) ||
        b.IsPunct("::") || b.IsPunct("*") || b.IsPunct("&") ||
        b.IsPunct("&&") || b.IsPunct(">");
    if (!typeish) return -1;
    const int close = MatchParen(toks_, open);
    if (close < 0) return -1;
    const int body_open = FindBodyOpen(close);
    if (body_open < 0) return -1;
    const int body_close = MatchBrace(toks_, body_open);
    if (body_close < 0) return -1;
    fn->name = toks_[name].text;
    fn->line = toks_[name].line;
    fn->params = ParseParams(open, close);
    fn->body = ParseStmtList(body_open + 1, body_close);
    PeelCallbacks(body_open + 1, body_close, fn->name, &pending_callbacks_);
    return body_close + 1;
  }

  /// After the parameter list's `)`, skips cv/ref/noexcept/override/trailing
  /// return/member-init-list and returns the index of the body `{`, or -1.
  int FindBodyOpen(int close) {
    int k = NextCode(toks_, close);
    while (k >= 0) {
      const Token& t = toks_[k];
      if (t.IsPunct("{")) return k;
      if (t.IsIdent("const") || t.IsIdent("noexcept") ||
          t.IsIdent("override") || t.IsIdent("final") ||
          t.IsIdent("mutable") || t.IsPunct("&") || t.IsPunct("&&")) {
        const int n = NextCode(toks_, k);
        if (n >= 0 && t.IsIdent("noexcept") && toks_[n].IsPunct("(")) {
          const int c = MatchParen(toks_, n);
          if (c < 0) return -1;
          k = NextCode(toks_, c);
          continue;
        }
        k = n;
        continue;
      }
      if (t.IsPunct("->")) {  // trailing return type
        k = NextCode(toks_, k);
        while (k >= 0 && (toks_[k].kind == TokenKind::kIdentifier ||
                          toks_[k].IsPunct("::") || toks_[k].IsPunct("*") ||
                          toks_[k].IsPunct("&"))) {
          const int n = NextCode(toks_, k);
          if (n >= 0 && toks_[n].IsPunct("<")) {
            const int a = SkipAngles(toks_, n);
            if (a < 0) return -1;
            k = a < static_cast<int>(toks_.size()) && IsCodeToken(toks_[a])
                    ? a
                    : NextCode(toks_, a - 1);
          } else {
            k = n;
          }
        }
        continue;
      }
      if (t.IsPunct(":")) {  // constructor member-init list
        k = NextCode(toks_, k);
        while (k >= 0) {
          // initializer: qualified name, then (...) or {...}
          while (k >= 0 && (toks_[k].kind == TokenKind::kIdentifier ||
                            toks_[k].IsPunct("::"))) {
            const int n = NextCode(toks_, k);
            if (n >= 0 && toks_[n].IsPunct("<")) {
              const int a = SkipAngles(toks_, n);
              if (a < 0) return -1;
              k = a < static_cast<int>(toks_.size()) &&
                          IsCodeToken(toks_[a])
                      ? a
                      : NextCode(toks_, a - 1);
            } else {
              k = n;
            }
          }
          if (k < 0) return -1;
          int after_init = -1;
          if (toks_[k].IsPunct("(")) {
            after_init = MatchParen(toks_, k);
          } else if (toks_[k].IsPunct("{")) {
            after_init = MatchBrace(toks_, k);
          }
          if (after_init < 0) return -1;
          k = NextCode(toks_, after_init);
          if (k < 0) return -1;
          if (toks_[k].IsPunct(",")) {
            k = NextCode(toks_, k);
            continue;
          }
          break;  // expect the body `{` next
        }
        continue;
      }
      return -1;  // `= default`, `;`, or an expression — not a definition
    }
    return -1;
  }

  std::vector<VarDecl> ParseParams(int open, int close) {
    std::vector<VarDecl> params;
    int depth_angle = 0, depth_paren = 0, depth_brace = 0;
    std::vector<int> piece_idents;  // top-level idents of the current piece
    bool defaulted = false;  // inside `= default-arg`, name already seen
    const auto flush = [&] {
      if (piece_idents.empty()) return;
      const int name = piece_idents.back();
      params.push_back(VarDecl{toks_[name].text, toks_[name].line});
    };
    for (int k = open + 1; k < close; ++k) {
      const Token& t = toks_[k];
      if (!IsCodeToken(t)) continue;
      if (t.IsPunct("<")) ++depth_angle;
      if (t.IsPunct(">")) --depth_angle;
      if (t.IsPunct("<<")) depth_angle += 2;
      if (t.IsPunct(">>")) depth_angle -= 2;
      if (t.IsPunct("(")) ++depth_paren;
      if (t.IsPunct(")")) --depth_paren;
      if (t.IsPunct("{")) ++depth_brace;
      if (t.IsPunct("}")) --depth_brace;
      const bool top = depth_angle <= 0 && depth_paren == 0 &&
                       depth_brace == 0;
      if (top && t.IsPunct(",")) {
        flush();
        piece_idents.clear();
        defaulted = false;
        continue;
      }
      if (top && t.IsPunct("=")) defaulted = true;
      if (top && !defaulted) {
        if (t.kind == TokenKind::kIdentifier && !t.IsIdent("const") &&
            !t.IsIdent("void")) {
          piece_idents.push_back(k);
        }
      }
    }
    flush();
    return params;
  }

  std::vector<Stmt> ParseStmtList(int begin, int end) {
    std::vector<Stmt> stmts;
    int i = begin;
    while (i < end) {
      if (!IsCodeToken(toks_[i]) || toks_[i].IsPunct(";")) {
        ++i;
        continue;
      }
      auto [stmt, next] = ParseOneStmt(i, end);
      stmts.push_back(std::move(stmt));
      i = next > i ? next : i + 1;  // always make progress
    }
    return stmts;
  }

  /// Parses one statement starting at code token `i`; returns the statement
  /// and the index just past it.
  std::pair<Stmt, int> ParseOneStmt(int i, int end) {
    Stmt s;
    s.line = toks_[i].line;
    const Token& t = toks_[i];

    if (t.IsPunct("{")) {
      const int close = MatchBrace(toks_, i);
      const int stop = close < 0 || close > end ? end : close;
      s.kind = StmtKind::kBlock;
      s.branches.push_back(ParseStmtList(i + 1, stop));
      return {std::move(s), stop + 1};
    }
    if (t.IsIdent("if")) return ParseIf(i, end);
    if (t.IsIdent("for")) return ParseFor(i, end);
    if (t.IsIdent("while")) return ParseWhile(i, end);
    if (t.IsIdent("do")) return ParseDo(i, end);
    if (t.IsIdent("switch")) return ParseSwitch(i, end);
    if (t.IsIdent("try")) return ParseTry(i, end);
    if (t.IsIdent("return") || t.IsIdent("throw") ||
        t.IsIdent("co_return")) {
      const int stop = FindStmtEnd(i, end);
      s.kind = StmtKind::kReturn;
      ExtractEvents(i + 1, stop, &s, /*allow_decl=*/false);
      return {std::move(s), stop + 1};
    }
    if (t.IsIdent("break") || t.IsIdent("continue") || t.IsIdent("goto")) {
      const int stop = FindStmtEnd(i, end);
      s.kind = StmtKind::kExpr;
      return {std::move(s), stop + 1};
    }
    if (t.IsIdent("case") || t.IsIdent("default")) {
      int k = i;
      while (k < end && !(IsCodeToken(toks_[k]) && toks_[k].IsPunct(":"))) {
        ++k;
      }
      s.kind = StmtKind::kExpr;
      return {std::move(s), k + 1};
    }
    if (t.IsIdent("else")) {
      // Orphaned else (shouldn't happen): parse the controlled statement.
      const int next = NextCode(toks_, i);
      if (next < 0 || next >= end) return {std::move(s), end};
      return ParseOneStmt(next, end);
    }
    // Expression / declaration statement.
    const int stop = FindStmtEnd(i, end);
    s.kind = StmtKind::kExpr;
    ExtractEvents(i, stop, &s, /*allow_decl=*/true);
    return {std::move(s), stop + 1};
  }

  /// Index of the `;` ending the statement starting at `i` (at paren/brace/
  /// bracket depth 0 — semicolons inside lambda bodies belong to the
  /// statement), or the first unbalanced `}`, or `end`.
  int FindStmtEnd(int i, int end) {
    int paren = 0, brace = 0, bracket = 0;
    for (int k = i; k < end; ++k) {
      const Token& t = toks_[k];
      if (!IsCodeToken(t)) continue;
      if (t.IsPunct("(")) ++paren;
      if (t.IsPunct(")")) --paren;
      if (t.IsPunct("[")) ++bracket;
      if (t.IsPunct("]")) --bracket;
      if (t.IsPunct("{")) ++brace;
      if (t.IsPunct("}")) {
        if (brace == 0) return k;  // end of enclosing block
        --brace;
      }
      if (t.IsPunct(";") && paren == 0 && brace == 0 && bracket == 0) {
        return k;
      }
    }
    return end;
  }

  /// Parses either `{ ... }` or a single controlled statement into a branch.
  std::pair<std::vector<Stmt>, int> ParseBranch(int i, int end) {
    if (i < 0) return {{}, end};
    while (i < end && !IsCodeToken(toks_[i])) ++i;
    if (i >= end) return {{}, end};
    if (toks_[i].IsPunct("{")) {
      const int close = MatchBrace(toks_, i);
      const int stop = close < 0 || close > end ? end : close;
      return {ParseStmtList(i + 1, stop), stop + 1};
    }
    auto [stmt, next] = ParseOneStmt(i, end);
    std::vector<Stmt> branch;
    branch.push_back(std::move(stmt));
    return {std::move(branch), next};
  }

  std::pair<Stmt, int> ParseIf(int i, int end) {
    Stmt s;
    s.kind = StmtKind::kIf;
    s.line = toks_[i].line;
    int k = NextCode(toks_, i);
    if (k >= 0 && toks_[k].IsIdent("constexpr")) k = NextCode(toks_, k);
    if (k < 0 || !toks_[k].IsPunct("(")) return FallbackExpr(i, end);
    const int close = MatchParen(toks_, k);
    if (close < 0 || close > end) return FallbackExpr(i, end);
    ExtractEvents(k + 1, close, &s, /*allow_decl=*/true);
    auto [then_branch, after_then] = ParseBranch(close + 1, end);
    s.branches.push_back(std::move(then_branch));
    int j = after_then;
    while (j < end && !IsCodeToken(toks_[j])) ++j;
    if (j < end && toks_[j].IsIdent("else")) {
      auto [else_branch, after_else] = ParseBranch(NextCode(toks_, j), end);
      s.branches.push_back(std::move(else_branch));
      return {std::move(s), after_else};
    }
    return {std::move(s), after_then};
  }

  std::pair<Stmt, int> ParseFor(int i, int end) {
    Stmt s;
    s.kind = StmtKind::kLoop;
    s.line = toks_[i].line;
    const int open = NextCode(toks_, i);
    if (open < 0 || !toks_[open].IsPunct("(")) return FallbackExpr(i, end);
    const int close = MatchParen(toks_, open);
    if (close < 0 || close > end) return FallbackExpr(i, end);
    // Range-for: a plain `:` at paren depth 1.
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
    auto [body, after] = ParseBranch(close + 1, end);
    if (colon >= 0) {
      // Header decl + range uses rebind on every iteration: prepend them to
      // the body so each analysis pass re-processes them.
      Stmt header;
      header.kind = StmtKind::kExpr;
      header.line = toks_[i].line;
      ExtractEvents(open + 1, colon, &header, /*allow_decl=*/true);
      for (const VarDecl& d : header.decls) header.resets.push_back({d.name, d.line});
      ExtractEvents(colon + 1, close, &header, /*allow_decl=*/false);
      body.insert(body.begin(), std::move(header));
    } else {
      // Classic for: init runs once (events on the loop statement itself);
      // condition and increment re-run each iteration.
      int semi1 = -1, semi2 = -1;
      int d2 = 0;
      for (int k = open + 1; k < close; ++k) {
        if (!IsCodeToken(toks_[k])) continue;
        if (toks_[k].IsPunct("(")) ++d2;
        if (toks_[k].IsPunct(")")) --d2;
        if (d2 == 0 && toks_[k].IsPunct(";")) {
          if (semi1 < 0) {
            semi1 = k;
          } else {
            semi2 = k;
            break;
          }
        }
      }
      if (semi1 >= 0) {
        ExtractEvents(open + 1, semi1, &s, /*allow_decl=*/true);
      }
      Stmt header;
      header.kind = StmtKind::kExpr;
      header.line = toks_[i].line;
      if (semi1 >= 0 && semi2 >= 0) {
        ExtractEvents(semi1 + 1, semi2, &header, /*allow_decl=*/false);
        ExtractEvents(semi2 + 1, close, &header, /*allow_decl=*/false);
      }
      if (!header.uses.empty() || !header.moves.empty() ||
          !header.resets.empty()) {
        body.insert(body.begin(), std::move(header));
      }
    }
    s.branches.push_back(std::move(body));
    return {std::move(s), after};
  }

  std::pair<Stmt, int> ParseWhile(int i, int end) {
    Stmt s;
    s.kind = StmtKind::kLoop;
    s.line = toks_[i].line;
    const int open = NextCode(toks_, i);
    if (open < 0 || !toks_[open].IsPunct("(")) return FallbackExpr(i, end);
    const int close = MatchParen(toks_, open);
    if (close < 0 || close > end) return FallbackExpr(i, end);
    Stmt cond;
    cond.kind = StmtKind::kExpr;
    cond.line = toks_[i].line;
    ExtractEvents(open + 1, close, &cond, /*allow_decl=*/true);
    auto [body, after] = ParseBranch(close + 1, end);
    body.insert(body.begin(), std::move(cond));
    s.branches.push_back(std::move(body));
    return {std::move(s), after};
  }

  std::pair<Stmt, int> ParseDo(int i, int end) {
    Stmt s;
    s.kind = StmtKind::kLoop;
    s.line = toks_[i].line;
    auto [body, after_body] = ParseBranch(NextCode(toks_, i), end);
    int k = after_body;
    while (k < end && !IsCodeToken(toks_[k])) ++k;
    int after = after_body;
    if (k < end && toks_[k].IsIdent("while")) {
      const int open = NextCode(toks_, k);
      if (open >= 0 && toks_[open].IsPunct("(")) {
        const int close = MatchParen(toks_, open);
        if (close >= 0 && close <= end) {
          Stmt cond;
          cond.kind = StmtKind::kExpr;
          cond.line = toks_[k].line;
          ExtractEvents(open + 1, close, &cond, /*allow_decl=*/false);
          body.push_back(std::move(cond));
          const int semi = NextCode(toks_, close);
          after = semi >= 0 ? semi + 1 : close + 1;
        }
      }
    }
    s.branches.push_back(std::move(body));
    return {std::move(s), after};
  }

  std::pair<Stmt, int> ParseSwitch(int i, int end) {
    Stmt s;
    s.kind = StmtKind::kSwitch;
    s.line = toks_[i].line;
    const int open = NextCode(toks_, i);
    if (open < 0 || !toks_[open].IsPunct("(")) return FallbackExpr(i, end);
    const int close = MatchParen(toks_, open);
    if (close < 0 || close > end) return FallbackExpr(i, end);
    ExtractEvents(open + 1, close, &s, /*allow_decl=*/false);
    auto [body, after] = ParseBranch(close + 1, end);
    s.branches.push_back(std::move(body));
    return {std::move(s), after};
  }

  std::pair<Stmt, int> ParseTry(int i, int end) {
    Stmt s;
    s.kind = StmtKind::kTry;
    s.line = toks_[i].line;
    auto [body, after_body] = ParseBranch(NextCode(toks_, i), end);
    s.branches.push_back(std::move(body));
    int k = after_body;
    while (true) {
      int j = k;
      while (j < end && !IsCodeToken(toks_[j])) ++j;
      if (j >= end || !toks_[j].IsIdent("catch")) break;
      const int open = NextCode(toks_, j);
      if (open < 0 || !toks_[open].IsPunct("(")) break;
      const int close = MatchParen(toks_, open);
      if (close < 0 || close > end) break;
      auto [handler, after_handler] = ParseBranch(close + 1, end);
      Stmt decl_stmt;
      decl_stmt.kind = StmtKind::kExpr;
      decl_stmt.line = toks_[j].line;
      ExtractEvents(open + 1, close, &decl_stmt, /*allow_decl=*/true);
      handler.insert(handler.begin(), std::move(decl_stmt));
      s.branches.push_back(std::move(handler));
      k = after_handler;
    }
    return {std::move(s), k};
  }

  std::pair<Stmt, int> FallbackExpr(int i, int end) {
    Stmt s;
    s.kind = StmtKind::kExpr;
    s.line = toks_[i].line;
    const int stop = FindStmtEnd(i, end);
    ExtractEvents(i, stop, &s, /*allow_decl=*/false);
    return {std::move(s), stop + 1};
  }

  // -------------------------------------------------------------------------
  // Expression-level event extraction
  // -------------------------------------------------------------------------

  /// Tries to read a declaration at code token `i` (within [i, end)):
  /// `[qualifiers] Type[<...>][::...][*&]* name [= ; , { (]` or a structured
  /// binding `auto [a, b] = ...`. On success appends the declared names to
  /// `s->decls` and records their token indices in `decl_names`.
  void TryParseDecl(int i, int end, Stmt* s, std::set<int>* decl_names) {
    int k = i;
    auto advance = [&]() { k = NextCode(toks_, k); };
    // Qualifiers and built-in type words.
    bool saw_type_word = false;
    while (k >= 0 && k < end && toks_[k].kind == TokenKind::kIdentifier &&
           kDeclQualifiers.count(toks_[k].text) > 0) {
      if (toks_[k].text != "static" && toks_[k].text != "constexpr" &&
          toks_[k].text != "inline" && toks_[k].text != "const") {
        saw_type_word = true;
      }
      advance();
    }
    if (k < 0 || k >= end) return;
    if (toks_[k].kind == TokenKind::kIdentifier &&
        kStatementKeywords.count(toks_[k].text) == 0) {
      // Type name chain: ident (:: ident)* with template args.
      while (true) {
        int n = NextCode(toks_, k);
        if (n >= 0 && n < end && toks_[n].IsPunct("<")) {
          const int a = SkipAngles(toks_, n);
          if (a < 0 || a > end) return;
          n = a < static_cast<int>(toks_.size()) && IsCodeToken(toks_[a])
                  ? a
                  : NextCode(toks_, a - 1);
        }
        if (n >= 0 && n < end && toks_[n].IsPunct("::")) {
          const int m = NextCode(toks_, n);
          if (m < 0 || m >= end ||
              toks_[m].kind != TokenKind::kIdentifier) {
            return;
          }
          k = m;
          continue;
        }
        k = n;
        break;
      }
      saw_type_word = true;
    } else if (!saw_type_word) {
      return;
    }
    // Pointer / reference / const decoration.
    while (k >= 0 && k < end &&
           (toks_[k].IsPunct("*") || toks_[k].IsPunct("&") ||
            toks_[k].IsPunct("&&") || toks_[k].IsIdent("const"))) {
      advance();
    }
    if (k < 0 || k >= end) return;
    // Structured binding: `[a, b]`.
    if (toks_[k].IsPunct("[")) {
      for (int m = k + 1; m < end; ++m) {
        if (!IsCodeToken(toks_[m])) continue;
        if (toks_[m].IsPunct("]")) break;
        if (toks_[m].kind == TokenKind::kIdentifier) {
          s->decls.push_back(VarDecl{toks_[m].text, toks_[m].line});
          decl_names->insert(m);
        }
      }
      return;
    }
    if (toks_[k].kind != TokenKind::kIdentifier ||
        kStatementKeywords.count(toks_[k].text) > 0) {
      return;
    }
    const int name = k;
    const int after = NextCode(toks_, k);
    const bool decl_shape =
        after < 0 || after >= end || toks_[after].IsPunct("=") ||
        toks_[after].IsPunct(";") || toks_[after].IsPunct(",") ||
        toks_[after].IsPunct("{") || toks_[after].IsPunct("(") ||
        toks_[after].IsPunct(":");  // range-for header decl
    if (!decl_shape) return;
    s->decls.push_back(VarDecl{toks_[name].text, toks_[name].line});
    decl_names->insert(name);
  }

  /// Flat event scan over [begin, end): uses / moves / resets of identifier
  /// names. Nested lambda bodies are scanned as part of the same statement
  /// (their deferred execution is the documented conservatism of R8).
  void ExtractEvents(int begin, int end, Stmt* s, bool allow_decl) {
    end = std::min(end, static_cast<int>(toks_.size()));
    std::set<int> decl_name_indices;
    if (allow_decl) {
      int first = begin;
      while (first < end && !IsCodeToken(toks_[first])) ++first;
      if (first < end) TryParseDecl(first, end, s, &decl_name_indices);
    }
    std::set<std::string> moved_this_stmt;
    for (int k = begin; k < end; ++k) {
      const Token& t = toks_[k];
      if (!IsCodeToken(t) || t.kind != TokenKind::kIdentifier) continue;
      if (decl_name_indices.count(k) > 0) continue;
      // `std::move(x)` where x is a single identifier: a move of x, and the
      // inner identifier is consumed so it does not double as a use.
      if (t.text == "move") {
        const int colons = PrevCode(toks_, k);
        const int qual = colons >= 0 ? PrevCode(toks_, colons) : -1;
        const bool std_qualified = colons >= 0 &&
                                   toks_[colons].IsPunct("::") &&
                                   qual >= 0 && toks_[qual].IsIdent("std");
        const int open = NextCode(toks_, k);
        if (std_qualified && open >= 0 && open < end &&
            toks_[open].IsPunct("(")) {
          const int arg = NextCode(toks_, open);
          const int after_arg = arg >= 0 ? NextCode(toks_, arg) : -1;
          if (arg >= 0 && after_arg >= 0 && after_arg < end &&
              toks_[arg].kind == TokenKind::kIdentifier &&
              toks_[after_arg].IsPunct(")")) {
            if (moved_this_stmt.insert(toks_[arg].text).second) {
              s->moves.push_back({toks_[arg].text, toks_[arg].line});
            }
            k = after_arg;
            continue;
          }
        }
      }
      const int prev = PrevCode(toks_, k);
      if (prev >= 0 && (toks_[prev].IsPunct(".") ||
                        toks_[prev].IsPunct("->") ||
                        toks_[prev].IsPunct("::"))) {
        continue;  // member or qualified name, not a tracked local
      }
      const int next = NextCode(toks_, k);
      if (next >= 0 && next < end && toks_[next].IsPunct("::")) {
        continue;  // namespace / class qualifier
      }
      if (next >= 0 && next < end && toks_[next].IsPunct("=")) {
        s->resets.push_back({t.text, t.line});
        continue;
      }
      if (next >= 0 && next < end &&
          (toks_[next].IsPunct(".") || toks_[next].IsPunct("->"))) {
        const int method = NextCode(toks_, next);
        const int call = method >= 0 ? NextCode(toks_, method) : -1;
        if (method >= 0 && call >= 0 && call < static_cast<int>(toks_.size()) &&
            toks_[method].kind == TokenKind::kIdentifier &&
            kResetMethods.count(toks_[method].text) > 0 &&
            toks_[call].IsPunct("(")) {
          s->resets.push_back({t.text, t.line});
          continue;
        }
        s->uses.push_back({t.text, t.line});
        continue;
      }
      // `&name` as a call argument: treated as an out-parameter that
      // reinitializes the object.
      if (prev >= 0 && toks_[prev].IsPunct("&")) {
        const int before = PrevCode(toks_, prev);
        if (before < 0 || toks_[before].IsPunct("(") ||
            toks_[before].IsPunct(",") || toks_[before].IsPunct("=")) {
          s->resets.push_back({t.text, t.line});
          continue;
        }
      }
      s->uses.push_back({t.text, t.line});
    }
  }

  /// Finds `Schedule(...)` / `ScheduleAt(...)` calls in [begin, end) and
  /// peels each lambda argument into a synthetic callback Function named
  /// `<host>::cbN` (recursively for nested schedules).
  void PeelCallbacks(int begin, int end, const std::string& host,
                     std::vector<Function>* out) {
    for (int k = begin; k < end; ++k) {
      const Token& t = toks_[k];
      if (!IsCodeToken(t)) continue;
      if (!t.IsIdent("Schedule") && !t.IsIdent("ScheduleAt")) continue;
      const int open = NextCode(toks_, k);
      if (open < 0 || open >= end || !toks_[open].IsPunct("(")) continue;
      const int close = MatchParen(toks_, open);
      if (close < 0 || close > end) continue;
      // Find a lambda introducer at argument depth 1.
      int depth = 0;
      for (int j = open; j < close; ++j) {
        if (!IsCodeToken(toks_[j])) continue;
        if (toks_[j].IsPunct("(")) ++depth;
        if (toks_[j].IsPunct(")")) --depth;
        if (depth != 1 || !toks_[j].IsPunct("[")) continue;
        const int rb = MatchBracket(toks_, j);
        if (rb < 0 || rb > close) break;
        int after = NextCode(toks_, rb);
        int lp_open = -1, lp_close = -1, body_open = -1;
        if (after >= 0 && toks_[after].IsPunct("(")) {
          lp_open = after;
          lp_close = MatchParen(toks_, after);
          if (lp_close < 0 || lp_close > close) break;
          int m = NextCode(toks_, lp_close);
          while (m >= 0 && m < close && !toks_[m].IsPunct("{") &&
                 !toks_[m].IsPunct(",") && !toks_[m].IsPunct(")")) {
            m = NextCode(toks_, m);  // mutable / noexcept / -> Ret
          }
          if (m >= 0 && m < close && toks_[m].IsPunct("{")) body_open = m;
        } else if (after >= 0 && toks_[after].IsPunct("{")) {
          body_open = after;
        }
        if (body_open < 0) break;
        const int body_close = MatchBrace(toks_, body_open);
        if (body_close < 0 || body_close > close) break;
        Function cb;
        cb.name = host + "::cb" + std::to_string(++cb_counter_);
        cb.line = toks_[j].line;
        if (lp_open >= 0) cb.params = ParseParams(lp_open, lp_close);
        cb.body = ParseStmtList(body_open + 1, body_close);
        PeelCallbacks(body_open + 1, body_close, cb.name, out);
        out->push_back(std::move(cb));
        break;  // one lambda per Schedule call
      }
      k = close;  // nested Schedules were handled by the recursion above
    }
  }
};

}  // namespace

bool IsCodeToken(const Token& t) {
  return t.kind != TokenKind::kComment && t.kind != TokenKind::kPreprocessor;
}

int NextCode(const std::vector<Token>& toks, int i) {
  for (int k = i + 1; k < static_cast<int>(toks.size()); ++k) {
    if (IsCodeToken(toks[k])) return k;
  }
  return -1;
}

int PrevCode(const std::vector<Token>& toks, int i) {
  for (int k = i - 1; k >= 0; --k) {
    if (IsCodeToken(toks[k])) return k;
  }
  return -1;
}

int SkipAngles(const std::vector<Token>& toks, int open) {
  int depth = 0;
  for (int k = open; k < static_cast<int>(toks.size()); ++k) {
    const Token& t = toks[k];
    if (!IsCodeToken(t)) continue;
    if (t.IsPunct("<")) ++depth;
    if (t.IsPunct("<<")) depth += 2;
    if (t.IsPunct(">")) --depth;
    if (t.IsPunct(">>")) depth -= 2;
    if (t.IsPunct(";")) return -1;  // statement ended: it was a comparison
    if (depth <= 0) return k + 1;
  }
  return -1;
}

int MatchParen(const std::vector<Token>& toks, int open) {
  int depth = 0;
  for (int k = open; k < static_cast<int>(toks.size()); ++k) {
    const Token& t = toks[k];
    if (!IsCodeToken(t)) continue;
    if (t.IsPunct("(")) ++depth;
    if (t.IsPunct(")")) {
      --depth;
      if (depth == 0) return k;
    }
  }
  return -1;
}

FileIR ParseFile(std::string path, std::vector<Token> tokens) {
  FileIR ir;
  ir.path = std::move(path);
  ir.tokens = std::move(tokens);
  ExtractIncludes(ir.tokens, &ir);
  ExtractSuppressions(ir.tokens, &ir);
  ExtractImmutableDecls(ir.tokens, &ir);
  ExtractDiscardedCalls(ir.tokens, &ir);
  FunctionParser fp(ir.tokens);
  ir.functions = fp.ParseAll();
  return ir;
}

FileIR ParseSource(std::string path, std::string_view source) {
  return ParseFile(std::move(path), Lex(source));
}

void CollectReturnTypes(const std::vector<Token>& toks, SymbolTable* table) {
  for (int i = 0; i < static_cast<int>(toks.size()); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    if (t.text == "Status" || t.text == "StatusOr") {
      int k = NextCode(toks, i);
      if (t.text == "StatusOr") {
        if (k < 0 || !toks[k].IsPunct("<")) continue;
        k = SkipAngles(toks, k);
        if (k < 0 || k >= static_cast<int>(toks.size())) continue;
        if (!IsCodeToken(toks[k])) k = NextCode(toks, k - 1);
      }
      if (k >= 0 && toks[k].kind == TokenKind::kIdentifier) {
        const int paren = NextCode(toks, k);
        if (paren >= 0 && toks[paren].IsPunct("(")) {
          table->status_returning.insert(toks[k].text);
        }
      }
      continue;
    }
    // Any other `<type-ish ident> <ident> (` pair marks the name as NOT
    // (only) Status-returning, so overloaded names are never flagged.
    if (kStatementKeywords.count(t.text) > 0) continue;
    const int name = NextCode(toks, i);
    if (name < 0 || toks[name].kind != TokenKind::kIdentifier) continue;
    const int paren = NextCode(toks, name);
    if (paren >= 0 && toks[paren].IsPunct("(")) {
      table->other_returning.insert(toks[name].text);
    }
  }
}

void CollectProject(const FileIR& ir, ProjectContext* ctx) {
  CollectReturnTypes(ir.tokens, &ctx->symbols);
  for (const ImmutableSharedDecl& d : ir.immutable_decls) {
    ctx->immutable_member_home.emplace(d.name, ir.path);
  }
}

}  // namespace crayfish::lint
