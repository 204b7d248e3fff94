#include "crayfish_lint/parser.h"

#include <algorithm>
#include <cctype>
#include <set>
#include <sstream>
#include <utility>

namespace crayfish::lint {
namespace {

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

FileIR ParseSource(std::string path, std::string_view source) {
  FileIR ir;
  ir.path = std::move(path);
  ir.tokens = Lex(source);
  ExtractIncludes(ir.tokens, &ir);
  ExtractSuppressions(ir.tokens, &ir);
  ExtractImmutableDecls(ir.tokens, &ir);
  return ir;
}

void CollectProject(const FileIR& ir, ProjectContext* ctx) {
  for (const ImmutableSharedDecl& d : ir.immutable_decls) {
    ctx->immutable_member_home.emplace(d.name, ir.path);
  }
}

}  // namespace crayfish::lint
