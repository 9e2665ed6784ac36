// The code/comment/string-separating lexer shared by the per-line rules
// (src/lint/lint.cc) and the cross-file rules (src/lint/analyze.cc).
//
// Neither rule set is a compiler: they lex a C++ source file just far enough
// to know, for every byte, whether it is code, comment text, or the inside of
// a string/char literal. The separation is what keeps a rule from firing on
// its own name in a doc comment or on forbidden tokens inside test-fixture
// strings — and what lets the cross-file rules read wire verbs and metric
// names out of real literals with exact line numbers.
//
// Internal to src/lint (not part of the public header set): include only
// from lint/analyze sources and their tests.
#ifndef PANDIA_SRC_LINT_LEXER_H_
#define PANDIA_SRC_LINT_LEXER_H_

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace pandia {
namespace lint {

// A string or char literal found during separation. `offset` is the byte
// offset of the opening quote in the original content; `line` is 1-based.
// `text` is the raw (unescaped-as-written) body, excluding the quotes; for
// raw strings, the body between the delimiter parentheses.
struct Literal {
  size_t offset = 0;
  int line = 0;
  std::string text;
};

// The separation pass. Produces two buffers the same length as the input:
// `code` holds the program text with comments and string/char literals
// blanked to spaces, `comments` holds the comment text with everything else
// blanked. Newlines survive in both so byte offsets map to the same line
// numbers everywhere. `literals` lists every string literal in file order.
struct SeparatedSource {
  std::string code;
  std::string comments;
  std::vector<Literal> literals;
};

SeparatedSource Separate(std::string_view content);

bool IsIdentChar(char c);
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

// Splits on '\n'; the terminating newline of the last line is optional.
std::vector<std::string_view> SplitLines(std::string_view text);

// Position of the next whole-identifier occurrence of `token` in `text` at
// or after `from`, or npos. Both neighbors must be non-identifier characters
// so "rand" does not match inside "srand" or "operand".
size_t FindToken(std::string_view text, std::string_view token, size_t from);
bool HasToken(std::string_view text, std::string_view token);

// True when a whole-identifier occurrence of `name` is followed (after
// optional spaces) by '(' — a call like abort(), exit(0), srand(seed).
bool HasCall(std::string_view text, std::string_view name);

// Per-line suppression directives gathered from comment text:
//   // pandia-lint: allow(rule)            one rule
//   // pandia-lint: allow(rule-a, rule-b)  several
std::map<int, std::set<std::string>> CollectAllows(
    const std::vector<std::string_view>& comment_lines);

// 1-based line number of byte `offset` in `content`.
int LineOfOffset(std::string_view content, size_t offset);

}  // namespace lint
}  // namespace pandia

#endif  // PANDIA_SRC_LINT_LEXER_H_
