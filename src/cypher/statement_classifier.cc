#include "src/cypher/statement_classifier.h"

#include <string_view>
#include <vector>

#include "src/common/str_util.h"
#include "src/cypher/lexer.h"

namespace pgt {

namespace {

using cypher::Token;
using cypher::TokenType;

bool IsWord(const Token& t, std::string_view w) {
  return t.type == TokenType::kIdent && EqualsIgnoreCase(t.text, w);
}

}  // namespace

StatementKind ClassifyStatement(std::string_view text) {
  auto toks = cypher::Lexer::Tokenize(text);
  if (!toks.ok() || toks.value().size() < 2) return StatementKind::kCypher;
  const std::vector<Token>& t = toks.value();

  // Introspection: SHOW <phrase> (README "Introspection tables").
  if (IsWord(t[0], "SHOW")) return StatementKind::kShow;

  // Trigger DDL: CREATE / DROP / ALTER TRIGGER.
  if ((IsWord(t[0], "CREATE") || IsWord(t[0], "DROP") ||
       IsWord(t[0], "ALTER")) &&
      IsWord(t[1], "TRIGGER")) {
    return StatementKind::kTriggerDdl;
  }

  // Index DDL: DROP INDEX, CREATE [modifiers] INDEX.
  if (IsWord(t[0], "DROP") && IsWord(t[1], "INDEX")) {
    return StatementKind::kIndexDdl;
  }
  if (IsWord(t[0], "CREATE")) {
    for (size_t i = 1; i < t.size() && i <= 3; ++i) {
      if (IsWord(t[i], "INDEX")) return StatementKind::kIndexDdl;
      if (!IsWord(t[i], "UNIQUE") && !IsWord(t[i], "RANGE") &&
          !IsWord(t[i], "HASH")) {
        break;
      }
    }
  }
  return StatementKind::kCypher;
}

}  // namespace pgt
