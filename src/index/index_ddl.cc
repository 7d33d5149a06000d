#include "src/index/index_ddl.h"

#include "src/common/macros.h"
#include "src/cypher/lexer.h"
#include "src/cypher/parser.h"

namespace pgt::index {

namespace {

using cypher::Parser;
using cypher::Token;
using cypher::TokenType;

}  // namespace

Result<IndexDdl> IndexDdlParser::Parse(std::string_view text) {
  PGT_ASSIGN_OR_RETURN(std::vector<Token> toks, cypher::Lexer::Tokenize(text));
  Parser p(std::move(toks));
  IndexDdl ddl;

  if (p.AcceptKeyword("DROP")) {
    ddl.kind = IndexDdl::Kind::kDrop;
  } else {
    PGT_RETURN_IF_ERROR(p.ExpectKeyword("CREATE"));
    ddl.kind = IndexDdl::Kind::kCreate;
    if (p.AcceptKeyword("UNIQUE")) ddl.unique = true;
    if (p.AcceptKeyword("RANGE")) {
      ddl.layout = IndexKind::kOrdered;
    } else if (p.AcceptKeyword("HASH")) {
      ddl.layout = IndexKind::kHash;
    }
  }
  PGT_RETURN_IF_ERROR(p.ExpectKeyword("INDEX"));
  PGT_RETURN_IF_ERROR(p.ExpectKeyword("ON"));
  p.Accept(TokenType::kColon);  // ON :Label(...) or ON Label(...)
  PGT_ASSIGN_OR_RETURN(ddl.label, p.ParseNameOrString("label"));
  PGT_RETURN_IF_ERROR(p.Expect(TokenType::kLParen, "'('").status());
  PGT_ASSIGN_OR_RETURN(ddl.prop, p.ParseNameOrString("property"));
  PGT_RETURN_IF_ERROR(p.Expect(TokenType::kRParen, "')'").status());
  p.Accept(TokenType::kSemicolon);
  if (!p.AtEnd()) return p.MakeError("unexpected input after index DDL");
  return ddl;
}

}  // namespace pgt::index
