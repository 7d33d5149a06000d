#include "src/trigger/trigger_parser.h"

#include "src/common/macros.h"
#include "src/cypher/lexer.h"
#include "src/cypher/parser.h"

namespace pgt {

namespace {

using cypher::Parser;
using cypher::Token;
using cypher::TokenType;

Result<ActionTime> ParseActionTime(Parser& p) {
  if (p.AcceptKeyword("BEFORE")) return ActionTime::kBefore;
  if (p.AcceptKeyword("AFTER")) return ActionTime::kAfter;
  if (p.AcceptKeyword("ONCOMMIT")) return ActionTime::kOnCommit;
  if (p.AcceptKeyword("DETACHED")) return ActionTime::kDetached;
  return p.MakeError(
      "expected action time (BEFORE | AFTER | ONCOMMIT | DETACHED)");
}

Result<TriggerEvent> ParseEvent(Parser& p) {
  if (p.AcceptKeyword("CREATE")) return TriggerEvent::kCreate;
  if (p.AcceptKeyword("DELETE")) return TriggerEvent::kDelete;
  if (p.AcceptKeyword("SET")) return TriggerEvent::kSet;
  if (p.AcceptKeyword("REMOVE")) return TriggerEvent::kRemove;
  return p.MakeError("expected event (CREATE | DELETE | SET | REMOVE)");
}

Result<TransitionVar> ParseTransitionVar(Parser& p) {
  if (p.AcceptKeyword("OLDNODES")) return TransitionVar::kOldNodes;
  if (p.AcceptKeyword("NEWNODES")) return TransitionVar::kNewNodes;
  if (p.AcceptKeyword("OLDRELS")) return TransitionVar::kOldRels;
  if (p.AcceptKeyword("NEWRELS")) return TransitionVar::kNewRels;
  if (p.AcceptKeyword("OLD")) return TransitionVar::kOld;
  if (p.AcceptKeyword("NEW")) return TransitionVar::kNew;
  return p.MakeError(
      "expected transition variable (OLD | NEW | OLDNODES | NEWNODES | "
      "OLDRELS | NEWRELS)");
}

}  // namespace

Result<TriggerDdl> TriggerDdlParser::Parse(std::string_view text) {
  PGT_ASSIGN_OR_RETURN(std::vector<Token> toks, cypher::Lexer::Tokenize(text));
  Parser p(std::move(toks));

  TriggerDdl ddl;
  if (p.AcceptKeyword("DROP")) {
    PGT_RETURN_IF_ERROR(p.ExpectKeyword("TRIGGER"));
    PGT_ASSIGN_OR_RETURN(ddl.name, p.ParseNameOrString("trigger name"));
    ddl.kind = TriggerDdl::Kind::kDrop;
    p.Accept(TokenType::kSemicolon);
    if (!p.AtEnd()) return p.MakeError("unexpected input after DROP TRIGGER");
    return ddl;
  }
  if (p.AcceptKeyword("ALTER")) {
    PGT_RETURN_IF_ERROR(p.ExpectKeyword("TRIGGER"));
    PGT_ASSIGN_OR_RETURN(ddl.name, p.ParseNameOrString("trigger name"));
    if (p.AcceptKeyword("ENABLE")) {
      ddl.kind = TriggerDdl::Kind::kEnable;
    } else if (p.AcceptKeyword("DISABLE")) {
      ddl.kind = TriggerDdl::Kind::kDisable;
    } else {
      return p.MakeError("expected ENABLE or DISABLE");
    }
    p.Accept(TokenType::kSemicolon);
    if (!p.AtEnd()) return p.MakeError("unexpected input after ALTER TRIGGER");
    return ddl;
  }

  // CREATE TRIGGER ...
  PGT_RETURN_IF_ERROR(p.ExpectKeyword("CREATE"));
  PGT_RETURN_IF_ERROR(p.ExpectKeyword("TRIGGER"));
  TriggerDef& def = ddl.def;
  ddl.kind = TriggerDdl::Kind::kCreate;
  PGT_ASSIGN_OR_RETURN(def.name, p.ParseNameOrString("trigger name"));

  PGT_ASSIGN_OR_RETURN(def.time, ParseActionTime(p));
  PGT_ASSIGN_OR_RETURN(def.event, ParseEvent(p));

  PGT_RETURN_IF_ERROR(p.ExpectKeyword("ON"));
  PGT_ASSIGN_OR_RETURN(def.label, p.ParseNameOrString("label"));
  if (p.Accept(TokenType::kDot)) {
    PGT_ASSIGN_OR_RETURN(def.property, p.ParseNameOrString("property"));
  }

  while (p.AcceptKeyword("REFERENCING")) {
    do {
      ReferencingAlias alias;
      PGT_ASSIGN_OR_RETURN(alias.var, ParseTransitionVar(p));
      PGT_RETURN_IF_ERROR(p.ExpectKeyword("AS"));
      PGT_ASSIGN_OR_RETURN(alias.alias, p.ParseNameOrString("alias"));
      def.referencing.push_back(std::move(alias));
    } while (p.Accept(TokenType::kComma));
  }

  PGT_RETURN_IF_ERROR(p.ExpectKeyword("FOR"));
  if (p.AcceptKeyword("EACH")) {
    def.granularity = Granularity::kEach;
  } else if (p.AcceptKeyword("ALL")) {
    def.granularity = Granularity::kAll;
  } else {
    return p.MakeError("expected granularity (EACH | ALL)");
  }
  if (p.AcceptKeyword("NODE") || p.AcceptKeyword("NODES")) {
    def.item = ItemKind::kNode;
  } else if (p.AcceptKeyword("RELATIONSHIP") ||
             p.AcceptKeyword("RELATIONSHIPS")) {
    def.item = ItemKind::kRelationship;
  } else {
    return p.MakeError("expected item kind (NODE | RELATIONSHIP)");
  }

  if (p.AcceptKeyword("WHEN")) {
    // A pipeline condition starts with a reading clause keyword; anything
    // else is a boolean expression.
    if (p.PeekKeyword("MATCH") || p.PeekKeyword("UNWIND") ||
        p.PeekKeyword("WITH") || p.PeekKeyword("OPTIONAL")) {
      PGT_ASSIGN_OR_RETURN(def.when_query, p.ParseClauses({"BEGIN"}));
    } else {
      PGT_ASSIGN_OR_RETURN(def.when_expr, p.ParseExpression());
    }
  }

  PGT_RETURN_IF_ERROR(p.ExpectKeyword("BEGIN"));
  PGT_ASSIGN_OR_RETURN(def.statement, p.ParseClauses({"END"}));
  PGT_RETURN_IF_ERROR(p.ExpectKeyword("END"));
  if (def.statement.clauses.empty()) {
    return p.MakeError("trigger statement (BEGIN ... END) is empty");
  }
  p.Accept(TokenType::kSemicolon);
  if (!p.AtEnd()) {
    return p.MakeError("unexpected input after END");
  }
  return ddl;
}

Result<TriggerDef> TriggerDdlParser::ParseCreate(std::string_view text) {
  PGT_ASSIGN_OR_RETURN(TriggerDdl ddl, Parse(text));
  if (ddl.kind != TriggerDdl::Kind::kCreate) {
    return Status::InvalidArgument("not a CREATE TRIGGER statement");
  }
  return std::move(ddl.def);
}

}  // namespace pgt
