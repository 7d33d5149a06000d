#ifndef PGTRIGGERS_CYPHER_STATEMENT_CLASSIFIER_H_
#define PGTRIGGERS_CYPHER_STATEMENT_CLASSIFIER_H_

#include <string_view>

namespace pgt {

/// What a statement's leading tokens say it is.
enum class StatementKind {
  kCypher,      ///< plain query / update statement
  kTriggerDdl,  ///< CREATE / DROP / ALTER TRIGGER
  kIndexDdl,    ///< CREATE [UNIQUE] [RANGE|HASH] INDEX, DROP INDEX
  kShow,        ///< SHOW ... (a read-only introspection table)
};

/// Classifies one statement by tokenizing it once. This is the single
/// definition of the statement-routing token grammar used by
/// Database::Execute and ExecuteTx. Purely lexical (it lives in the cypher
/// layer beside the lexer): whitespace and comments are skipped by the
/// lexer, keywords are case-insensitive, and untokenizable text classifies
/// as kCypher so the Cypher parser surfaces the error. Every statement
/// whose first word is SHOW is kShow; Database matches the rest of the
/// phrase against its introspection tables.
StatementKind ClassifyStatement(std::string_view text);

}  // namespace pgt

#endif  // PGTRIGGERS_CYPHER_STATEMENT_CLASSIFIER_H_
