// Unit tests for the single-pass statement classifier that routes
// Database::Execute / ExecuteTx, including leading whitespace and comments.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cypher/statement_classifier.h"

namespace pgt {
namespace {

TEST(StatementClassifier, TriggerDdl) {
  const std::vector<std::string> ddls = {
      "CREATE TRIGGER T AFTER CREATE ON 'L' FOR EACH NODE BEGIN CREATE (:X) "
      "END",
      "DROP TRIGGER T",
      "ALTER TRIGGER T ENABLE",
      "ALTER TRIGGER T DISABLE",
      "create trigger lower_case AFTER CREATE ON 'L' FOR EACH NODE BEGIN "
      "CREATE (:X) END",
      "  \n\t CREATE TRIGGER Padded AFTER CREATE ON 'L' FOR EACH NODE BEGIN "
      "CREATE (:X) END",
      "// a leading comment\nCREATE TRIGGER C AFTER CREATE ON 'L' FOR EACH "
      "NODE BEGIN CREATE (:X) END",
      "/* block\n comment */ DROP TRIGGER T",
  };
  for (const std::string& s : ddls) {
    EXPECT_EQ(ClassifyStatement(s), StatementKind::kTriggerDdl) << s;
  }
}

TEST(StatementClassifier, IndexDdl) {
  const std::vector<std::string> ddls = {
      "CREATE INDEX ON :Person(ssn)",
      "CREATE UNIQUE INDEX ON :Person(ssn)",
      "CREATE RANGE INDEX ON :Person(age)",
      "CREATE UNIQUE RANGE INDEX ON :Person(ssn)",
      "create hash index on :Person(ssn)",
      "DROP INDEX ON :Person(ssn)",
      "  /* comment */ CREATE INDEX ON :L(p)",
      "// note\nDROP INDEX ON :L(p)",
  };
  for (const std::string& s : ddls) {
    EXPECT_EQ(ClassifyStatement(s), StatementKind::kIndexDdl) << s;
  }
}

TEST(StatementClassifier, Show) {
  const std::vector<std::string> shows = {
      "SHOW INDEXES",
      "show index",
      "SHOW TRIGGER ANALYSIS",
      "SHOW TRIGGER STATUS;",
      "SHOW ASYNC STATUS",
      "show health",
      "SHOW NOTHING",  // unknown phrases are refused by the Database
      "SHOW",
      "/* c */ SHOW HEALTH",
  };
  for (const std::string& s : shows) {
    EXPECT_EQ(ClassifyStatement(s), StatementKind::kShow) << s;
  }
}

TEST(StatementClassifier, PlainCypher) {
  const std::vector<std::string> stmts = {
      "CREATE (:Mutation {name: 'Spike:D614G'})",
      "MATCH (n) RETURN n.name",
      "MATCH (n:Trigger) RETURN COUNT(*) AS c",  // label named Trigger
      "CREATE (:Index {v: 1})",                  // label named Index
      "CREATE INDEXED",  // 'INDEXED' is not the INDEX keyword
      "CREATE UNIQUE RANGE HASH UNIQUE INDEX ON :L(p)",  // past modifier window
      "RETURN 1 AS one",
      "// only a comment followed by cypher\nRETURN 1 AS one",
      "DROP",         // single token
      "",             // empty
      "  \t\n ",      // whitespace only
      "??? not lexable $$$",
  };
  for (const std::string& s : stmts) {
    EXPECT_EQ(ClassifyStatement(s), StatementKind::kCypher) << s;
  }
}

}  // namespace
}  // namespace pgt
