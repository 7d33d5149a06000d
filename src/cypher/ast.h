#ifndef PGTRIGGERS_CYPHER_AST_H_
#define PGTRIGGERS_CYPHER_AST_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/value.h"

namespace pgt::cypher {

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// Binary operators (includes string predicates and IN).
enum class BinOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kPow,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kXor,
  kIn,
  kStartsWith,
  kEndsWith,
  kContains,
};

/// True for the six comparisons: = <> < <= > >=.
bool IsComparison(BinOp op);

/// The operator `m` for which `b m a` means `a op b`: < and > trade
/// places, as do <= and >=; every other operator (= and <> included) is
/// returned unchanged. Used to rewrite `lit op x.k` as `x.k m lit`:
/// comparisons go through TotalCompare (antisymmetric) or yield NULL in
/// both orientations, so the mirror preserves semantics.
BinOp MirrorOp(BinOp op);

/// The operator's Cypher spelling ("=", "<>", "STARTS WITH", ...).
const char* BinOpText(BinOp op);

/// Unary operators.
enum class UnOp { kNot, kNeg, kIsNull, kIsNotNull };

struct Pattern;  // forward (pattern predicates / EXISTS)

/// Expression node. A single struct with a kind tag keeps the parser and
/// compiler compact; only the fields relevant to the kind are populated.
struct Expr {
  enum class Kind {
    kLiteral,      ///< literal             (value)
    kParam,        ///< $name               (name)
    kVar,          ///< identifier          (name)
    kProp,         ///< a.name              (a, name)
    kBinary,       ///< a <op> b            (bin_op, a, b)
    kUnary,        ///< <op> a              (un_op, a)
    kFunc,         ///< name(args...)       (name, args, distinct)
    kCountStar,    ///< COUNT(*)
    kList,         ///< [args...]
    kMap,          ///< {key: expr, ...}    (map_entries)
    kIndex,        ///< a[b]
    kCase,         ///< CASE [a] WHEN..THEN.. [ELSE c] END (a?, whens, c?)
    kExists,       ///< EXISTS {...} / EXISTS(pattern) / pattern predicate
    kLabelTest,    ///< a:Label1:Label2   (a, labels)
    kListComp,     ///< [name IN a WHERE b | c]
  };

  Kind kind = Kind::kLiteral;
  int line = 0, col = 0;

  Value value;                 // kLiteral
  std::string name;            // kParam/kVar/kProp key/kFunc name
  ExprPtr a, b, c;             // children (kProp base, kBinary, kCase else…)
  std::vector<ExprPtr> args;   // kFunc args, kList elements
  std::vector<std::pair<std::string, ExprPtr>> map_entries;  // kMap
  std::vector<std::pair<ExprPtr, ExprPtr>> whens;            // kCase
  BinOp bin_op = BinOp::kEq;
  UnOp un_op = UnOp::kNot;
  bool distinct = false;  // aggregate DISTINCT (count(DISTINCT x))
  std::vector<std::string> labels;  // kLabelTest

  // kExists: pattern with optional WHERE.
  std::unique_ptr<Pattern> pattern;
  ExprPtr pattern_where;
};

/// Direction of a relationship pattern element.
enum class PatternDirection { kLeftToRight, kRightToLeft, kUndirected };

/// `(var:Label1:Label2 {key: expr, ...})`. Label names that match a
/// transition-set name (NEWNODES / OLDNODES / ... or a REFERENCING alias)
/// act as pseudo-labels filtering to the transition set
/// (docs/semantics.md D6).
struct NodePattern {
  std::string var;  // empty = anonymous
  std::vector<std::string> labels;
  std::vector<std::pair<std::string, ExprPtr>> props;
  int line = 0, col = 0;
};

/// `-[var:TYPE1|TYPE2 *min..max {key: expr}]->` (direction stored here).
struct RelPattern {
  std::string var;  // empty = anonymous
  std::vector<std::string> types;
  std::vector<std::pair<std::string, ExprPtr>> props;
  PatternDirection direction = PatternDirection::kUndirected;
  bool var_length = false;
  int64_t min_hops = 1;
  int64_t max_hops = 1;  // inclusive; var_length default 1..unbounded uses
                         // kMaxHopsUnbounded
  int line = 0, col = 0;
};

inline constexpr int64_t kMaxHopsUnbounded = -1;

/// One linear path: node (rel node)*.
struct PatternPart {
  NodePattern first;
  std::vector<std::pair<RelPattern, NodePattern>> chain;
};

/// Comma-separated pattern parts.
struct Pattern {
  std::vector<PatternPart> parts;
};

// --- Clauses -----------------------------------------------------------------

struct Clause;
using ClausePtr = std::unique_ptr<Clause>;

/// Projection item `expr [AS alias]` in WITH / RETURN.
struct ProjItem {
  ExprPtr expr;
  std::string alias;  // empty = derive from expr text
};

/// ORDER BY item.
struct SortItem {
  ExprPtr expr;
  bool ascending = true;
};

/// SET clause item.
struct SetItem {
  enum class Kind {
    kProperty,  ///< a.k = v
    kLabels,    ///< n:Label1:Label2
    kMergeMap,  ///< n += {k: v, ...}
  } kind = Kind::kProperty;
  ExprPtr target;                // base expression (kProperty: a in a.k = v)
  std::string prop;              // property key (kProperty)
  ExprPtr value;                 // assigned value (kProperty, kMergeMap)
  std::string var;               // variable (kLabels, kMergeMap)
  std::vector<std::string> labels;  // labels to add (kLabels)
};

/// REMOVE clause item.
struct RemoveItem {
  enum class Kind { kProperty, kLabels } kind = Kind::kProperty;
  ExprPtr target;
  std::string prop;
  std::string var;
  std::vector<std::string> labels;
};

/// Query clause (tagged union).
struct Clause {
  enum class Kind {
    kMatch,
    kUnwind,
    kWith,
    kReturn,
    kCreate,
    kMerge,
    kDelete,
    kSet,
    kRemove,
    kForeach,
    kCall,
  };

  Kind kind;
  int line = 0, col = 0;

  // kMatch
  bool optional_match = false;
  Pattern pattern;       // also kCreate, kMerge (single part)
  ExprPtr where;         // kMatch, kWith

  // kUnwind
  ExprPtr unwind_expr;
  std::string unwind_var;

  // kWith / kReturn
  bool distinct = false;
  bool return_star = false;
  std::vector<ProjItem> items;
  std::vector<SortItem> order_by;
  ExprPtr skip;
  ExprPtr limit;

  // kMerge
  std::vector<SetItem> on_create;
  std::vector<SetItem> on_match;

  // kDelete
  bool detach = false;
  std::vector<ExprPtr> delete_exprs;

  // kSet / kRemove
  std::vector<SetItem> set_items;
  std::vector<RemoveItem> remove_items;

  // kForeach
  std::string foreach_var;
  ExprPtr foreach_list;
  std::vector<ClausePtr> foreach_body;

  // kCall: CALL name.space.proc(args) [YIELD a, b]
  std::string call_proc;
  std::vector<ExprPtr> call_args;
  std::vector<std::string> call_yield;
};

/// A parsed query: a clause pipeline (single statement).
struct Query {
  std::vector<ClausePtr> clauses;
};

/// True iff the query cannot mutate the graph: every clause is MATCH /
/// UNWIND / WITH / RETURN. CALL is conservatively treated as writing
/// (procedures may mutate), as are CREATE / MERGE / SET / REMOVE / DELETE /
/// FOREACH. Read-only statements run without a transaction: Database
/// routes them through the txless read path (live or snapshot StoreView),
/// skipping transaction setup, trigger rounds, and commit processing.
bool IsReadOnlyQuery(const Query& q);

// --- Unparsing ----------------------------------------------------------------

/// Variable rename map used when unparsing (the APOC/Memgraph translators
/// rewrite transition-variable names, e.g. NEW -> cNodes).
using RenameMap = std::map<std::string, std::string>;

/// Renders an expression back to Cypher text (stable, canonical spacing).
std::string ExprToString(const Expr& e, const RenameMap* renames = nullptr);

/// Renders a pattern back to Cypher text.
std::string PatternToString(const Pattern& p,
                            const RenameMap* renames = nullptr);
std::string PatternPartToString(const PatternPart& p,
                                const RenameMap* renames = nullptr);

/// Renders a clause back to Cypher text.
std::string ClauseToString(const Clause& c, const RenameMap* renames = nullptr);

/// Renders a whole query, clauses separated by newlines.
std::string QueryToString(const Query& q, const RenameMap* renames = nullptr);

/// Deep-copies an expression / pattern / clause / query.
ExprPtr CloneExpr(const Expr& e);
Pattern ClonePattern(const Pattern& p);
ClausePtr CloneClause(const Clause& c);
Query CloneQuery(const Query& q);

}  // namespace pgt::cypher

#endif  // PGTRIGGERS_CYPHER_AST_H_
