// Expression evaluation tests: arithmetic, three-valued logic, string
// predicates, CASE, functions, property access with ghost/overlay reads.
// Expressions compile (as a trigger WHEN expression over the fixture's
// bound variables) and evaluate through the plan executor.

#include <gtest/gtest.h>

#include "src/common/clock.h"
#include "src/common/macros.h"
#include "src/cypher/eval.h"
#include "src/cypher/parser.h"
#include "src/cypher/plan/compiler.h"
#include "src/cypher/plan/plan_executor.h"

namespace pgt::cypher {
namespace {

class EvalTest : public ::testing::Test {
 protected:
  EvalTest() : manager_(&store_) {
    tx_ = std::move(manager_.Begin()).value();
    ctx_.tx = tx_.get();
    ctx_.params = &params_;
    ctx_.clock = &clock_;
  }

  /// Evaluates `text` with `row_`'s bindings in scope (as a predicate when
  /// `predicate` is set).
  Result<Value> EvalText(const std::string& text, bool predicate = false) {
    PGT_ASSIGN_OR_RETURN(ExprPtr e, Parser::ParseExpressionText(text));
    plan::CompileEnv env;
    for (const auto& [name, v] : row_.cols) env.seed_vars.push_back(name);
    env.old_view_vars = {"OLD"};
    PGT_ASSIGN_OR_RETURN(plan::TriggerProgram prog,
                         plan::CompileTrigger(e.get(), nullptr, Query{}, env,
                                              *ctx_.store(), /*epoch=*/0));
    plan::PlanExecutor exec(ctx_, prog.slot_names);
    plan::Frame f = exec.NewFrame();
    for (size_t i = 0; i < row_.cols.size(); ++i) {
      f.Set(static_cast<int>(i), row_.cols[i].second);
    }
    if (!predicate) return exec.Eval(*prog.when_expr, f);
    PGT_ASSIGN_OR_RETURN(bool pass, exec.EvalPredicate(*prog.when_expr, f));
    return Value::Bool(pass);
  }

  Value Eval(const std::string& text) {
    auto v = EvalText(text);
    EXPECT_TRUE(v.ok()) << text << ": " << v.status();
    return v.ok() ? std::move(v).value() : Value::Null();
  }

  Status EvalError(const std::string& text) { return EvalText(text).status(); }

  GraphStore store_;
  TransactionManager manager_;
  std::unique_ptr<Transaction> tx_;
  LogicalClock clock_{1000};
  Params params_;
  Row row_;
  EvalContext ctx_;
};

TEST_F(EvalTest, Arithmetic) {
  EXPECT_EQ(Eval("1 + 2 * 3").int_value(), 7);
  EXPECT_EQ(Eval("7 / 2").int_value(), 3);  // integer division
  EXPECT_DOUBLE_EQ(Eval("7.0 / 2").double_value(), 3.5);
  EXPECT_EQ(Eval("7 % 3").int_value(), 1);
  EXPECT_DOUBLE_EQ(Eval("2 ^ 10").double_value(), 1024.0);
  EXPECT_EQ(Eval("-(3)").int_value(), -3);
  EXPECT_EQ(Eval("1 - 2 - 3").int_value(), -4);  // left assoc
}

TEST_F(EvalTest, DivisionByZeroIsError) {
  EXPECT_EQ(EvalError("1 / 0").code(), StatusCode::kTypeError);
  EXPECT_EQ(EvalError("1 % 0").code(), StatusCode::kTypeError);
}

TEST_F(EvalTest, NullPropagationInArithmetic) {
  EXPECT_TRUE(Eval("1 + null").is_null());
  EXPECT_TRUE(Eval("null * 2").is_null());
  EXPECT_TRUE(Eval("-(null)").is_null());
}

TEST_F(EvalTest, StringConcatenation) {
  EXPECT_EQ(Eval("'a' + 'b'").string_value(), "ab");
  EXPECT_EQ(Eval("'a' + 1").string_value(), "a1");
  EXPECT_EQ(Eval("1 + 'a'").string_value(), "1a");
}

TEST_F(EvalTest, ListConcatenation) {
  EXPECT_EQ(Eval("[1] + [2, 3]").list_value().size(), 3u);
  EXPECT_EQ(Eval("[1] + 2").list_value().size(), 2u);
}

TEST_F(EvalTest, ComparisonsWithTernaryLogic) {
  EXPECT_TRUE(Eval("1 < 2").bool_value());
  EXPECT_TRUE(Eval("2 <= 2").bool_value());
  EXPECT_FALSE(Eval("'a' > 'b'").bool_value());
  EXPECT_TRUE(Eval("1 = 1.0").bool_value());
  EXPECT_TRUE(Eval("1 <> 2").bool_value());
  EXPECT_TRUE(Eval("null = null").is_null());
  EXPECT_TRUE(Eval("1 < null").is_null());
  EXPECT_TRUE(Eval("1 < 'a'").is_null());  // incomparable types
}

TEST_F(EvalTest, BooleanThreeValuedLogic) {
  EXPECT_FALSE(Eval("false AND null").bool_value());  // false dominates
  EXPECT_TRUE(Eval("true OR null").bool_value());     // true dominates
  EXPECT_TRUE(Eval("true AND null").is_null());
  EXPECT_TRUE(Eval("false OR null").is_null());
  EXPECT_TRUE(Eval("NOT null").is_null());
  EXPECT_TRUE(Eval("true XOR false").bool_value());
  EXPECT_TRUE(Eval("true XOR null").is_null());
}

TEST_F(EvalTest, InOperator) {
  EXPECT_TRUE(Eval("2 IN [1, 2, 3]").bool_value());
  EXPECT_FALSE(Eval("5 IN [1, 2, 3]").bool_value());
  EXPECT_TRUE(Eval("5 IN [1, null]").is_null());  // unknown membership
  EXPECT_TRUE(Eval("null IN [1]").is_null());
}

TEST_F(EvalTest, StringPredicates) {
  EXPECT_TRUE(Eval("'hello' STARTS WITH 'he'").bool_value());
  EXPECT_TRUE(Eval("'hello' ENDS WITH 'lo'").bool_value());
  EXPECT_TRUE(Eval("'hello' CONTAINS 'ell'").bool_value());
  EXPECT_FALSE(Eval("'hello' CONTAINS 'x'").bool_value());
  EXPECT_TRUE(Eval("null STARTS WITH 'a'").is_null());
}

TEST_F(EvalTest, IsNullOperators) {
  EXPECT_TRUE(Eval("null IS NULL").bool_value());
  EXPECT_FALSE(Eval("1 IS NULL").bool_value());
  EXPECT_TRUE(Eval("1 IS NOT NULL").bool_value());
}

TEST_F(EvalTest, CaseExpressions) {
  EXPECT_EQ(Eval("CASE 2 WHEN 1 THEN 'a' WHEN 2 THEN 'b' END")
                .string_value(),
            "b");
  EXPECT_EQ(Eval("CASE WHEN false THEN 1 ELSE 2 END").int_value(), 2);
  EXPECT_TRUE(Eval("CASE WHEN false THEN 1 END").is_null());
}

TEST_F(EvalTest, IndexingListsAndMaps) {
  EXPECT_EQ(Eval("[10, 20, 30][1]").int_value(), 20);
  EXPECT_EQ(Eval("[10, 20, 30][-1]").int_value(), 30);
  EXPECT_TRUE(Eval("[10][5]").is_null());
  EXPECT_EQ(Eval("{a: 1}['a']").int_value(), 1);
  EXPECT_TRUE(Eval("{a: 1}['b']").is_null());
}

TEST_F(EvalTest, Parameters) {
  params_["p"] = Value::Int(99);
  EXPECT_EQ(Eval("$p + 1").int_value(), 100);
  EXPECT_EQ(EvalError("$missing").code(), StatusCode::kInvalidArgument);
}

TEST_F(EvalTest, UnboundVariableIsError) {
  EXPECT_EQ(EvalError("nope").code(), StatusCode::kInvalidArgument);
}

TEST_F(EvalTest, ScalarFunctions) {
  EXPECT_EQ(Eval("abs(-5)").int_value(), 5);
  EXPECT_EQ(Eval("sign(-2)").int_value(), -1);
  EXPECT_EQ(Eval("toInteger('42')").int_value(), 42);
  EXPECT_TRUE(Eval("toInteger('x')").is_null());
  EXPECT_DOUBLE_EQ(Eval("toFloat(3)").double_value(), 3.0);
  EXPECT_EQ(Eval("toString(42)").string_value(), "42");
  EXPECT_EQ(Eval("toUpper('ab')").string_value(), "AB");
  EXPECT_EQ(Eval("toLower('AB')").string_value(), "ab");
  EXPECT_EQ(Eval("trim('  x ')").string_value(), "x");
  EXPECT_EQ(Eval("size('abc')").int_value(), 3);
  EXPECT_EQ(Eval("size([1, 2])").int_value(), 2);
  EXPECT_EQ(Eval("coalesce(null, null, 7)").int_value(), 7);
  EXPECT_EQ(Eval("head([1, 2])").int_value(), 1);
  EXPECT_EQ(Eval("last([1, 2])").int_value(), 2);
  EXPECT_EQ(Eval("tail([1, 2, 3])").list_value().size(), 2u);
  EXPECT_EQ(Eval("range(1, 5)").list_value().size(), 5u);
  EXPECT_EQ(Eval("range(5, 1, -2)").list_value().size(), 3u);
  EXPECT_EQ(Eval("split('a,b', ',')").list_value().size(), 2u);
  EXPECT_EQ(Eval("substring('hello', 1, 3)").string_value(), "ell");
  EXPECT_EQ(Eval("replace('aaa', 'a', 'b')").string_value(), "bbb");
  EXPECT_EQ(Eval("left('hello', 2)").string_value(), "he");
  EXPECT_EQ(Eval("right('hello', 2)").string_value(), "lo");
  EXPECT_EQ(Eval("reverse('abc')").string_value(), "cba");
}

TEST_F(EvalTest, TemporalFunctionsUseLogicalClock) {
  Value t1 = Eval("datetime()");
  Value t2 = Eval("datetime()");
  EXPECT_LT(t1.datetime_value().micros, t2.datetime_value().micros);
  EXPECT_EQ(t1.datetime_value().micros, 1000);
  EXPECT_EQ(Eval("timestamp()").type(), ValueType::kInt);
}

TEST_F(EvalTest, UnknownFunctionIsError) {
  EXPECT_EQ(EvalError("frobnicate(1)").code(), StatusCode::kNotFound);
}

TEST_F(EvalTest, AggregateOutsideProjectionIsError) {
  EXPECT_EQ(EvalError("COUNT(x)").code(), StatusCode::kInvalidArgument);
}

TEST_F(EvalTest, NodePropertyAccess) {
  const PropKeyId k = store_.InternPropKey("age");
  NodeId id = tx_->CreateNode({store_.InternLabel("P")},
                              {{k, Value::Int(30)}})
                  .value();
  row_.Set("n", Value::Node(id));
  EXPECT_EQ(Eval("n.age").int_value(), 30);
  EXPECT_TRUE(Eval("n.unknown").is_null());
}

TEST_F(EvalTest, PropertyAccessOnNullIsNull) {
  row_.Set("n", Value::Null());
  EXPECT_TRUE(Eval("n.age").is_null());
}

TEST_F(EvalTest, PropertyAccessOnScalarIsTypeError) {
  row_.Set("n", Value::Int(1));
  EXPECT_EQ(EvalError("n.age").code(), StatusCode::kTypeError);
}

TEST_F(EvalTest, MapPropertyAccess) {
  row_.Set("m", Value::MakeMap({{"k", Value::Int(5)}}));
  EXPECT_EQ(Eval("m.k").int_value(), 5);
}

TEST_F(EvalTest, LabelTestExpression) {
  NodeId id = tx_->CreateNode({store_.InternLabel("A"),
                               store_.InternLabel("B")},
                              {})
                  .value();
  row_.Set("n", Value::Node(id));
  EXPECT_TRUE(Eval("n:A").bool_value());
  EXPECT_TRUE(Eval("n:A:B").bool_value());
  EXPECT_FALSE(Eval("n:A:Missing").bool_value());
}

TEST_F(EvalTest, LabelsAndIdAndTypeFunctions) {
  NodeId a = tx_->CreateNode({store_.InternLabel("X")}, {}).value();
  NodeId b = tx_->CreateNode({store_.InternLabel("Y")}, {}).value();
  RelId r =
      tx_->CreateRel(a, store_.InternRelType("KNOWS"), b, {}).value();
  row_.Set("a", Value::Node(a));
  row_.Set("r", Value::Rel(r));
  EXPECT_EQ(Eval("labels(a)").list_value()[0].string_value(), "X");
  EXPECT_EQ(Eval("type(r)").string_value(), "KNOWS");
  EXPECT_EQ(Eval("id(a)").int_value(), static_cast<int64_t>(a.value));
  EXPECT_EQ(Eval("startNode(r)").node_id(), a);
  EXPECT_EQ(Eval("endNode(r)").node_id(), b);
}

TEST_F(EvalTest, KeysAndPropertiesFunctions) {
  NodeId id = tx_->CreateNode({store_.InternLabel("P")},
                              {{store_.InternPropKey("a"), Value::Int(1)},
                               {store_.InternPropKey("b"), Value::Int(2)}})
                  .value();
  row_.Set("n", Value::Node(id));
  EXPECT_EQ(Eval("size(keys(n))").int_value(), 2);
  EXPECT_EQ(Eval("properties(n).a").int_value(), 1);
}

TEST_F(EvalTest, OldViewOverlayReadsOldPropertyValue) {
  const PropKeyId k = store_.InternPropKey("v");
  NodeId id = tx_->CreateNode({store_.InternLabel("P")},
                              {{k, Value::Int(2)}})
                  .value();
  TransitionEnv env;
  env.SetSingle("OLD", Value::Node(id));
  env.SetSingle("NEW", Value::Node(id));
  env.MarkOldView("OLD");
  env.AddOldNodeProp(id.value, k, Value::Int(1));
  env.Seal();
  ctx_.transition = &env;
  row_.Set("OLD", Value::Node(id));
  row_.Set("NEW", Value::Node(id));
  EXPECT_EQ(Eval("OLD.v").int_value(), 1);   // overlay
  EXPECT_EQ(Eval("NEW.v").int_value(), 2);   // live store
  EXPECT_TRUE(Eval("OLD.v <> NEW.v").bool_value());
}

TEST_F(EvalTest, EvalPredicateSemantics) {
  auto pred = [&](const std::string& text) {
    auto r = EvalText(text, /*predicate=*/true);
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() && r->bool_value();
  };
  EXPECT_TRUE(pred("1 < 2"));
  EXPECT_FALSE(pred("1 > 2"));
  EXPECT_FALSE(pred("null = 1"));  // NULL does not pass
}

TEST_F(EvalTest, ContainsAggregateDetection) {
  auto has = [](const std::string& text) {
    auto e = Parser::ParseExpressionText(text);
    EXPECT_TRUE(e.ok());
    return ContainsAggregate(*e.value());
  };
  EXPECT_TRUE(has("COUNT(*)"));
  EXPECT_TRUE(has("1 + SUM(x)"));
  EXPECT_TRUE(has("COLLECT(n.x)"));
  EXPECT_FALSE(has("size([1])"));
  EXPECT_FALSE(has("EXISTS { MATCH (a) }"));  // own scope
}

}  // namespace
}  // namespace pgt::cypher
