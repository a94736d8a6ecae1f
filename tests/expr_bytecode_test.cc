// Tests for the register-bytecode expression engine (DESIGN.md §14): the
// program must be bit-for-bit identical to the tree interpreter — values,
// NULL masks, and error messages — the compiler must decline exactly the
// value-dependent-type-error shapes, Filter and Project must fall back to
// the interpreter per expression where it declines, and constant folding
// must preserve semantics.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/row_batch.h"
#include "src/engine/database.h"
#include "src/exec/filter_project_ops.h"
#include "src/exec/profile.h"
#include "src/exec/scan_ops.h"
#include "src/expr/bytecode.h"
#include "src/expr/expr.h"
#include "tests/test_util.h"

namespace gapply {
namespace {

using tutil::GroupedSchema;
using tutil::MakeTable;
using tutil::RandomGroupedRows;

RowBatch MakeBatch(const std::vector<Row>& rows) {
  RowBatch batch(rows.empty() ? 1 : rows.size());
  for (const Row& row : rows) batch.Add(row);
  return batch;
}

// Compiles `expr` (must succeed) and checks the program against the
// interpreter over `batch`: same success/failure, same error text on
// failure, element-wise Value::Equals on success.
void ExpectProgramMatchesInterpreter(const Expr& expr, const RowBatch& batch,
                                     const EvalContext& ctx = {}) {
  SCOPED_TRACE("expr: " + expr.ToString());
  Result<std::unique_ptr<ExprProgram>> prog = ExprProgram::Compile(expr);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  std::vector<Value> want;
  std::vector<Value> got;
  const Status si = expr.EvalBatch(batch, ctx, &want);
  const Status sb = (*prog)->EvalBatch(batch, ctx, &got);
  ASSERT_EQ(si.ok(), sb.ok())
      << "interpreter: " << si.ToString() << "\nbytecode: " << sb.ToString();
  if (!si.ok()) {
    EXPECT_EQ(si.ToString(), sb.ToString());
    return;
  }
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(want[i].Equals(got[i]))
        << "row " << i << ": interpreter=" << want[i].ToString()
        << " bytecode=" << got[i].ToString();
  }
}

// Same bar for the predicate form (SQL WHERE keep flags).
void ExpectPredicateMatchesInterpreter(const Expr& pred,
                                       const RowBatch& batch) {
  SCOPED_TRACE("pred: " + pred.ToString());
  Result<std::unique_ptr<ExprProgram>> prog =
      ExprProgram::CompilePredicate(pred);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  EvalContext ctx;
  std::vector<char> want;
  std::vector<char> got;
  const Status si = EvalPredicateBatch(pred, batch, ctx, &want);
  const Status sb = (*prog)->EvalPredicateBatch(batch, ctx, &got);
  ASSERT_EQ(si.ok(), sb.ok())
      << "interpreter: " << si.ToString() << "\nbytecode: " << sb.ToString();
  if (!si.ok()) {
    EXPECT_EQ(si.ToString(), sb.ToString());
    return;
  }
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i] != 0, got[i] != 0) << "row " << i;
  }
}

class BytecodeDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(7);
    rows_ = RandomGroupedRows(&rng, 300, 17, /*null_fraction=*/0.15);
    schema_ = GroupedSchema();
    batch_ = MakeBatch(rows_);
  }

  Schema schema_;
  std::vector<Row> rows_;
  RowBatch batch_{1};
};

TEST_F(BytecodeDifferentialTest, Arithmetic) {
  const Schema& s = schema_;
  // (v + 7) * k - v, with NULLs in v.
  ExpectProgramMatchesInterpreter(
      *Binary(BinaryOp::kSubtract,
              Binary(BinaryOp::kMultiply,
                     Binary(BinaryOp::kAdd, Col(s, "v"), Lit(int64_t{7})),
                     Col(s, "k")),
              Col(s, "v")),
      batch_);
  // Mixed int/double promotion: v / 3 + d * 2.0.
  ExpectProgramMatchesInterpreter(
      *Binary(BinaryOp::kAdd,
              Binary(BinaryOp::kDivide, Col(s, "v"), Lit(int64_t{3})),
              Binary(BinaryOp::kMultiply, Col(s, "d"), Lit(2.0))),
      batch_);
  // Modulo over non-zero divisor (k >= 1) and unary negation.
  ExpectProgramMatchesInterpreter(
      *Binary(BinaryOp::kModulo, Col(s, "v"), Col(s, "k")), batch_);
  ExpectProgramMatchesInterpreter(*Unary(UnaryOp::kNegate, Col(s, "v")),
                                  batch_);
  ExpectProgramMatchesInterpreter(*Unary(UnaryOp::kNegate, Col(s, "d")),
                                  batch_);
}

TEST_F(BytecodeDifferentialTest, ComparisonsAndLogic) {
  const Schema& s = schema_;
  ExpectProgramMatchesInterpreter(*Gt(Col(s, "v"), Lit(int64_t{50})), batch_);
  ExpectProgramMatchesInterpreter(*Le(Col(s, "d"), Lit(500.0)), batch_);
  // Mixed-type comparison takes the double path via int→double cast.
  ExpectProgramMatchesInterpreter(*Lt(Col(s, "v"), Col(s, "d")), batch_);
  // Kleene logic with NULL operands, and NOT.
  ExpectProgramMatchesInterpreter(
      *And(Gt(Col(s, "v"), Lit(int64_t{20})), Lt(Col(s, "d"), Lit(800.0))),
      batch_);
  ExpectProgramMatchesInterpreter(
      *Or(Unary(UnaryOp::kNot, Gt(Col(s, "v"), Lit(int64_t{90}))),
          Eq(Col(s, "k"), Lit(int64_t{3}))),
      batch_);
  ExpectProgramMatchesInterpreter(*Unary(UnaryOp::kIsNull, Col(s, "v")),
                                  batch_);
  ExpectProgramMatchesInterpreter(*Unary(UnaryOp::kIsNotNull, Col(s, "v")),
                                  batch_);
  // Predicate form: NULL comparisons reject the row.
  ExpectPredicateMatchesInterpreter(*Gt(Col(s, "v"), Lit(int64_t{50})),
                                    batch_);
  ExpectPredicateMatchesInterpreter(
      *And(Gt(Col(s, "v"), Lit(int64_t{20})),
           Unary(UnaryOp::kNot, Eq(Col(s, "k"), Lit(int64_t{5})))),
      batch_);
}

TEST_F(BytecodeDifferentialTest, Strings) {
  Schema s({{"id", TypeId::kInt64, "t"}, {"name", TypeId::kString, "t"}});
  std::vector<Row> rows;
  const char* names[] = {"alpha", "beta", "", "zeta", "beta"};
  for (int i = 0; i < 40; ++i) {
    Row row;
    row.push_back(Value::Int(i));
    if (i % 7 == 0) {
      row.push_back(Value::Null());
    } else {
      row.push_back(Value::Str(names[i % 5]));
    }
    rows.push_back(std::move(row));
  }
  RowBatch batch = MakeBatch(rows);
  ExpectProgramMatchesInterpreter(*Eq(Col(s, "name"), Lit("beta")), batch);
  ExpectProgramMatchesInterpreter(*Lt(Col(s, "name"), Lit("m")), batch);
  ExpectProgramMatchesInterpreter(*Unary(UnaryOp::kIsNull, Col(s, "name")),
                                  batch);
}

TEST_F(BytecodeDifferentialTest, CorrelatedReferences) {
  const Schema& s = schema_;
  Row outer{Value::Int(42), Value::Str("x")};
  EvalContext ctx;
  ctx.outer_rows.push_back(&outer);
  auto outer_ref = [] {
    return std::make_unique<CorrelatedColumnRefExpr>(0, 0, TypeId::kInt64,
                                                     "outer_v");
  };
  ExpectProgramMatchesInterpreter(*Gt(Col(s, "v"), outer_ref()), batch_, ctx);
  ExpectProgramMatchesInterpreter(
      *Binary(BinaryOp::kAdd, Col(s, "v"), outer_ref()), batch_, ctx);
  // Missing outer frame: both engines must raise the identical error.
  ExpectProgramMatchesInterpreter(*Gt(Col(s, "v"), outer_ref()), batch_,
                                  EvalContext{});
}

TEST_F(BytecodeDifferentialTest, ErrorMessageParity) {
  const Schema& s = schema_;
  // Integer and double division by zero, modulo by zero: same error text.
  ExpectProgramMatchesInterpreter(
      *Binary(BinaryOp::kDivide, Col(s, "v"), Lit(int64_t{0})), batch_);
  ExpectProgramMatchesInterpreter(
      *Binary(BinaryOp::kDivide, Col(s, "d"), Lit(0.0)), batch_);
  ExpectProgramMatchesInterpreter(
      *Binary(BinaryOp::kModulo, Col(s, "v"), Lit(int64_t{0})), batch_);
  // A NULL-typed operand must not suppress the other side's runtime error:
  // NULL = (1/0) raises "division by zero" in both engines.
  ExpectProgramMatchesInterpreter(
      *Eq(Lit(Value::Null()),
          Binary(BinaryOp::kDivide, Lit(int64_t{1}), Lit(int64_t{0}))),
      batch_);
  // ...but NULL compared to a well-defined side is just NULL everywhere.
  ExpectProgramMatchesInterpreter(*Eq(Lit(Value::Null()), Col(s, "v")),
                                  batch_);
}

TEST(BytecodeCompileTest, DeclinesValueDependentTypeErrors) {
  Schema s({{"v", TypeId::kInt64, "t"},
            {"name", TypeId::kString, "t"},
            {"d", TypeId::kDouble, "t"}});
  // Comparison between statically incomparable types.
  EXPECT_FALSE(ExprProgram::Compile(*Eq(Col(s, "v"), Col(s, "name"))).ok());
  // Arithmetic over a string operand.
  EXPECT_FALSE(
      ExprProgram::Compile(*Binary(BinaryOp::kAdd, Col(s, "name"), Lit("x")))
          .ok());
  // Modulo over doubles (int64-only in value_ops).
  EXPECT_FALSE(
      ExprProgram::Compile(*Binary(BinaryOp::kModulo, Col(s, "d"), Lit(2.0)))
          .ok());
  // Logic over non-bool operands.
  EXPECT_FALSE(
      ExprProgram::Compile(*And(Col(s, "v"), Gt(Col(s, "v"), Lit(int64_t{0}))))
          .ok());
  // Negation of a string.
  EXPECT_FALSE(
      ExprProgram::Compile(*Unary(UnaryOp::kNegate, Col(s, "name"))).ok());
  // Predicate gate: the result must be statically bool (or NULL).
  EXPECT_FALSE(ExprProgram::CompilePredicate(*Col(s, "v")).ok());
  EXPECT_TRUE(
      ExprProgram::CompilePredicate(*Gt(Col(s, "v"), Lit(int64_t{0}))).ok());
  EXPECT_TRUE(ExprProgram::CompilePredicate(*Lit(Value::Null())).ok());
  // The decline reason names the offending node shape.
  Result<std::unique_ptr<ExprProgram>> r =
      ExprProgram::Compile(*Eq(Col(s, "v"), Col(s, "name")));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("comparison between"),
            std::string::npos)
      << r.status().ToString();
}

TEST(BytecodeCompileTest, ToStringDisassembles) {
  Schema s = GroupedSchema();
  ASSIGN_OR_FAIL(
      std::unique_ptr<ExprProgram> prog,
      ExprProgram::Compile(*And(Gt(Col(s, "v"), Lit(int64_t{50})),
                                Lt(Binary(BinaryOp::kAdd, Col(s, "d"),
                                          Lit(1.5)),
                                   Lit(500.0)))));
  const std::string text = prog->ToString();
  EXPECT_NE(text.find("loadcol"), std::string::npos) << text;
  EXPECT_NE(text.find("cmp.gt.i64"), std::string::npos) << text;
  EXPECT_NE(text.find("add.f64"), std::string::npos) << text;
  EXPECT_NE(text.find("and"), std::string::npos) << text;
  EXPECT_EQ(prog->num_instructions(), 6u) << text;
}

TEST(BytecodeEngineWiringTest, FilterAnnotatesProfileAndFallsBack) {
  // A NULL-typed column reference is one of the shapes the compiler
  // declines; the interpreter handles it fine (IS NULL is total), so the
  // operator must fall back and say why.
  Schema s({{"v", TypeId::kInt64, "t"}, {"n", TypeId::kNull, "t"}});
  auto table = MakeTable(
      "t", s,
      {{Value::Int(1), Value::Null()}, {Value::Int(2), Value::Null()}});

  auto run_filter = [&](ExprPtr pred) {
    auto scan = std::make_unique<TableScanOp>(table.get());
    auto filter =
        std::make_unique<FilterOp>(std::move(scan), std::move(pred));
    ExecContext ctx;
    ctx.set_profiling(true);
    Result<QueryResult> r = ExecuteToVector(filter.get(), &ctx);
    EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.status().ToString());
    return CollectProfile(*filter).profile;
  };

  OpRuntimeProfile compiled = run_filter(Gt(Col(s, "v"), Lit(int64_t{0})));
  EXPECT_EQ(compiled.expr_engine, "bytecode");
  EXPECT_EQ(compiled.expr_instructions, 2u);
  EXPECT_TRUE(compiled.expr_fallback.empty()) << compiled.expr_fallback;

  OpRuntimeProfile fallback =
      run_filter(Unary(UnaryOp::kIsNull, Col(s, "n")));
  EXPECT_EQ(fallback.expr_engine, "interpret");
  EXPECT_EQ(fallback.expr_instructions, 0u);
  EXPECT_FALSE(fallback.expr_fallback.empty());
}

TEST(BytecodeEngineWiringTest, ProjectReportsMixedEngines) {
  Schema s({{"v", TypeId::kInt64, "t"}, {"n", TypeId::kNull, "t"}});
  auto table = MakeTable(
      "t", s,
      {{Value::Int(1), Value::Null()}, {Value::Int(2), Value::Null()}});
  auto scan = std::make_unique<TableScanOp>(table.get());
  std::vector<ExprPtr> exprs;
  exprs.push_back(Binary(BinaryOp::kAdd, Col(s, "v"), Lit(int64_t{1})));
  exprs.push_back(Unary(UnaryOp::kIsNull, Col(s, "n")));  // declines
  ASSIGN_OR_FAIL(PhysOpPtr project,
                 ProjectOp::Make(std::move(scan), std::move(exprs),
                                 {"v1", "isnull_n"}));
  ExecContext ctx;
  ctx.set_profiling(true);
  ASSIGN_OR_FAIL(QueryResult result,
                 ExecuteToVector(project.get(), &ctx));
  EXPECT_EQ(result.rows.size(), 2u);
  const OpRuntimeProfile profile = CollectProfile(*project).profile;
  EXPECT_EQ(profile.expr_engine, "mixed");
  EXPECT_FALSE(profile.expr_fallback.empty());
  EXPECT_GT(profile.expr_instructions, 0u);
}

class ExprEngineDatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::TpchConfig config;
    config.scale_factor = 0.001;
    ASSERT_TRUE(db_.LoadTpch(config).ok());
  }

  Database db_;
};

TEST_F(ExprEngineDatabaseTest, ExplainAnalyzeShowsEngine) {
  ASSIGN_OR_FAIL(
      std::string text,
      db_.ExplainAnalyze("select p_name from part where p_size + 1 > 20"));
  EXPECT_NE(text.find("expr=bytecode"), std::string::npos) << text;

  ASSIGN_OR_FAIL(JsonValue json,
                 db_.ExplainAnalyzeJson(
                     "select p_name from part where p_size + 1 > 20"));
  EXPECT_NE(json.Dump().find("expr_engine"), std::string::npos);
}

// The engine is fixed per expression by the compiler, not by a session
// option: the retired `expr_engine` knob reads as unknown, whatever value.
TEST_F(ExprEngineDatabaseTest, RejectsUnknownEngine) {
  for (const char* sql :
       {"set expr_engine = bytecode", "set expr_engine = interpret",
        "set expr_engine = jit"}) {
    Result<QueryResult> r = db_.Query(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_NE(r.status().ToString().find("unknown session option"),
              std::string::npos)
        << sql << ": " << r.status().ToString();
  }
}

TEST(FoldConstantsTest, FoldsPureConstantSubtrees) {
  Schema s = GroupedSchema();
  // 1 + 2 < v  becomes  3 < v.
  ExprPtr folded = FoldConstants(
      Lt(Binary(BinaryOp::kAdd, Lit(int64_t{1}), Lit(int64_t{2})),
         Col(s, "v")));
  EXPECT_TRUE(folded->StructurallyEquals(*Lt(Lit(int64_t{3}), Col(s, "v"))))
      << folded->ToString();
  // Nested: (1 + 2) * (3 + 4) collapses to 21.
  ExprPtr nested = FoldConstants(
      Binary(BinaryOp::kMultiply,
             Binary(BinaryOp::kAdd, Lit(int64_t{1}), Lit(int64_t{2})),
             Binary(BinaryOp::kAdd, Lit(int64_t{3}), Lit(int64_t{4}))));
  EXPECT_TRUE(nested->StructurallyEquals(*Lit(int64_t{21})))
      << nested->ToString();
  // Comparisons and logic fold too: NULL AND false is definitely false.
  ExprPtr kleene =
      FoldConstants(And(Lit(Value::Null()), Lit(Value::Bool(false))));
  EXPECT_TRUE(kleene->StructurallyEquals(*Lit(Value::Bool(false))))
      << kleene->ToString();
}

TEST(FoldConstantsTest, PreservesRuntimeErrors) {
  // 1 / 0 must keep raising "division by zero" at run time; folding it
  // away (or into an error) would change behavior over empty inputs.
  ExprPtr div = Binary(BinaryOp::kDivide, Lit(int64_t{1}), Lit(int64_t{0}));
  ExprPtr kept = FoldConstants(div->Clone());
  EXPECT_TRUE(kept->StructurallyEquals(*div)) << kept->ToString();
  ExprPtr mod = Binary(BinaryOp::kModulo, Lit(int64_t{5}), Lit(int64_t{0}));
  EXPECT_TRUE(FoldConstants(mod->Clone())->StructurallyEquals(*mod));
}

TEST(FoldConstantsTest, PreservesNullTyping) {
  // NULL + 1 evaluates to NULL but is statically kInt64; folding to a
  // NULL literal would retype the node, so it stays.
  ExprPtr e = Binary(BinaryOp::kAdd, Lit(Value::Null()), Lit(int64_t{1}));
  ExprPtr kept = FoldConstants(e->Clone());
  EXPECT_TRUE(kept->StructurallyEquals(*e)) << kept->ToString();
  // NULL = NULL is statically bool and evaluates to NULL — also kept.
  ExprPtr cmp = Eq(Lit(Value::Null()), Lit(Value::Null()));
  EXPECT_TRUE(FoldConstants(cmp->Clone())->StructurallyEquals(*cmp));
}

}  // namespace
}  // namespace gapply
