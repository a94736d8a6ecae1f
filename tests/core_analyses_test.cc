#include <gtest/gtest.h>

#include "src/core/analyses.h"
#include "src/exec/lowering.h"
#include "src/plan/builder.h"
#include "tests/test_util.h"

namespace gapply {
namespace {

using core::AnalyzePgq;
using core::PgqInfo;
using core::RemapPgq;
using tutil::GroupedSchema;
using tutil::MakeTable;

// Group schema used throughout: (k int, v int, d double).
class AnalysesTest : public ::testing::Test {
 protected:
  Schema gs_ = GroupedSchema();

  LogicalOpPtr Pgq(PlanBuilder b) {
    auto r = std::move(b).Build();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }

  PgqInfo Analyze(const LogicalOp& pgq) {
    auto r = AnalyzePgq(pgq, "g", 3);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(r).value() : PgqInfo{};
  }
};

TEST_F(AnalysesTest, IdentityScanIsEmptyOnEmptyWithTrueRange) {
  LogicalOpPtr pgq = Pgq(PlanBuilder::GroupScan("g", gs_));
  PgqInfo info = Analyze(*pgq);
  EXPECT_TRUE(info.empty_on_empty);
  EXPECT_EQ(info.covering_range, nullptr);  // TRUE
  EXPECT_TRUE(info.eval_columns.empty());
  // Identity output: every column flows out as itself.
  EXPECT_EQ(info.provenance,
            (std::vector<std::set<int>>{{0}, {1}, {2}}));
  EXPECT_EQ(info.pure_source, (std::vector<int>{0, 1, 2}));
}

TEST_F(AnalysesTest, ScalarAggIsNotEmptyOnEmpty) {
  LogicalOpPtr pgq = Pgq(PlanBuilder::GroupScan("g", gs_).ScalarAgg(
      {{AggKind::kCountStar, "", "cnt", false}}));
  PgqInfo info = Analyze(*pgq);
  EXPECT_FALSE(info.empty_on_empty);  // count(*) of empty group is a row
  EXPECT_TRUE(info.blocking);
}

TEST_F(AnalysesTest, SelectContributesToRangeAndEval) {
  LogicalOpPtr pgq = Pgq(PlanBuilder::GroupScan("g", gs_).Select(
      [](const Schema& s) { return Gt(Col(s, "v"), Lit(int64_t{5})); }));
  PgqInfo info = Analyze(*pgq);
  EXPECT_TRUE(info.empty_on_empty);
  ASSERT_NE(info.covering_range, nullptr);
  EXPECT_EQ(info.covering_range->ToString(), "(v > 5)");
  EXPECT_EQ(info.eval_columns, (std::set<int>{1}));
}

TEST_F(AnalysesTest, SelectAboveAggregateDoesNotContributeToRange) {
  // σ(cnt > 1, ScalarAgg(count(*))): the select has an aggregate
  // descendant, so the covering range stays TRUE (§4.1).
  LogicalOpPtr pgq = Pgq(
      PlanBuilder::GroupScan("g", gs_)
          .ScalarAgg({{AggKind::kCountStar, "", "cnt", false}})
          .Select([](const Schema& s) {
            return Gt(Col(s, "cnt"), Lit(int64_t{1}));
          }));
  PgqInfo info = Analyze(*pgq);
  EXPECT_EQ(info.covering_range, nullptr);
  EXPECT_FALSE(info.empty_on_empty);
}

TEST_F(AnalysesTest, UnionOrsRangesAndAndsEmptyOnEmpty) {
  auto branch = [&](int64_t cutoff) {
    return PlanBuilder::GroupScan("g", gs_).Select([&](const Schema& s) {
      return Gt(Col(s, "v"), Lit(cutoff));
    });
  };
  std::vector<PlanBuilder> branches;
  branches.push_back(branch(5));
  branches.push_back(branch(10));
  LogicalOpPtr pgq = Pgq(PlanBuilder::UnionAll(std::move(branches)));
  PgqInfo info = Analyze(*pgq);
  EXPECT_TRUE(info.empty_on_empty);
  ASSERT_NE(info.covering_range, nullptr);
  EXPECT_EQ(info.covering_range->ToString(), "((v > 5) or (v > 10))");

  // Adding an aggregate branch kills emptyOnEmpty and widens the range to
  // TRUE (the aggregate branch needs the whole group).
  std::vector<PlanBuilder> branches2;
  branches2.push_back(branch(5));
  branches2.push_back(
      PlanBuilder::GroupScan("g", gs_)
          .ScalarAgg({{AggKind::kCount, "v", "cv", false}})
          .ProjectExprs(
              [](const Schema& s) {
                std::vector<ExprPtr> e;
                e.push_back(Col(s, "cv"));
                e.push_back(Lit(Value::Null()));
                e.push_back(Lit(Value::Null()));
                return e;
              },
              {"k", "v", "d"}));
  // Make branch 1 schema compatible (3 cols each).
  LogicalOpPtr pgq2 = Pgq(PlanBuilder::UnionAll(std::move(branches2)));
  PgqInfo info2 = Analyze(*pgq2);
  EXPECT_FALSE(info2.empty_on_empty);
  EXPECT_EQ(info2.covering_range, nullptr);  // TRUE
}

TEST_F(AnalysesTest, ApplyTakesOuterEmptyOnEmptyAndOrsRanges) {
  // Figure 3 shape: Apply(σ_v>5(g), ScalarAgg(avg d over σ_v<2(g))).
  auto inner = PlanBuilder::GroupScan("g", gs_)
                   .Select([](const Schema& s) {
                     return Lt(Col(s, "v"), Lit(int64_t{2}));
                   })
                   .ScalarAgg({{AggKind::kAvg, "d", "avg_d", false}});
  LogicalOpPtr pgq = Pgq(PlanBuilder::GroupScan("g", gs_)
                             .Select([](const Schema& s) {
                               return Gt(Col(s, "v"), Lit(int64_t{5}));
                             })
                             .Apply(std::move(inner)));
  PgqInfo info = Analyze(*pgq);
  EXPECT_TRUE(info.empty_on_empty);  // outer child is a filtered scan
  ASSERT_NE(info.covering_range, nullptr);
  EXPECT_EQ(info.covering_range->ToString(), "((v > 5) or (v < 2))");
  EXPECT_TRUE(info.blocking);
  EXPECT_EQ(info.eval_columns, (std::set<int>{1, 2}));
}

TEST_F(AnalysesTest, ProjectionTracksPurePassThroughAndUsedColumns) {
  LogicalOpPtr pgq = Pgq(PlanBuilder::GroupScan("g", gs_).ProjectExprs(
      [](const Schema& s) {
        std::vector<ExprPtr> e;
        e.push_back(Col(s, "k"));
        e.push_back(Binary(BinaryOp::kMultiply, Col(s, "d"), Lit(2.0)));
        return e;
      },
      {"k", "d2"}));
  PgqInfo info = Analyze(*pgq);
  // k is pure pass-through of group column 0; d2 is computed.
  EXPECT_EQ(info.pure_source, (std::vector<int>{0, -1}));
  // Projected columns are not gp-eval (§4.3: they can be re-attached
  // later); they are used through the outputs' provenance.
  EXPECT_TRUE(info.eval_columns.empty());
  EXPECT_EQ(info.provenance, (std::vector<std::set<int>>{{0}, {2}}));
}

TEST_F(AnalysesTest, DistinctForcesItsColumnsIntoEval) {
  LogicalOpPtr pgq =
      Pgq(PlanBuilder::GroupScan("g", gs_).Project({"v"}).Distinct());
  PgqInfo info = Analyze(*pgq);
  EXPECT_EQ(info.eval_columns, (std::set<int>{1}));
}

TEST_F(AnalysesTest, CorrelatedConditionExcludedFromRange) {
  // Q2 shape: Filter(d >= avg) above Apply — condition references the
  // Apply output, fine; but a select with a correlated ref must not narrow
  // the range.
  auto inner = PlanBuilder::GroupScan("g", gs_).Select([](const Schema&) {
    // d < outer.d (correlated at depth 0, column 2)
    return Lt(std::make_unique<CorrelatedColumnRefExpr>(0, 2,
                                                        TypeId::kDouble, "d"),
              Lit(1e18));
  });
  LogicalOpPtr pgq =
      Pgq(PlanBuilder::GroupScan("g", gs_).Apply(std::move(inner)));
  PgqInfo info = Analyze(*pgq);
  EXPECT_EQ(info.covering_range, nullptr);  // widened to TRUE
  // The correlated reference contributes the outer column to eval.
  EXPECT_TRUE(info.eval_columns.count(2) > 0);
}

TEST_F(AnalysesTest, RemapPgqPrunesAndPreservesSemantics) {
  // PGQ uses only k and d; drop v from the group schema and verify the
  // rewritten PGQ computes the same result.
  auto pgq_builder = [&](const Schema& group_schema) {
    return PlanBuilder::GroupScan("g", group_schema)
        .Select([](const Schema& s) {
          return Gt(Col(s, "d"), Lit(100.0));
        })
        .ScalarAgg({{AggKind::kCount, "d", "c", false}});
  };
  LogicalOpPtr pgq = Pgq(pgq_builder(gs_));

  Schema pruned({{"k", TypeId::kInt64, "t"}, {"d", TypeId::kDouble, "t"}});
  auto remapped = RemapPgq(*pgq, "g", pruned, {0, -1, 1},
                           /*allow_dropping_passthrough=*/false);
  ASSERT_TRUE(remapped.ok()) << remapped.status().ToString();
  EXPECT_EQ(remapped->output_mapping, (std::vector<int>{0}));

  // Execute both against equivalent bindings.
  Rng rng(11);
  auto rows3 = tutil::RandomGroupedRows(&rng, 80, 5);
  std::vector<Row> rows2;
  for (const Row& r : rows3) rows2.push_back({r[0], r[2]});

  LoweringOptions opts;
  ASSIGN_OR_FAIL(PhysOpPtr p3, LowerPlan(*pgq, opts));
  ASSIGN_OR_FAIL(PhysOpPtr p2, LowerPlan(*remapped->plan, opts));

  ExecContext ctx;
  ctx.BindGroup("g", &gs_, rows3);
  auto r3 = ExecuteToVector(p3.get(), &ctx);
  ASSERT_TRUE(r3.ok());
  ASSERT_TRUE(ctx.UnbindGroup("g").ok());
  ctx.BindGroup("g", &pruned, rows2);
  auto r2 = ExecuteToVector(p2.get(), &ctx);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(SameRowMultiset(r3->rows, r2->rows));
}

TEST_F(AnalysesTest, RemapPgqRejectsPruningEvalColumn) {
  LogicalOpPtr pgq = Pgq(PlanBuilder::GroupScan("g", gs_).Select(
      [](const Schema& s) { return Gt(Col(s, "v"), Lit(int64_t{5})); }));
  Schema pruned({{"k", TypeId::kInt64, "t"}, {"d", TypeId::kDouble, "t"}});
  auto remapped = RemapPgq(*pgq, "g", pruned, {0, -1, 1},
                           /*allow_dropping_passthrough=*/true);
  EXPECT_FALSE(remapped.ok());
}

TEST_F(AnalysesTest, RemapPgqDropsPassthroughProjectionWhenAllowed) {
  LogicalOpPtr pgq = Pgq(PlanBuilder::GroupScan("g", gs_).Project(
      {"k", "v", "d"}));
  Schema pruned({{"k", TypeId::kInt64, "t"}, {"d", TypeId::kDouble, "t"}});
  auto remapped = RemapPgq(*pgq, "g", pruned, {0, -1, 1},
                           /*allow_dropping_passthrough=*/true);
  ASSERT_TRUE(remapped.ok()) << remapped.status().ToString();
  EXPECT_EQ(remapped->output_mapping, (std::vector<int>{0, -1, 1}));
  EXPECT_EQ(remapped->dropped_group_source[1], 1);  // passed through old v
}

TEST_F(AnalysesTest, RemapPgqRefusesDroppingUnderDistinct) {
  LogicalOpPtr pgq = Pgq(
      PlanBuilder::GroupScan("g", gs_).Project({"k", "v"}).Distinct());
  Schema pruned({{"k", TypeId::kInt64, "t"}, {"d", TypeId::kDouble, "t"}});
  auto remapped = RemapPgq(*pgq, "g", pruned, {0, -1, 1},
                           /*allow_dropping_passthrough=*/true);
  EXPECT_FALSE(remapped.ok());
}

TEST_F(AnalysesTest, NestedGApplyGroupingColumnsAreEval) {
  // Nested GApply on v whose PGQ sums d: partitioning reads v, the PGQ
  // reads d, and k is read by nothing.
  LogicalOpPtr pgq = Pgq(PlanBuilder::GroupScan("g", gs_).GApply(
      {"v"}, "h",
      PlanBuilder::GroupScan("h", gs_).ScalarAgg(
          {{AggKind::kSum, "d", "s", false}})));
  PgqInfo info = Analyze(*pgq);
  EXPECT_EQ(info.eval_columns, (std::set<int>{1, 2}));
}

TEST_F(AnalysesTest, RemapPgqDropsPassthroughUnderCountStar) {
  // Fig. 8 Q2's shape: count(*) over a projection that drops the scalar
  // subquery's appended average. The projection passes v through, but
  // nothing above it reads v, so pruning v from the group drops it there.
  LogicalOpPtr pgq = Pgq(
      PlanBuilder::GroupScan("g", gs_)
          .Apply(PlanBuilder::GroupScan("g", gs_).ScalarAgg(
              {{AggKind::kAvg, "d", "avgd", false}}))
          .Select([](const Schema& s) { return Ge(Col(s, "d"), Col(s, "avgd")); })
          .Project({"k", "v", "d"})
          .ScalarAgg({{AggKind::kCountStar, "", "cnt", false}}));
  PgqInfo info = Analyze(*pgq);
  EXPECT_EQ(info.eval_columns, (std::set<int>{2}));

  Schema pruned({{"k", TypeId::kInt64, "t"}, {"d", TypeId::kDouble, "t"}});
  auto strict = RemapPgq(*pgq, "g", pruned, {0, -1, 1},
                         /*allow_dropping_passthrough=*/false);
  EXPECT_EQ(strict.status().code(), StatusCode::kInvalidArgument);
  auto remapped = RemapPgq(*pgq, "g", pruned, {0, -1, 1},
                           /*allow_dropping_passthrough=*/true);
  ASSERT_TRUE(remapped.ok()) << remapped.status().ToString();
  EXPECT_EQ(remapped->output_mapping, (std::vector<int>{0}));
  const LogicalOp* project = remapped->plan->child(0);
  ASSERT_EQ(project->type(), LogicalOpType::kProject);
  EXPECT_EQ(project->output_schema().num_columns(), 2u);

  Rng rng(12);
  auto rows3 = tutil::RandomGroupedRows(&rng, 80, 5);
  std::vector<Row> rows2;
  for (const Row& r : rows3) rows2.push_back({r[0], r[2]});
  LoweringOptions opts;
  ASSIGN_OR_FAIL(PhysOpPtr p3, LowerPlan(*pgq, opts));
  ASSIGN_OR_FAIL(PhysOpPtr p2, LowerPlan(*remapped->plan, opts));
  ExecContext ctx;
  ctx.BindGroup("g", &gs_, rows3);
  auto r3 = ExecuteToVector(p3.get(), &ctx);
  ASSERT_TRUE(r3.ok());
  ASSERT_TRUE(ctx.UnbindGroup("g").ok());
  ctx.BindGroup("g", &pruned, rows2);
  auto r2 = ExecuteToVector(p2.get(), &ctx);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(SameRowMultiset(r3->rows, r2->rows));
}

}  // namespace
}  // namespace gapply
