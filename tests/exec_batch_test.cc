// Tests for the batch execution layer. Every operator must produce the same
// rows at every batch size as at batch size 1 (row-at-a-time) — the same
// multiset always, and the same sequence where the operator promises an
// order (Sort, StreamGroupBy, parallel GApply's bit-for-bit guarantee).
// Apply, Exists, NestedLoopJoin and ScalarAgg are also checked against
// hand-computed rows.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/row_batch.h"
#include "src/exec/agg_ops.h"
#include "src/exec/apply_ops.h"
#include "src/exec/exchange_op.h"
#include "src/exec/filter_project_ops.h"
#include "src/exec/gapply_op.h"
#include "src/exec/join_ops.h"
#include "src/exec/scan_ops.h"
#include "src/expr/aggregate.h"
#include "src/expr/expr.h"
#include "src/storage/columnar.h"
#include "tests/differential_util.h"
#include "tests/test_util.h"

namespace gapply {
namespace {

using tutil::GroupedSchema;
using tutil::MakeTable;
using tutil::RandomGroupedRows;
using tutil::kDiffBatchSizes;

std::vector<Row> RunBatchPath(PhysOp* root, size_t batch_size,
                              ExecContext::Counters* counters = nullptr) {
  ExecContext ctx;
  ctx.set_batch_size(batch_size);
  Result<QueryResult> r = ExecuteToVector(root, &ctx);
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.status().ToString());
  if (counters != nullptr) *counters = ctx.counters();
  return r.ok() ? std::move(r)->rows : std::vector<Row>{};
}

using PlanBuilder = std::function<PhysOpPtr()>;

// Executes fresh plans from `build` at every batch size and compares each
// against the batch-size-1 run. A fresh plan per run keeps operator state
// strictly per-execution, so no run can leak buffered rows into another.
void ExpectBatchSizesAgree(const PlanBuilder& build, bool ordered = false) {
  PhysOpPtr anchor_plan = build();
  const std::vector<Row> expected = RunBatchPath(anchor_plan.get(), 1);
  for (size_t bs : kDiffBatchSizes) {
    PhysOpPtr batch_plan = build();
    const std::vector<Row> got = RunBatchPath(batch_plan.get(), bs);
    const std::string label = "batch_size=" + std::to_string(bs);
    if (ordered) {
      tutil::ExpectSameSequence(got, expected, label);
    } else {
      tutil::ExpectSameMultiset(got, expected, label);
    }
  }
}

class BatchDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(42);
    table_ = MakeTable("t", GroupedSchema(),
                       RandomGroupedRows(&rng, 500, 17, /*null_fraction=*/0.1));
    Rng rng2(43);
    dim_ = MakeTable("dim", GroupedSchema(), RandomGroupedRows(&rng2, 60, 17));
  }

  std::unique_ptr<Table> table_;
  std::unique_ptr<Table> dim_;
};

TEST_F(BatchDifferentialTest, TableScan) {
  ExpectBatchSizesAgree([this] {
    return std::make_unique<TableScanOp>(table_.get());
  });
}

TEST_F(BatchDifferentialTest, Filter) {
  ExpectBatchSizesAgree([this]() -> PhysOpPtr {
    auto scan = std::make_unique<TableScanOp>(table_.get());
    const Schema s = scan->output_schema();
    return std::make_unique<FilterOp>(
        std::move(scan), Gt(Col(s, "v"), Lit(int64_t{50})));
  });
}

TEST_F(BatchDifferentialTest, Project) {
  ExpectBatchSizesAgree([this]() -> PhysOpPtr {
    auto scan = std::make_unique<TableScanOp>(table_.get());
    const Schema s = scan->output_schema();
    std::vector<ExprPtr> exprs;
    exprs.push_back(Col(s, "k"));
    exprs.push_back(Binary(BinaryOp::kAdd, Col(s, "v"), Lit(int64_t{7})));
    exprs.push_back(Binary(BinaryOp::kMultiply, Col(s, "d"), Lit(2.0)));
    Result<PhysOpPtr> p =
        ProjectOp::Make(std::move(scan), std::move(exprs), {"k", "v7", "d2"});
    EXPECT_TRUE(p.ok());
    return std::move(p).value();
  });
}

TEST_F(BatchDifferentialTest, FilterThenProject) {
  ExpectBatchSizesAgree([this]() -> PhysOpPtr {
    auto scan = std::make_unique<TableScanOp>(table_.get());
    const Schema s = scan->output_schema();
    auto filter = std::make_unique<FilterOp>(
        std::move(scan), Le(Col(s, "v"), Lit(int64_t{80})));
    std::vector<ExprPtr> exprs;
    exprs.push_back(Binary(BinaryOp::kSubtract, Col(s, "v"), Col(s, "k")));
    Result<PhysOpPtr> p =
        ProjectOp::Make(std::move(filter), std::move(exprs), {"vk"});
    EXPECT_TRUE(p.ok());
    return std::move(p).value();
  });
}

TEST_F(BatchDifferentialTest, SortIsOrderPreserving) {
  ExpectBatchSizesAgree(
      [this]() -> PhysOpPtr {
        auto scan = std::make_unique<TableScanOp>(table_.get());
        return std::make_unique<SortOp>(
            std::move(scan),
            std::vector<SortKey>{{0, true}, {1, false}});
      },
      /*ordered=*/true);
}

TEST_F(BatchDifferentialTest, HashJoin) {
  ExpectBatchSizesAgree([this]() -> PhysOpPtr {
    auto probe = std::make_unique<TableScanOp>(table_.get());
    auto build = std::make_unique<TableScanOp>(dim_.get());
    return std::make_unique<HashJoinOp>(std::move(probe), std::move(build),
                                        std::vector<int>{0},
                                        std::vector<int>{0});
  });
}

TEST_F(BatchDifferentialTest, HashJoinWithResidual) {
  ExpectBatchSizesAgree([this]() -> PhysOpPtr {
    auto probe = std::make_unique<TableScanOp>(table_.get());
    auto build = std::make_unique<TableScanOp>(dim_.get());
    const Schema joined =
        Schema::Concat(probe->output_schema(), build->output_schema());
    return std::make_unique<HashJoinOp>(
        std::move(probe), std::move(build), std::vector<int>{0},
        std::vector<int>{0}, Lt(Col(joined, 1), Col(joined, 4)));
  });
}

TEST_F(BatchDifferentialTest, HashGroupBy) {
  ExpectBatchSizesAgree([this]() -> PhysOpPtr {
    auto scan = std::make_unique<TableScanOp>(table_.get());
    const Schema s = scan->output_schema();
    std::vector<AggregateDesc> aggs;
    aggs.push_back(CountStar("cnt"));
    aggs.push_back(Sum(Col(s, "v"), "sum_v"));
    aggs.push_back(Avg(Col(s, "d"), "avg_d"));
    return std::make_unique<HashGroupByOp>(std::move(scan),
                                           std::vector<int>{0},
                                           std::move(aggs));
  });
}

TEST_F(BatchDifferentialTest, StreamGroupByOverSortedInput) {
  ExpectBatchSizesAgree(
      [this]() -> PhysOpPtr {
        auto scan = std::make_unique<TableScanOp>(table_.get());
        const Schema s = scan->output_schema();
        auto sort = std::make_unique<SortOp>(
            std::move(scan), std::vector<SortKey>{{0, true}});
        std::vector<AggregateDesc> aggs;
        aggs.push_back(CountStar("cnt"));
        aggs.push_back(Sum(Col(s, "v"), "sum_v"));
        return std::make_unique<StreamGroupByOp>(
            std::move(sort), std::vector<int>{0}, std::move(aggs));
      },
      /*ordered=*/true);
}

TEST_F(BatchDifferentialTest, ScalarAgg) {
  ExpectBatchSizesAgree([this]() -> PhysOpPtr {
    auto scan = std::make_unique<TableScanOp>(table_.get());
    const Schema s = scan->output_schema();
    std::vector<AggregateDesc> aggs;
    aggs.push_back(CountStar("cnt"));
    aggs.push_back(Sum(Col(s, "v"), "sum_v"));
    return std::make_unique<ScalarAggOp>(std::move(scan), std::move(aggs));
  });
}

TEST_F(BatchDifferentialTest, Distinct) {
  ExpectBatchSizesAgree([this]() -> PhysOpPtr {
    auto scan = std::make_unique<TableScanOp>(table_.get());
    const Schema s = scan->output_schema();
    // Project to (k, v) so duplicates actually occur.
    std::vector<ExprPtr> exprs;
    exprs.push_back(Col(s, "k"));
    exprs.push_back(Col(s, "v"));
    Result<PhysOpPtr> p =
        ProjectOp::Make(std::move(scan), std::move(exprs), {"k", "v"});
    EXPECT_TRUE(p.ok());
    return std::make_unique<DistinctOp>(std::move(p).value());
  });
}

TEST_F(BatchDifferentialTest, UnionAll) {
  ExpectBatchSizesAgree([this]() -> PhysOpPtr {
    std::vector<PhysOpPtr> branches;
    branches.push_back(std::make_unique<TableScanOp>(table_.get()));
    branches.push_back(std::make_unique<TableScanOp>(dim_.get()));
    branches.push_back(std::make_unique<TableScanOp>(table_.get()));
    Result<PhysOpPtr> u = UnionAllOp::Make(std::move(branches));
    EXPECT_TRUE(u.ok());
    return std::move(u).value();
  });
}

// ---------------------------------------------------------------------------
// GApply: both partition modes x parallelism {1, 4}, identity / agg /
// filter PGQs. Parallel output must additionally be bit-for-bit identical
// across batch sizes.
// ---------------------------------------------------------------------------

PhysOpPtr IdentityPgq(const Schema& gs, const std::string& var) {
  return std::make_unique<GroupScanOp>(var, gs);
}

PhysOpPtr AggPgq(const Schema& gs, const std::string& var) {
  auto scan = std::make_unique<GroupScanOp>(var, gs);
  std::vector<AggregateDesc> aggs;
  aggs.push_back(CountStar("cnt"));
  aggs.push_back(Sum(Col(gs, "v"), "sum_v"));
  aggs.push_back(Avg(Col(gs, "d"), "avg_d"));
  return std::make_unique<ScalarAggOp>(std::move(scan), std::move(aggs));
}

PhysOpPtr FilterPgq(const Schema& gs, const std::string& var) {
  auto scan = std::make_unique<GroupScanOp>(var, gs);
  return std::make_unique<FilterOp>(
      std::move(scan), Ge(Col(gs, "v"), Lit(int64_t{50})));
}

class GApplyBatchTest
    : public ::testing::TestWithParam<std::tuple<PartitionMode, size_t>> {};

TEST_P(GApplyBatchTest, BatchMatchesRowsForAllPgqShapes) {
  const auto [mode, dop] = GetParam();
  Rng rng(7);
  auto table = MakeTable("t", GroupedSchema(),
                         RandomGroupedRows(&rng, 400, 23, 0.05));

  using PgqBuilder =
      std::function<PhysOpPtr(const Schema&, const std::string&)>;
  const PgqBuilder pgqs[] = {IdentityPgq, AggPgq, FilterPgq};
  for (const PgqBuilder& pgq : pgqs) {
    const auto build = [&]() -> PhysOpPtr {
      auto outer = std::make_unique<TableScanOp>(table.get());
      const Schema gs = outer->output_schema();
      return std::make_unique<GApplyOp>(std::move(outer),
                                        std::vector<int>{0}, "g",
                                        pgq(gs, "g"), mode, dop);
    };
    PhysOpPtr anchor_plan = build();
    const std::vector<Row> expected = RunBatchPath(anchor_plan.get(), 1);
    for (size_t bs : kDiffBatchSizes) {
      PhysOpPtr batch_plan = build();
      const std::vector<Row> got = RunBatchPath(batch_plan.get(), bs);
      const std::string label = std::string(PartitionModeName(mode)) +
                                " dop=" + std::to_string(dop) +
                                " batch_size=" + std::to_string(bs);
      if (dop > 1) {
        // The parallel path promises bit-for-bit serial-identical output,
        // and the batch size must not disturb that.
        tutil::ExpectSameSequence(got, expected, label);
      } else {
        tutil::ExpectSameMultiset(got, expected, label);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndThreads, GApplyBatchTest,
    ::testing::Combine(::testing::Values(PartitionMode::kSort,
                                         PartitionMode::kHash),
                       ::testing::Values(size_t{1}, size_t{4})),
    [](const ::testing::TestParamInfo<GApplyBatchTest::ParamType>& info) {
      return std::string(PartitionModeName(std::get<0>(info.param))) +
             "_dop" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Apply, Exists, NestedLoopJoin and ScalarAgg against hand-computed rows.
// ---------------------------------------------------------------------------

Row Ints(std::initializer_list<int64_t> values) {
  Row row;
  for (int64_t v : values) row.push_back(Value::Int(v));
  return row;
}

std::vector<Row> IntRows(std::initializer_list<std::initializer_list<int64_t>>
                             rows) {
  std::vector<Row> out;
  for (const auto& r : rows) out.push_back(Ints(r));
  return out;
}

ExprPtr OuterK() {
  return std::make_unique<CorrelatedColumnRefExpr>(0, 0, TypeId::kInt64,
                                                   "l.k");
}

// Pass-through operator that counts Open and Close calls, to check that a
// parent leaves no child open.
class OpenCloseCounter : public PhysOp {
 public:
  explicit OpenCloseCounter(PhysOpPtr child)
      : PhysOp(child->output_schema()), child_(std::move(child)) {}

  Status OpenImpl(ExecContext* ctx) override {
    ++opens;
    return child_->Open(ctx);
  }
  Result<bool> NextBatchImpl(ExecContext* ctx, RowBatch* out) override {
    return child_->NextBatch(ctx, out);
  }
  Status CloseImpl(ExecContext* ctx) override {
    ++closes;
    return child_->Close(ctx);
  }
  std::string DebugName() const override { return "OpenCloseCounter"; }
  PhysOpPtr Clone() const override {
    return std::make_unique<OpenCloseCounter>(child_->Clone());
  }
  std::vector<const PhysOp*> children() const override {
    return {child_.get()};
  }

  int opens = 0;
  int closes = 0;

 private:
  PhysOpPtr child_;
};

class ApplyBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    l_ = MakeTable("l", Schema({{"k", TypeId::kInt64, "l"}}),
                   IntRows({{1}, {2}, {3}, {4}, {5}}));
    r_ = MakeTable("r", rs_,
                   IntRows({{1, 10}, {1, 11}, {1, 12}, {3, 30}, {4, 40},
                            {4, 41}, {4, 42}, {4, 43}, {4, 44}, {5, 50},
                            {5, 51}}));
  }

  // Scan(r) filtered on r.k = <outer k>.
  PhysOpPtr CorrelatedInner() {
    return std::make_unique<FilterOp>(std::make_unique<TableScanOp>(r_.get()),
                                      Eq(Col(rs_, "k"), OuterK()));
  }

  const Schema rs_{{{"k", TypeId::kInt64, "r"}, {"v", TypeId::kInt64, "r"}}};
  std::unique_ptr<Table> l_;
  std::unique_ptr<Table> r_;
};

TEST_F(ApplyBatchTest, CorrelatedOuterBatchSpansSeveralInnerOpens) {
  const std::vector<Row> expected = IntRows(
      {{1, 1, 10}, {1, 1, 11}, {1, 1, 12}, {3, 3, 30}, {4, 4, 40},
       {4, 4, 41}, {4, 4, 42}, {4, 4, 43}, {4, 4, 44}, {5, 5, 50},
       {5, 5, 51}});
  for (size_t bs : kDiffBatchSizes) {
    auto outer = std::make_unique<TableScanOp>(l_.get());
    const TableScanOp* outer_scan = outer.get();
    ApplyOp apply(std::move(outer), CorrelatedInner());
    ExecContext::Counters counters;
    const std::vector<Row> got = RunBatchPath(&apply, bs, &counters);
    const std::string label = "batch_size=" + std::to_string(bs);
    tutil::ExpectSameSequence(got, expected, label);
    EXPECT_EQ(counters.apply_invocations, 5u) << label;
    // 5 outer rows arrive in ceil(5 / bs) batches, so at batch 3 and 1024
    // one outer batch feeds several inner opens.
    EXPECT_EQ(outer_scan->batch_stats().batches, (5 + bs - 1) / bs) << label;
  }
}

TEST_F(ApplyBatchTest, CachedInnerReplaysAcrossOuterBatch) {
  const std::vector<Row> expected = IntRows(
      {{1, 4, 40}, {1, 4, 41}, {2, 4, 40}, {2, 4, 41}, {3, 4, 40},
       {3, 4, 41}, {4, 4, 40}, {4, 4, 41}, {5, 4, 40}, {5, 4, 41}});
  for (size_t bs : kDiffBatchSizes) {
    // Uncorrelated inner: the two r rows with 40 <= v <= 41.
    auto inner = std::make_unique<OpenCloseCounter>(std::make_unique<FilterOp>(
        std::make_unique<TableScanOp>(r_.get()),
        And(Ge(Col(rs_, "v"), Lit(int64_t{40})),
            Le(Col(rs_, "v"), Lit(int64_t{41})))));
    const OpenCloseCounter* counter = inner.get();
    ApplyOp apply(std::make_unique<TableScanOp>(l_.get()), std::move(inner),
                  /*cache_uncorrelated_inner=*/true);
    ExecContext::Counters counters;
    const std::vector<Row> got = RunBatchPath(&apply, bs, &counters);
    const std::string label = "batch_size=" + std::to_string(bs);
    tutil::ExpectSameSequence(got, expected, label);
    EXPECT_EQ(counters.apply_invocations, 1u) << label;
    EXPECT_EQ(counter->opens, 1) << label;
    EXPECT_EQ(counter->closes, 1) << label;
  }
}

TEST_F(ApplyBatchTest, InnerErrorMidBatchClosesCleanly) {
  // 12 / (3 - l.k): fine for k = 1 and 2, division by zero at k = 3.
  for (size_t bs : kDiffBatchSizes) {
    const std::string label = "batch_size=" + std::to_string(bs);
    ExprPtr ratio = Binary(BinaryOp::kDivide, Lit(int64_t{12}),
                           Binary(BinaryOp::kSubtract, Lit(int64_t{3}),
                                  OuterK()));
    auto inner = std::make_unique<OpenCloseCounter>(std::make_unique<FilterOp>(
        std::make_unique<TableScanOp>(r_.get()),
        And(Gt(std::move(ratio), Lit(int64_t{0})),
            Le(Col(rs_, "v"), Lit(int64_t{40})))));
    const OpenCloseCounter* counter = inner.get();
    ApplyOp apply(std::make_unique<TableScanOp>(l_.get()), std::move(inner));

    ExecContext ctx;
    ctx.set_batch_size(bs);
    ASSERT_TRUE(apply.Open(&ctx).ok()) << label;
    RowBatch batch(bs);
    std::vector<Row> got;
    Status error = Status::OK();
    while (true) {
      Result<bool> more = apply.NextBatch(&ctx, &batch);
      if (!more.ok()) {
        error = more.status();
        break;
      }
      ASSERT_TRUE(*more) << label << ": stream ended without the error";
      for (Row& row : batch.rows()) got.push_back(std::move(row));
    }
    EXPECT_EQ(error.code(), StatusCode::kInvalidArgument) << label;
    EXPECT_NE(error.message().find("division by zero"), std::string::npos)
        << label;
    // Rows emitted before the error are a prefix of the k = 1, 2 output
    // (inner rows v <= 40, concatenated after each outer row).
    std::vector<Row> expected;
    for (int64_t k : {1, 2}) {
      for (int64_t v : {10, 11, 12, 30, 40}) {
        expected.push_back(Ints({k, v < 30 ? 1 : v / 10, v}));
      }
    }
    ASSERT_LE(got.size(), expected.size()) << label;
    tutil::ExpectSameSequence(
        got, std::vector<Row>(expected.begin(), expected.begin() + got.size()),
        label);
    // The failed inner execution is closed, nothing is left on the
    // correlated-row stack, and Close succeeds.
    EXPECT_EQ(counter->opens, 3) << label;
    EXPECT_EQ(counter->closes, 3) << label;
    EXPECT_TRUE(ctx.eval()->outer_rows.empty()) << label;
    EXPECT_TRUE(apply.Close(&ctx).ok()) << label;
    EXPECT_EQ(counter->closes, 3) << label;
  }
}

TEST_F(ApplyBatchTest, ExistsPullsAtMostOneChildRowPerOpen) {
  for (bool negated : {false, true}) {
    for (size_t bs : kDiffBatchSizes) {
      const std::string label = std::string(negated ? "not " : "") +
                                "exists batch_size=" + std::to_string(bs);
      PhysOpPtr filter = CorrelatedInner();
      const PhysOp* child = filter.get();
      ApplyOp apply(std::make_unique<TableScanOp>(l_.get()),
                    std::make_unique<ExistsOp>(std::move(filter), negated));
      ExecContext ctx;
      ctx.set_batch_size(bs);
      ctx.set_profiling(true);
      Result<QueryResult> r = ExecuteToVector(&apply, &ctx);
      ASSERT_TRUE(r.ok()) << label << ": " << r.status().ToString();
      tutil::ExpectSameSequence(
          r->rows, negated ? IntRows({{2}}) : IntRows({{1}, {3}, {4}, {5}}),
          label);
      const OpRuntimeProfile& profile = child->runtime_profile();
      EXPECT_EQ(profile.opens, 5u) << label;
      // One row for each of k = 1, 3, 4, 5, although k = 4 has five.
      EXPECT_EQ(profile.rows_out, 4u) << label;
    }
  }
}

TEST(ExistsBatchTest, DirectScanChildStopsAfterOneRow) {
  Rng rng(3);
  auto t = MakeTable("t", GroupedSchema(), RandomGroupedRows(&rng, 100, 5));
  for (size_t bs : kDiffBatchSizes) {
    auto scan = std::make_unique<TableScanOp>(t.get());
    const TableScanOp* scan_ptr = scan.get();
    ExistsOp exists(std::move(scan));
    ExecContext ctx;
    ctx.set_batch_size(bs);
    ctx.set_profiling(true);
    Result<QueryResult> r = ExecuteToVector(&exists, &ctx);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->rows.size(), 1u);
    EXPECT_TRUE(r->rows[0].empty());
    EXPECT_EQ(scan_ptr->runtime_profile().rows_out, 1u)
        << "batch_size=" << bs;
  }
}

class NestedLoopJoinBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    left_ = MakeTable("a", Schema({{"a", TypeId::kInt64, "a"}}),
                      IntRows({{1}, {5}, {3}, {7}}));
    right_ = MakeTable("b", Schema({{"b", TypeId::kInt64, "b"}}),
                       IntRows({{2}, {4}, {6}}));
    empty_ = MakeTable("e", Schema({{"b", TypeId::kInt64, "e"}}), {});
  }

  PhysOpPtr Join(const Table* right, bool with_predicate) {
    auto l = std::make_unique<TableScanOp>(left_.get());
    auto r = std::make_unique<TableScanOp>(right);
    const Schema joined =
        Schema::Concat(l->output_schema(), r->output_schema());
    ExprPtr pred =
        with_predicate ? Lt(Col(joined, 0), Col(joined, 1)) : nullptr;
    return std::make_unique<NestedLoopJoinOp>(std::move(l), std::move(r),
                                              std::move(pred));
  }

  std::unique_ptr<Table> left_;
  std::unique_ptr<Table> right_;
  std::unique_ptr<Table> empty_;
};

TEST_F(NestedLoopJoinBatchTest, PredicateJoin) {
  const std::vector<Row> expected =
      IntRows({{1, 2}, {1, 4}, {1, 6}, {5, 6}, {3, 4}, {3, 6}});
  for (size_t bs : kDiffBatchSizes) {
    PhysOpPtr join = Join(right_.get(), /*with_predicate=*/true);
    tutil::ExpectSameSequence(RunBatchPath(join.get(), bs), expected,
                              "batch_size=" + std::to_string(bs));
  }
}

TEST_F(NestedLoopJoinBatchTest, CrossProductResumesMidLeftRow) {
  for (size_t bs : kDiffBatchSizes) {
    PhysOpPtr join = Join(right_.get(), /*with_predicate=*/false);
    const std::vector<Row> got = RunBatchPath(join.get(), bs);
    const std::string label = "batch_size=" + std::to_string(bs);
    ASSERT_EQ(got.size(), 12u) << label;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(RowsEqual(got[i], Ints({left_->rows()[i / 3][0].int_val(),
                                          right_->rows()[i % 3][0].int_val()})))
          << label << " row " << i;
    }
    // The join never overshoots: 12 rows in batches of exactly bs.
    EXPECT_EQ(join->batch_stats().batches, (12 + bs - 1) / bs) << label;
  }
}

TEST_F(NestedLoopJoinBatchTest, EmptyRightSide) {
  for (bool with_predicate : {false, true}) {
    for (size_t bs : kDiffBatchSizes) {
      PhysOpPtr join = Join(empty_.get(), with_predicate);
      EXPECT_TRUE(RunBatchPath(join.get(), bs).empty())
          << "batch_size=" << bs;
    }
  }
}

TEST(ScalarAggBatchTest, EmptyInput) {
  auto t = MakeTable("t", GroupedSchema(), {});
  for (size_t bs : kDiffBatchSizes) {
    auto scan = std::make_unique<TableScanOp>(t.get());
    const Schema s = scan->output_schema();
    std::vector<AggregateDesc> aggs;
    aggs.push_back(CountStar("cnt"));
    aggs.push_back(Sum(Col(s, "v"), "sum_v"));
    aggs.push_back(Avg(Col(s, "d"), "avg_d"));
    ScalarAggOp agg(std::move(scan), std::move(aggs));
    tutil::ExpectSameSequence(
        RunBatchPath(&agg, bs), {{Value::Int(0), Value::Null(), Value::Null()}},
        "batch_size=" + std::to_string(bs));
  }
}

TEST(ScalarAggBatchTest, ReopenedPerGroupUnderGApply) {
  auto t = MakeTable("t", GroupedSchema(),
                     {{Value::Int(1), Value::Int(10), Value::Double(1)},
                      {Value::Int(2), Value::Int(5), Value::Double(2)},
                      {Value::Int(1), Value::Int(20), Value::Double(3)},
                      {Value::Int(3), Value::Int(7), Value::Double(4)},
                      {Value::Int(3), Value::Null(), Value::Double(5)},
                      {Value::Int(3), Value::Int(1), Value::Double(6)}});
  const std::vector<Row> expected = IntRows({{1, 2, 30}, {2, 1, 5}, {3, 3, 8}});
  for (size_t bs : kDiffBatchSizes) {
    auto outer = std::make_unique<TableScanOp>(t.get());
    const Schema gs = outer->output_schema();
    std::vector<AggregateDesc> aggs;
    aggs.push_back(CountStar("cnt"));
    aggs.push_back(Sum(Col(gs, "v"), "sum_v"));
    auto pgq = std::make_unique<ScalarAggOp>(
        std::make_unique<GroupScanOp>("g", gs), std::move(aggs));
    const ScalarAggOp* agg = pgq.get();
    GApplyOp gapply(std::move(outer), {0}, "g", std::move(pgq),
                    PartitionMode::kHash);
    ExecContext::Counters counters;
    const std::string label = "batch_size=" + std::to_string(bs);
    tutil::ExpectSameSequence(RunBatchPath(&gapply, bs, &counters), expected,
                              label);
    EXPECT_EQ(counters.pgq_executions, 3u) << label;
    // One single-row batch per group.
    EXPECT_EQ(agg->batch_stats().batches, 3u) << label;
    EXPECT_EQ(agg->batch_stats().rows, 3u) << label;
  }
}

// ---------------------------------------------------------------------------
// Batch plumbing details.
// ---------------------------------------------------------------------------

TEST(RowBatchTest, CapacityContract) {
  RowBatch b(4);
  EXPECT_EQ(b.capacity(), 4u);
  EXPECT_TRUE(b.empty());
  for (int i = 0; i < 4; ++i) b.Add({Value::Int(i)});
  EXPECT_TRUE(b.full());
  // Soft capacity: Add past capacity() is allowed (indivisible chunks).
  b.Add({Value::Int(4)});
  EXPECT_EQ(b.size(), 5u);
  b.Clear();
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.capacity(), 4u);
  // Zero clamps to 1 so full() can ever become true.
  RowBatch one(0);
  EXPECT_EQ(one.capacity(), 1u);
}

TEST(RowBatchTest, ClearKeepsSlotStorageForAddCopy) {
  const Row row = {Value::Int(1), Value::Str("a string longer than SSO")};
  RowBatch b(4);
  b.AddCopy(row);
  b.AddCopy(row);
  const Value* first_slot = b[0].data();
  b.Clear();
  EXPECT_TRUE(b.empty());
  EXPECT_TRUE(b.rows().empty());
  b.AddCopy({Value::Int(2), Value::Str("another string longer than SSO")});
  // The cleared slot's storage is reused, and only live rows are visible.
  EXPECT_EQ(b[0].data(), first_slot);
  ASSERT_EQ(b.rows().size(), 1u);
  EXPECT_EQ(b.rows()[0][0].int_val(), 2);
  // Add moves into a slot; a capacity change drops the slots.
  b.Add(Row{Value::Int(3)});
  EXPECT_EQ(b.size(), 2u);
  b.Reset(8);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.capacity(), 8u);
}

TEST(BatchCountersTest, BatchesProducedAndFillTracked) {
  Rng rng(9);
  auto t2 = MakeTable("t2", GroupedSchema(), RandomGroupedRows(&rng, 100, 5));
  TableScanOp scan(t2.get());
  ExecContext::Counters counters;
  const std::vector<Row> got = RunBatchPath(&scan, 32, &counters);
  EXPECT_EQ(got.size(), 100u);
  // 100 rows at batch 32 → 4 batches (32+32+32+4).
  EXPECT_EQ(counters.batches_produced, 4u);
  EXPECT_EQ(counters.batch_rows_produced, 100u);
  EXPECT_EQ(scan.batch_stats().batches, 4u);
  EXPECT_EQ(scan.batch_stats().rows, 100u);
  EXPECT_NEAR(scan.batch_stats().AverageFill(), 25.0, 1e-9);
}

TEST(BatchExprTest, EvalBatchMatchesEvalForFastAndSlowPaths) {
  Schema s({{"a", TypeId::kInt64, "t"}, {"b", TypeId::kDouble, "t"}});
  RowBatch batch(8);
  batch.Add({Value::Int(1), Value::Double(0.5)});
  batch.Add({Value::Int(-3), Value::Double(2.5)});
  batch.Add({Value::Null(), Value::Double(1.0)});
  batch.Add({Value::Int(7), Value::Double(-4.0)});

  // leaf ⊕ leaf (fast path), and a nested expression (recursive fallback).
  std::vector<ExprPtr> exprs;
  exprs.push_back(Binary(BinaryOp::kAdd, Col(s, "a"), Lit(int64_t{10})));
  exprs.push_back(Gt(Col(s, "b"), Lit(1.0)));
  exprs.push_back(Binary(BinaryOp::kMultiply,
                         Binary(BinaryOp::kAdd, Col(s, "a"), Col(s, "a")),
                         Lit(int64_t{2})));
  exprs.push_back(Lit(int64_t{99}));

  EvalContext ev;
  for (const ExprPtr& e : exprs) {
    std::vector<Value> out;
    Status st = e->EvalBatch(batch, ev, &out);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_EQ(out.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSIGN_OR_FAIL(Value expected, e->Eval(batch[i], ev));
      EXPECT_TRUE(out[i].Equals(expected))
          << e->ToString() << " row " << i << ": " << out[i].ToString()
          << " vs " << expected.ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// Columnar vs row storage. The columnar read path — dense arrays, pushed
// predicates, zone-map pruning — must reproduce the row-store stream
// bit-for-bit (both layouts preserve insertion order) across
// DOP {1, 8} x batch {1, 1024} x predicate shapes.
// ---------------------------------------------------------------------------

BinaryOp ToBinaryOp(value_ops::CmpOp op) {
  switch (op) {
    case value_ops::CmpOp::kEq: return BinaryOp::kEq;
    case value_ops::CmpOp::kNe: return BinaryOp::kNe;
    case value_ops::CmpOp::kLt: return BinaryOp::kLt;
    case value_ops::CmpOp::kLe: return BinaryOp::kLe;
    case value_ops::CmpOp::kGt: return BinaryOp::kGt;
    case value_ops::CmpOp::kGe: return BinaryOp::kGe;
  }
  return BinaryOp::kEq;
}

/// The same conjunction as an ordinary filter expression, for the row-store
/// baseline plan.
ExprPtr PredsToExpr(const Schema& s, const std::vector<ScanPredicate>& preds) {
  ExprPtr out;
  for (const ScanPredicate& p : preds) {
    ExprPtr leaf =
        Binary(ToBinaryOp(p.op), Col(s, p.column), Lit(p.literal));
    out = out == nullptr
              ? std::move(leaf)
              : Binary(BinaryOp::kAnd, std::move(out), std::move(leaf));
  }
  return out;
}

Schema MixedSchema() {
  return Schema({{"k", TypeId::kInt64, "t"},
                 {"v", TypeId::kInt64, "t"},
                 {"d", TypeId::kDouble, "t"},
                 {"s", TypeId::kString, "t"},
                 {"b", TypeId::kBool, "t"}});
}

std::vector<Row> MixedRows(Rng* rng, int n, double null_fraction) {
  const char* words[] = {"ada", "byron", "curie", "darwin", "euler"};
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto maybe_null = [&](Value v) {
      return rng->Bernoulli(null_fraction) ? Value::Null() : std::move(v);
    };
    Row row;
    row.push_back(Value::Int(i));  // clustered key
    row.push_back(maybe_null(Value::Int(rng->UniformInt(0, 100))));
    row.push_back(maybe_null(Value::Double(rng->UniformDouble(0.0, 1.0))));
    row.push_back(maybe_null(Value::Str(words[i % 5])));
    row.push_back(maybe_null(Value::Bool(i % 3 == 0)));
    rows.push_back(std::move(row));
  }
  return rows;
}

class ColumnarStorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(77);
    table_ = MakeTable("t", MixedSchema(), MixedRows(&rng, 2000, 0.1));
  }

  /// Row-store baseline: a scan with nothing pushed reads the row store;
  /// predicates (if any) are evaluated by an ordinary FilterOp above it.
  PhysOpPtr RowStorePlan(const std::vector<ScanPredicate>& preds) {
    auto scan = std::make_unique<TableScanOp>(table_.get());
    if (preds.empty()) return scan;
    ExprPtr pred = PredsToExpr(scan->output_schema(), preds);
    return std::make_unique<FilterOp>(std::move(scan), std::move(pred));
  }

  /// Columnar candidate: predicates pushed into the scan itself.
  PhysOpPtr ColumnarPlan(std::vector<ScanPredicate> preds) {
    auto scan = std::make_unique<TableScanOp>(table_.get());
    scan->PushPredicates(std::move(preds));
    return scan;
  }

  void ExpectStorageEquivalence(const std::vector<ScanPredicate>& preds,
                                const std::string& label) {
    PhysOpPtr baseline = RowStorePlan(preds);
    const std::vector<Row> expected = RunBatchPath(baseline.get(), 1024);
    for (size_t dop : {size_t{1}, size_t{8}}) {
      for (size_t batch : {size_t{1}, size_t{1024}}) {
        PhysOpPtr plan = ColumnarPlan(preds);
        if (dop > 1) {
          plan = std::make_unique<ExchangeOp>(std::move(plan), dop,
                                              /*morsel_rows=*/256);
        }
        const std::vector<Row> got = RunBatchPath(plan.get(), batch);
        tutil::ExpectSameSequence(
            got, expected,
            label + " dop=" + std::to_string(dop) +
                " batch=" + std::to_string(batch));
      }
    }
  }

  std::unique_ptr<Table> table_;
};

TEST_F(ColumnarStorageTest, ScanWithoutPredicates) {
  ExpectStorageEquivalence({}, "no-preds");
}

TEST_F(ColumnarStorageTest, IntEquality) {
  ExpectStorageEquivalence({{1, value_ops::CmpOp::kEq, Value::Int(42)}},
                           "v=42");
}

TEST_F(ColumnarStorageTest, IntRangeConjunction) {
  ExpectStorageEquivalence({{1, value_ops::CmpOp::kGe, Value::Int(20)},
                            {1, value_ops::CmpOp::kLt, Value::Int(60)}},
                           "20<=v<60");
}

TEST_F(ColumnarStorageTest, ClusteredKeyRangePrunes) {
  // k is clustered (k = row index), so zone maps refute whole morsels.
  ExpectStorageEquivalence({{0, value_ops::CmpOp::kLt, Value::Int(100)}},
                           "k<100");
  ExpectStorageEquivalence({{0, value_ops::CmpOp::kGe, Value::Int(1990)}},
                           "k>=1990");
  // Empty result: every morsel pruned.
  ExpectStorageEquivalence({{0, value_ops::CmpOp::kLt, Value::Int(0)}},
                           "k<0");
}

TEST_F(ColumnarStorageTest, DoublePredicate) {
  ExpectStorageEquivalence({{2, value_ops::CmpOp::kLe, Value::Double(0.25)}},
                           "d<=0.25");
}

TEST_F(ColumnarStorageTest, IntColumnVsDoubleLiteral) {
  ExpectStorageEquivalence({{1, value_ops::CmpOp::kGt, Value::Double(49.5)}},
                           "v>49.5");
}

TEST_F(ColumnarStorageTest, StringEqualityAndInequality) {
  ExpectStorageEquivalence({{3, value_ops::CmpOp::kEq, Value::Str("curie")}},
                           "s='curie'");
  ExpectStorageEquivalence({{3, value_ops::CmpOp::kNe, Value::Str("ada")}},
                           "s<>'ada'");
  ExpectStorageEquivalence({{3, value_ops::CmpOp::kEq, Value::Str("nobody")}},
                           "s='nobody'");
}

TEST_F(ColumnarStorageTest, BoolPredicate) {
  ExpectStorageEquivalence({{4, value_ops::CmpOp::kEq, Value::Bool(true)}},
                           "b=true");
}

TEST_F(ColumnarStorageTest, MultiColumnConjunction) {
  ExpectStorageEquivalence({{1, value_ops::CmpOp::kGe, Value::Int(10)},
                            {3, value_ops::CmpOp::kEq, Value::Str("euler")},
                            {2, value_ops::CmpOp::kLt, Value::Double(0.8)}},
                           "v>=10 and s='euler' and d<0.8");
}

TEST_F(ColumnarStorageTest, PushedPredicatesUnderResidualFilter) {
  // Mixed shape lowering produces: pushable conjuncts in the scan, the
  // non-pushable remainder in a FilterOp above it.
  const std::vector<ScanPredicate> pushed = {
      {1, value_ops::CmpOp::kGe, Value::Int(5)}};
  auto residual = [&](const Schema& s) {
    // v + k is not `col <op> const`, so it stays a residual.
    return Gt(Binary(BinaryOp::kAdd, Col(s, "v"), Col(s, "k")),
              Lit(int64_t{500}));
  };

  auto row_scan = std::make_unique<TableScanOp>(table_.get());
  const Schema s = row_scan->output_schema();
  auto baseline = std::make_unique<FilterOp>(
      std::move(row_scan),
      Binary(BinaryOp::kAnd, PredsToExpr(s, pushed), residual(s)));
  const std::vector<Row> expected = RunBatchPath(baseline.get(), 1024);

  for (size_t batch : {size_t{1}, size_t{1024}}) {
    auto scan = std::make_unique<TableScanOp>(table_.get());
    scan->PushPredicates(pushed);
    auto candidate =
        std::make_unique<FilterOp>(std::move(scan), residual(s));
    tutil::ExpectSameSequence(RunBatchPath(candidate.get(), batch), expected,
                              "residual batch=" + std::to_string(batch));
  }
}

TEST(ColumnarStorageEdgeTest, NullHeavyTable) {
  Rng rng(78);
  auto table = MakeTable("t", MixedSchema(), MixedRows(&rng, 1500, 0.9));
  const std::vector<std::vector<ScanPredicate>> pred_sets = {
      {{1, value_ops::CmpOp::kGe, Value::Int(0)}},
      {{3, value_ops::CmpOp::kEq, Value::Str("ada")}},
      {{4, value_ops::CmpOp::kEq, Value::Bool(false)}},
  };
  for (const auto& preds : pred_sets) {
    auto row_scan = std::make_unique<TableScanOp>(table.get());
    auto baseline = std::make_unique<FilterOp>(
        std::move(row_scan), PredsToExpr(table->schema(), preds));
    const std::vector<Row> expected = RunBatchPath(baseline.get(), 1024);
    auto scan = std::make_unique<TableScanOp>(table.get());
    scan->PushPredicates(preds);
    tutil::ExpectSameSequence(RunBatchPath(scan.get(), 1024), expected,
                              "null-heavy " + preds[0].ToString(
                                  table->schema()));
  }
}

TEST(ColumnarStorageEdgeTest, AllStringTable) {
  Schema schema({{"a", TypeId::kString, "t"}, {"b", TypeId::kString, "t"}});
  std::vector<Row> rows;
  const char* names[] = {"x", "y", "z", "w"};
  for (int i = 0; i < 500; ++i) {
    rows.push_back({i % 13 == 0 ? Value::Null() : Value::Str(names[i % 4]),
                    Value::Str(names[(i / 4) % 4])});
  }
  auto table = MakeTable("t", schema, std::move(rows));
  const std::vector<ScanPredicate> preds = {
      {0, value_ops::CmpOp::kGe, Value::Str("y")},
      {1, value_ops::CmpOp::kNe, Value::Str("w")}};
  auto row_scan = std::make_unique<TableScanOp>(table.get());
  auto baseline = std::make_unique<FilterOp>(std::move(row_scan),
                                             PredsToExpr(schema, preds));
  const std::vector<Row> expected = RunBatchPath(baseline.get(), 1024);
  ASSERT_FALSE(expected.empty());
  auto scan = std::make_unique<TableScanOp>(table.get());
  scan->PushPredicates(preds);
  tutil::ExpectSameSequence(RunBatchPath(scan.get(), 1024), expected,
                            "all-string");
}

TEST(ColumnarStorageEdgeTest, PruningCountersBookMorselSkips) {
  // Clustered key over 5 storage morsels; k < 100 lives entirely in the
  // first, so the scan must visit 1 morsel and prune 4.
  Schema schema({{"k", TypeId::kInt64, "t"}});
  std::vector<Row> rows;
  const size_t n = 5 * ColumnarTable::kMorselRows;
  for (size_t i = 0; i < n; ++i) {
    rows.push_back({Value::Int(static_cast<int64_t>(i))});
  }
  auto table = MakeTable("t", schema, std::move(rows));
  TableScanOp scan(table.get());
  scan.PushPredicates({{0, value_ops::CmpOp::kLt, Value::Int(100)}});
  ExecContext::Counters counters;
  const std::vector<Row> got = RunBatchPath(&scan, 1024, &counters);
  EXPECT_EQ(got.size(), 100u);
  EXPECT_EQ(counters.morsels_scanned, 1u);
  EXPECT_EQ(counters.morsels_pruned, 4u);
}

TEST(ColumnarStorageEdgeTest, PruningInsideExchangeMorselDriver) {
  // Exchange morsels (odd-sized, smaller than storage morsels) intersect
  // storage morsels; pruning still fires and results stay bit-for-bit.
  Schema schema({{"k", TypeId::kInt64, "t"}, {"v", TypeId::kInt64, "t"}});
  std::vector<Row> rows;
  const size_t n = 3 * ColumnarTable::kMorselRows + 17;
  for (size_t i = 0; i < n; ++i) {
    rows.push_back({Value::Int(static_cast<int64_t>(i)),
                    Value::Int(static_cast<int64_t>(i % 91))});
  }
  auto table = MakeTable("t", schema, std::move(rows));
  const std::vector<ScanPredicate> preds = {
      {0, value_ops::CmpOp::kGe,
       Value::Int(static_cast<int64_t>(n) - 50)}};

  auto row_scan = std::make_unique<TableScanOp>(table.get());
  auto baseline = std::make_unique<FilterOp>(std::move(row_scan),
                                             PredsToExpr(schema, preds));
  const std::vector<Row> expected = RunBatchPath(baseline.get(), 1024);
  ASSERT_EQ(expected.size(), 50u);

  auto scan = std::make_unique<TableScanOp>(table.get());
  scan->PushPredicates(preds);
  ExchangeOp ex(std::move(scan), /*parallelism=*/8, /*morsel_rows=*/997);
  ExecContext ctx;
  ctx.set_batch_size(1024);
  Result<QueryResult> r = ExecuteToVector(&ex, &ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  tutil::ExpectSameSequence(r->rows, expected, "exchange-pruning");
  EXPECT_GT(ctx.counters().morsels_pruned, 0u);
}

// ---------------------------------------------------------------------------
// SetMorsel edge cases.
// ---------------------------------------------------------------------------

std::vector<Row> DrainScan(TableScanOp* scan, ExecContext* ctx) {
  std::vector<Row> rows;
  RowBatch batch(ctx->batch_size());
  while (true) {
    Result<bool> more = scan->NextBatch(ctx, &batch);
    EXPECT_TRUE(more.ok());
    if (!more.ok() || !*more) break;
    for (Row& row : batch.rows()) rows.push_back(std::move(row));
  }
  return rows;
}

TEST(TableScanMorselTest, RejectsInvertedRange) {
  Rng rng(5);
  auto table = MakeTable("t", GroupedSchema(), RandomGroupedRows(&rng, 50, 3));
  TableScanOp scan(table.get());
  scan.EnableMorselMode();
  ExecContext ctx;
  ASSERT_TRUE(scan.Open(&ctx).ok());
  ASSERT_TRUE(scan.SetMorsel(10, 20).ok());
  Status st = scan.SetMorsel(20, 10);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.ToString().find("inverted"), std::string::npos);
  // The previously armed range survives the rejected call.
  EXPECT_EQ(DrainScan(&scan, &ctx).size(), 10u);
  ASSERT_TRUE(scan.Close(&ctx).ok());
}

TEST(TableScanMorselTest, EmptyTableYieldsNothing) {
  auto table = std::make_unique<Table>("t", GroupedSchema());
  TableScanOp scan(table.get());
  scan.EnableMorselMode();
  ExecContext ctx;
  ASSERT_TRUE(scan.Open(&ctx).ok());
  ASSERT_TRUE(scan.SetMorsel(0, 64).ok());  // clamped to the empty table
  EXPECT_TRUE(DrainScan(&scan, &ctx).empty());
  ASSERT_TRUE(scan.Close(&ctx).ok());
}

TEST(TableScanMorselTest, MorselPastEndClampsToNothing) {
  Rng rng(6);
  auto table = MakeTable("t", GroupedSchema(), RandomGroupedRows(&rng, 50, 3));
  TableScanOp scan(table.get());
  scan.EnableMorselMode();
  ExecContext ctx;
  ASSERT_TRUE(scan.Open(&ctx).ok());
  ASSERT_TRUE(scan.SetMorsel(1000, 1064).ok());
  EXPECT_TRUE(DrainScan(&scan, &ctx).empty());
  // A morsel straddling the end clamps to the tail.
  ASSERT_TRUE(scan.SetMorsel(45, 1000).ok());
  EXPECT_EQ(DrainScan(&scan, &ctx).size(), 5u);
  ASSERT_TRUE(scan.Close(&ctx).ok());
}

TEST(TableScanMorselTest, ZeroWidthMorselYieldsNothingAndRearms) {
  Rng rng(7);
  auto table = MakeTable("t", GroupedSchema(), RandomGroupedRows(&rng, 50, 3));
  TableScanOp scan(table.get());
  scan.EnableMorselMode();
  ExecContext ctx;
  ASSERT_TRUE(scan.Open(&ctx).ok());
  ASSERT_TRUE(scan.SetMorsel(5, 5).ok());
  EXPECT_TRUE(DrainScan(&scan, &ctx).empty());
  // Re-arming after a zero-width morsel still works.
  ASSERT_TRUE(scan.SetMorsel(0, 50).ok());
  EXPECT_EQ(DrainScan(&scan, &ctx).size(), 50u);
  ASSERT_TRUE(scan.Close(&ctx).ok());
}

TEST(BatchExprTest, EvalPredicateBatchRejectsNonBool) {
  Schema s({{"a", TypeId::kInt64, "t"}});
  RowBatch batch(2);
  batch.Add({Value::Int(1)});
  std::vector<char> keep;
  EvalContext ev;
  ExprPtr not_a_predicate = Col(s, "a");
  Status st = EvalPredicateBatch(*not_a_predicate, batch, ev, &keep);
  EXPECT_FALSE(st.ok());
}

}  // namespace
}  // namespace gapply
