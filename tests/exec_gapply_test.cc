#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/common/memory_tracker.h"
#include "src/common/spill_file.h"
#include "src/exec/agg_ops.h"
#include "src/exec/apply_ops.h"
#include "src/exec/filter_project_ops.h"
#include "src/exec/gapply_op.h"
#include "src/exec/scan_ops.h"
#include "src/expr/aggregate.h"
#include "tests/test_util.h"

namespace gapply {
namespace {

using tutil::GroupedSchema;
using tutil::MakeTable;
using tutil::RandomGroupedRows;
using tutil::RunPlan;

// ---------------------------------------------------------------------------
// Naive reference implementation of GApply semantics:
//   U_{c in distinct(pi_C(outer))} ({c} x PGQ(sigma_{C=c} outer))
// computed by materializing one vector per group (found through a
// std::unordered_map keyed by the key row) and invoking a PGQ-as-function
// callback. Groups come out in first-appearance order and keep their input
// order — the order hash-mode GApply guarantees. Property tests compare the
// operator against it.
// ---------------------------------------------------------------------------
using PgqFn = std::function<std::vector<Row>(const std::vector<Row>&)>;

std::vector<Row> ReferenceGApply(const std::vector<Row>& input,
                                 const std::vector<int>& gcols,
                                 const PgqFn& pgq) {
  std::vector<Row> keys;
  std::vector<std::vector<Row>> groups;
  std::unordered_map<Row, size_t, RowHash, RowEq> index;
  for (const Row& row : input) {
    Row key;
    for (int c : gcols) key.push_back(row[static_cast<size_t>(c)]);
    auto [it, inserted] = index.try_emplace(key, keys.size());
    if (inserted) {
      keys.push_back(key);
      groups.emplace_back();
    }
    groups[it->second].push_back(row);
  }
  std::vector<Row> out;
  for (size_t g = 0; g < groups.size(); ++g) {
    for (const Row& pgq_row : pgq(groups[g])) {
      Row full = keys[g];
      full.insert(full.end(), pgq_row.begin(), pgq_row.end());
      out.push_back(std::move(full));
    }
  }
  return out;
}

// PGQ plan: scan the group, compute scalar aggregates (count(*), sum v,
// avg d).
PhysOpPtr AggPgq(const Schema& group_schema, const std::string& var) {
  auto scan = std::make_unique<GroupScanOp>(var, group_schema);
  std::vector<AggregateDesc> aggs;
  aggs.push_back(CountStar("cnt"));
  aggs.push_back(Sum(Col(group_schema, "v"), "sum_v"));
  aggs.push_back(Avg(Col(group_schema, "d"), "avg_d"));
  return std::make_unique<ScalarAggOp>(std::move(scan), std::move(aggs));
}

TEST(GApplyTest, AggregatePerGroup) {
  auto table = MakeTable("t", GroupedSchema(),
                         {{Value::Int(1), Value::Int(10), Value::Double(2.0)},
                          {Value::Int(1), Value::Int(30), Value::Double(4.0)},
                          {Value::Int(2), Value::Int(5), Value::Double(1.0)}});
  auto outer = std::make_unique<TableScanOp>(table.get());
  const Schema group_schema = outer->output_schema();
  GApplyOp op(std::move(outer), {0}, "g", AggPgq(group_schema, "g"),
              PartitionMode::kHash);
  // Output: k, cnt, sum_v, avg_d.
  QueryResult r = RunPlan(&op);
  ASSERT_EQ(r.schema.num_columns(), 4u);
  EXPECT_TRUE(SameRowMultiset(
      r.rows,
      {{Value::Int(1), Value::Int(2), Value::Int(40), Value::Double(3.0)},
       {Value::Int(2), Value::Int(1), Value::Int(5), Value::Double(1.0)}}));
}

TEST(GApplyTest, SortModeClustersOutputByGroupingColumns) {
  Rng rng(3);
  auto table =
      MakeTable("t", GroupedSchema(), RandomGroupedRows(&rng, 200, 12));
  auto outer = std::make_unique<TableScanOp>(table.get());
  const Schema group_schema = outer->output_schema();

  // PGQ returns the group itself (identity scan): output is the whole input
  // with the key prefixed, clustered by key in sort mode.
  GApplyOp op(std::move(outer), {0}, "g",
              std::make_unique<GroupScanOp>("g", group_schema),
              PartitionMode::kSort);
  QueryResult r = RunPlan(&op);
  ASSERT_EQ(r.rows.size(), 200u);
  for (size_t i = 1; i < r.rows.size(); ++i) {
    EXPECT_GE(r.rows[i][0].int_val(), r.rows[i - 1][0].int_val())
        << "sort-mode GApply output must be clustered and ordered by key";
  }
}

TEST(GApplyTest, HashModeClustersByGroupEvenIfUnordered) {
  Rng rng(4);
  auto table =
      MakeTable("t", GroupedSchema(), RandomGroupedRows(&rng, 100, 7));
  auto outer = std::make_unique<TableScanOp>(table.get());
  const Schema group_schema = outer->output_schema();
  GApplyOp op(std::move(outer), {0}, "g",
              std::make_unique<GroupScanOp>("g", group_schema),
              PartitionMode::kHash);
  QueryResult r = RunPlan(&op);
  ASSERT_EQ(r.rows.size(), 100u);
  // Rows of the same key must be contiguous (clustered), though key order is
  // arbitrary.
  std::map<int64_t, int> runs;
  int64_t prev = -1;
  for (const Row& row : r.rows) {
    const int64_t k = row[0].int_val();
    if (k != prev) {
      runs[k]++;
      prev = k;
    }
  }
  for (const auto& [k, n] : runs) {
    EXPECT_EQ(n, 1) << "key " << k << " appears in " << n << " runs";
  }
}

TEST(GApplyTest, EmptyInputProducesNoGroups) {
  auto table = MakeTable("t", GroupedSchema(), {});
  auto outer = std::make_unique<TableScanOp>(table.get());
  const Schema group_schema = outer->output_schema();
  GApplyOp op(std::move(outer), {0}, "g", AggPgq(group_schema, "g"));
  EXPECT_TRUE(RunPlan(&op).rows.empty());
}

TEST(GApplyTest, NullGroupingValuesFormTheirOwnGroup) {
  auto table = MakeTable("t", GroupedSchema(),
                         {{Value::Null(), Value::Int(1), Value::Double(1)},
                          {Value::Null(), Value::Int(2), Value::Double(2)},
                          {Value::Int(1), Value::Int(3), Value::Double(3)}});
  auto outer = std::make_unique<TableScanOp>(table.get());
  const Schema group_schema = outer->output_schema();
  GApplyOp op(std::move(outer), {0}, "g", AggPgq(group_schema, "g"));
  QueryResult r = RunPlan(&op);
  EXPECT_TRUE(SameRowMultiset(
      r.rows,
      {{Value::Null(), Value::Int(2), Value::Int(3), Value::Double(1.5)},
       {Value::Int(1), Value::Int(1), Value::Int(3), Value::Double(3.0)}}));
}

TEST(GApplyTest, MultiColumnGroupingKeys) {
  Schema s({{"a", TypeId::kInt64, "t"},
            {"b", TypeId::kInt64, "t"},
            {"v", TypeId::kInt64, "t"}});
  auto table = MakeTable(
      "t", s,
      {{Value::Int(1), Value::Int(1), Value::Int(10)},
       {Value::Int(1), Value::Int(2), Value::Int(20)},
       {Value::Int(1), Value::Int(1), Value::Int(30)}});
  auto outer = std::make_unique<TableScanOp>(table.get());
  const Schema group_schema = outer->output_schema();
  auto scan = std::make_unique<GroupScanOp>("g", group_schema);
  std::vector<AggregateDesc> aggs;
  aggs.push_back(Sum(Col(group_schema, "v"), "s"));
  auto pgq = std::make_unique<ScalarAggOp>(std::move(scan), std::move(aggs));
  GApplyOp op(std::move(outer), {0, 1}, "g", std::move(pgq));
  EXPECT_TRUE(SameRowMultiset(
      RunPlan(&op).rows, {{Value::Int(1), Value::Int(1), Value::Int(40)},
                      {Value::Int(1), Value::Int(2), Value::Int(20)}}));
}

TEST(GApplyTest, PgqCountersTrackExecutions) {
  Rng rng(5);
  auto table =
      MakeTable("t", GroupedSchema(), RandomGroupedRows(&rng, 50, 9));
  auto outer = std::make_unique<TableScanOp>(table.get());
  const Schema group_schema = outer->output_schema();
  GApplyOp op(std::move(outer), {0}, "g", AggPgq(group_schema, "g"));
  ExecContext ctx;
  ASSERT_TRUE(ExecuteToVector(&op, &ctx).ok());
  EXPECT_EQ(ctx.counters().pgq_executions, 9u);
  EXPECT_EQ(ctx.counters().group_rows_scanned, 50u);
}

// Nested GApply: outer groups by a, inner GApply (inside the PGQ) groups the
// group by b. Exercises binding-stack shadowing with distinct names.
TEST(GApplyTest, NestedGApplyInsidePgq) {
  Schema s({{"a", TypeId::kInt64, "t"},
            {"b", TypeId::kInt64, "t"},
            {"v", TypeId::kInt64, "t"}});
  auto table = MakeTable(
      "t", s,
      {{Value::Int(1), Value::Int(1), Value::Int(1)},
       {Value::Int(1), Value::Int(1), Value::Int(2)},
       {Value::Int(1), Value::Int(2), Value::Int(3)},
       {Value::Int(2), Value::Int(1), Value::Int(4)}});
  auto outer = std::make_unique<TableScanOp>(table.get());
  const Schema group_schema = outer->output_schema();

  // Inner PGQ (for inner GApply over $h): sum(v).
  auto inner_scan = std::make_unique<GroupScanOp>("h", group_schema);
  std::vector<AggregateDesc> inner_aggs;
  inner_aggs.push_back(Sum(Col(group_schema, "v"), "s"));
  auto inner_pgq = std::make_unique<ScalarAggOp>(std::move(inner_scan),
                                                 std::move(inner_aggs));
  // Outer PGQ: GApply over the group, grouping by b (column 1).
  auto outer_pgq = std::make_unique<GApplyOp>(
      std::make_unique<GroupScanOp>("g", group_schema), std::vector<int>{1},
      "h", std::move(inner_pgq));

  GApplyOp op(std::move(outer), {0}, "g", std::move(outer_pgq));
  // Output: a, b, s.
  EXPECT_TRUE(SameRowMultiset(
      RunPlan(&op).rows, {{Value::Int(1), Value::Int(1), Value::Int(3)},
                      {Value::Int(1), Value::Int(2), Value::Int(3)},
                      {Value::Int(2), Value::Int(1), Value::Int(4)}}));
}

// ---------------------------------------------------------------------------
// Many small groups: the per-group-overhead extreme (Fig. 8 Q4's ~2 rows per
// group), large enough that the hash-mode gid table doubles many times.
// ---------------------------------------------------------------------------

// Schema (a, b, seq): a two-column key with NULLs in either column, and
// `seq` = the row's position in the input, so output order is checkable.
Schema SmallGroupSchema() {
  return Schema({{"a", TypeId::kInt64, "t"},
                 {"b", TypeId::kString, "t"},
                 {"seq", TypeId::kInt64, "t"}});
}

// `num_groups` distinct (a, b) keys of 1–3 rows each, shuffled. Some keys
// have a NULL a, some a NULL b, one both; every key is distinct under
// grouping equality (NULL == NULL).
std::vector<Row> ManySmallGroupsRows(Rng* rng, int num_groups) {
  std::vector<Row> rows;
  for (int i = 0; i < num_groups; ++i) {
    Value a = Value::Int(i / 2);
    Value b = Value::Str(i % 2 == 0 ? "x" : "y");
    if (i == 1) {
      a = Value::Null();
      b = Value::Null();
    } else if (i % 7 == 0) {
      a = Value::Null();
      b = Value::Str("n" + std::to_string(i));
    } else if (i % 11 == 0) {
      a = Value::Int(-1 - i);
      b = Value::Null();
    }
    const int64_t copies = rng->UniformInt(1, 3);
    for (int64_t c = 0; c < copies; ++c) rows.push_back({a, b, Value::Null()});
  }
  for (size_t i = rows.size(); i > 1; --i) {
    const size_t j =
        static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(i) - 1));
    std::swap(rows[i - 1], rows[j]);
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i][2] = Value::Int(static_cast<int64_t>(i));
  }
  return rows;
}

QueryResult RunPlanWithBatchSize(PhysOp* root, size_t batch_size) {
  ExecContext ctx;
  ctx.set_batch_size(batch_size);
  Result<QueryResult> r = ExecuteToVector(root, &ctx);
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.status().ToString());
  return r.ok() ? std::move(r).value() : QueryResult{};
}

TEST(GApplyTest, ManySmallGroupsMatchReferenceInBothModes) {
  Rng rng(2024);
  auto table =
      MakeTable("t", SmallGroupSchema(), ManySmallGroupsRows(&rng, 6000));
  const Schema gs = table->schema();
  const std::vector<Row> expected = ReferenceGApply(
      table->rows(), {0, 1}, [](const std::vector<Row>& group) {
        int64_t sum = 0;
        for (const Row& r : group) sum += r[2].int_val();
        return std::vector<Row>{
            {Value::Int(static_cast<int64_t>(group.size())),
             Value::Int(sum)}};
      });
  ASSERT_GE(expected.size(), 5000u);

  for (PartitionMode mode : {PartitionMode::kSort, PartitionMode::kHash}) {
    std::vector<AggregateDesc> aggs;
    aggs.push_back(CountStar("cnt"));
    aggs.push_back(Sum(Col(gs, "seq"), "sum_seq"));
    auto pgq = std::make_unique<ScalarAggOp>(
        std::make_unique<GroupScanOp>("g", gs), std::move(aggs));
    GApplyOp op(std::make_unique<TableScanOp>(table.get()), {0, 1}, "g",
                std::move(pgq), mode);
    ExecContext ctx;
    Result<QueryResult> r = ExecuteToVector(&op, &ctx);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(SameRowMultiset(r->rows, expected))
        << "mode=" << PartitionModeName(mode);
    if (mode == PartitionMode::kHash) {
      // Hash mode emits groups in first-appearance order: exactly the
      // reference's sequence.
      EXPECT_TRUE(SameRowSequence(r->rows, expected));
    }
    EXPECT_EQ(ctx.counters().pgq_executions, expected.size());
    EXPECT_EQ(ctx.counters().group_rows_scanned, table->num_rows());
  }
}

TEST(GApplyTest, PartitionKeepsGroupOrderAndInputOrderWithinGroups) {
  Rng rng(77);
  auto table =
      MakeTable("t", SmallGroupSchema(), ManySmallGroupsRows(&rng, 5000));
  const Schema gs = table->schema();
  // Identity PGQ: the output is every group's member rows, key-prefixed.
  const std::vector<Row> identity = ReferenceGApply(
      table->rows(), {0, 1}, [](const std::vector<Row>& g) { return g; });

  for (size_t batch_size : {size_t{1}, size_t{7}, size_t{1024}}) {
    GApplyOp hash(std::make_unique<TableScanOp>(table.get()), {0, 1}, "g",
                  std::make_unique<GroupScanOp>("g", gs),
                  PartitionMode::kHash);
    const QueryResult h = RunPlanWithBatchSize(&hash, batch_size);
    EXPECT_TRUE(SameRowSequence(h.rows, identity))
        << "hash mode, batch size " << batch_size;
    // Spelled out: each group's first row appears later in the input than
    // the previous group's, and rows within a group keep input order.
    int64_t last_first_seq = -1;
    for (size_t i = 0; i < h.rows.size(); ++i) {
      const int64_t seq = h.rows[i][4].int_val();
      const bool starts_group =
          i == 0 || !h.rows[i][0].Equals(h.rows[i - 1][0]) ||
          !h.rows[i][1].Equals(h.rows[i - 1][1]);
      if (starts_group) {
        EXPECT_GT(seq, last_first_seq) << "row " << i;
        last_first_seq = seq;
      } else {
        EXPECT_GT(seq, h.rows[i - 1][4].int_val()) << "row " << i;
      }
    }

    GApplyOp sort(std::make_unique<TableScanOp>(table.get()), {0, 1}, "g",
                  std::make_unique<GroupScanOp>("g", gs),
                  PartitionMode::kSort);
    const QueryResult s = RunPlanWithBatchSize(&sort, batch_size);
    ASSERT_EQ(s.rows.size(), identity.size());
    EXPECT_TRUE(SameRowMultiset(s.rows, identity));
    // Sort mode emits groups in key order; its stable sort keeps input
    // order within each group.
    for (size_t i = 1; i < s.rows.size(); ++i) {
      const Row& prev = s.rows[i - 1];
      const Row& cur = s.rows[i];
      int cmp = CompareForSort(prev[0], cur[0]);
      if (cmp == 0) cmp = CompareForSort(prev[1], cur[1]);
      EXPECT_LE(cmp, 0) << "row " << i;
      if (cmp == 0) {
        EXPECT_LT(prev[4].int_val(), cur[4].int_val()) << "row " << i;
      }
    }
  }
}

// A budget refusal that arrives mid-partition, after thousands of groups
// are already buffered: the buffered rows are flushed in arrival order and
// the spilled run emits exactly the unlimited run's rows, in its order.
TEST(GApplyTest, MidPartitionSpillMatchesUnlimitedBitForBit) {
  Rng rng(99);
  auto table =
      MakeTable("t", SmallGroupSchema(), ManySmallGroupsRows(&rng, 6000));
  const Schema gs = table->schema();
  size_t total_bytes = 0;
  for (const Row& r : table->rows()) total_bytes += ApproxRowBytes(r);

  const auto make_op = [&] {
    return std::make_unique<GApplyOp>(
        std::make_unique<TableScanOp>(table.get()), std::vector<int>{0, 1},
        "g", std::make_unique<GroupScanOp>("g", gs), PartitionMode::kHash);
  };
  auto unlimited_op = make_op();
  const QueryResult unlimited = RunPlan(unlimited_op.get());
  ASSERT_EQ(unlimited.rows.size(), table->num_rows());

  // 40% of the members fit: the first refusal comes after ~2,400 groups.
  // A budget of a few rows also overflows the reloaded spill partitions, so
  // phase 2 repartitions them (more files than the first level's 8).
  for (const bool tiny : {false, true}) {
    const size_t budget = tiny ? total_bytes / 2000 : total_bytes * 2 / 5;
    MemoryTracker tracker(budget);
    SpillManager spill("gapply_test");
    ExecContext ctx;
    ctx.set_memory(&tracker);
    ctx.set_spill(&spill);
    auto op = make_op();
    Result<QueryResult> spilled = ExecuteToVector(op.get(), &ctx);
    ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
    EXPECT_GT(ctx.counters().spill_bytes, 0u) << "budget " << budget;
    if (tiny) {
      EXPECT_GT(ctx.counters().spill_partitions, 8u) << "no repartition";
    }
    EXPECT_TRUE(SameRowSequence(unlimited.rows, spilled->rows))
        << "budget " << budget;
    EXPECT_EQ(tracker.used(), 0u) << "reservation leaked";
  }
}

// ---------------------------------------------------------------------------
// Property tests: GApply(sort) == GApply(hash) == reference, over random
// data, for three PGQ shapes.
// ---------------------------------------------------------------------------

class GApplyPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(GApplyPropertyTest, AggPgqMatchesReference) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const int num_rows = static_cast<int>(rng.UniformInt(0, 300));
  const int num_keys = static_cast<int>(rng.UniformInt(1, 20));
  auto rows = RandomGroupedRows(&rng, num_rows, num_keys, 0.15);
  auto table = MakeTable("t", GroupedSchema(), rows);
  const Schema gs = table->schema();

  const std::vector<Row> expected = ReferenceGApply(
      table->rows(), {0}, [&](const std::vector<Row>& group) {
        int64_t cnt = 0, sum = 0;
        bool any = false;
        double dsum = 0;
        for (const Row& r : group) {
          ++cnt;
          if (!r[1].is_null()) {
            sum += r[1].int_val();
            any = true;
          }
          dsum += r[2].double_val();
        }
        Row out{Value::Int(cnt), any ? Value::Int(sum) : Value::Null(),
                Value::Double(dsum / static_cast<double>(group.size()))};
        return std::vector<Row>{out};
      });

  for (PartitionMode mode : {PartitionMode::kSort, PartitionMode::kHash}) {
    GApplyOp op(std::make_unique<TableScanOp>(table.get()), {0}, "g",
                AggPgq(gs, "g"), mode);
    QueryResult r = RunPlan(&op);
    EXPECT_TRUE(SameRowMultiset(r.rows, expected))
        << "mode=" << PartitionModeName(mode) << " rows=" << num_rows
        << " keys=" << num_keys;
  }
}

TEST_P(GApplyPropertyTest, FilteredIdentityPgqMatchesReference) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919);
  const int num_rows = static_cast<int>(rng.UniformInt(0, 300));
  const int num_keys = static_cast<int>(rng.UniformInt(1, 15));
  const int64_t cutoff = rng.UniformInt(0, 100);
  auto rows = RandomGroupedRows(&rng, num_rows, num_keys, 0.1);
  auto table = MakeTable("t", GroupedSchema(), rows);
  const Schema gs = table->schema();

  const std::vector<Row> expected = ReferenceGApply(
      table->rows(), {0}, [&](const std::vector<Row>& group) {
        std::vector<Row> out;
        for (const Row& r : group) {
          if (!r[1].is_null() && r[1].int_val() > cutoff) out.push_back(r);
        }
        return out;
      });

  for (PartitionMode mode : {PartitionMode::kSort, PartitionMode::kHash}) {
    auto pgq = std::make_unique<FilterOp>(
        std::make_unique<GroupScanOp>("g", gs),
        Gt(Col(gs, "v"), Lit(cutoff)));
    GApplyOp op(std::make_unique<TableScanOp>(table.get()), {0}, "g",
                std::move(pgq), mode);
    EXPECT_TRUE(SameRowMultiset(RunPlan(&op).rows, expected))
        << "mode=" << PartitionModeName(mode);
  }
}

TEST_P(GApplyPropertyTest, CorrelatedSubqueryPgqMatchesReference) {
  // PGQ of paper query Q2 shape: count rows above the group average.
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729);
  const int num_rows = static_cast<int>(rng.UniformInt(1, 250));
  const int num_keys = static_cast<int>(rng.UniformInt(1, 12));
  auto rows = RandomGroupedRows(&rng, num_rows, num_keys);
  auto table = MakeTable("t", GroupedSchema(), rows);
  const Schema gs = table->schema();

  const std::vector<Row> expected = ReferenceGApply(
      table->rows(), {0}, [&](const std::vector<Row>& group) {
        double sum = 0;
        for (const Row& r : group) sum += r[2].double_val();
        const double avg = sum / static_cast<double>(group.size());
        int64_t above = 0;
        for (const Row& r : group) {
          if (r[2].double_val() >= avg) ++above;
        }
        return std::vector<Row>{{Value::Int(above)}};
      });

  for (PartitionMode mode : {PartitionMode::kSort, PartitionMode::kHash}) {
    // PGQ: ScalarAgg(count(*)) over Filter(d >= (ScalarAgg(avg d) of the
    // group)). The scalar subquery is modeled with Apply: the Apply's outer
    // is the group scan, the inner is the avg; a filter over the combined
    // row compares, and a final count aggregates.
    auto group_scan = std::make_unique<GroupScanOp>("g", gs);
    std::vector<AggregateDesc> avg_aggs;
    avg_aggs.push_back(Avg(Col(gs, "d"), "avg_d"));
    auto avg_plan = std::make_unique<ScalarAggOp>(
        std::make_unique<GroupScanOp>("g", gs), std::move(avg_aggs));
    auto apply = std::make_unique<ApplyOp>(std::move(group_scan),
                                           std::move(avg_plan));
    const Schema applied = apply->output_schema();  // k, v, d, avg_d
    auto filtered = std::make_unique<FilterOp>(
        std::move(apply), Ge(Col(applied, "d"), Col(applied, "avg_d")));
    std::vector<AggregateDesc> cnt;
    cnt.push_back(CountStar("above"));
    auto pgq =
        std::make_unique<ScalarAggOp>(std::move(filtered), std::move(cnt));

    GApplyOp op(std::make_unique<TableScanOp>(table.get()), {0}, "g",
                std::move(pgq), mode);
    EXPECT_TRUE(SameRowMultiset(RunPlan(&op).rows, expected))
        << "mode=" << PartitionModeName(mode);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GApplyPropertyTest,
                         ::testing::Range(1, 13));

}  // namespace
}  // namespace gapply
