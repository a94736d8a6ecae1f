// Reproduces the §5.2 in-text observation: "the impact of GApply is
// comparable whether we perform partitioning through sorting or through
// hashing."
//
// Runs the Figure-8 gapply queries with the partition mode forced each way
// and reports both times. Expect same-ballpark numbers, with sort paying
// O(n log n) and producing key-ordered output, hash paying O(n) with
// first-appearance order.
//
// Also sweeps rows per group (1, 2, 16, 1024) at a fixed total row count
// under the cheapest per-group query, `gapply(select count(*) from g)`, in
// both modes, and reports ns per group: the per-group constant (partition
// bookkeeping, binding, per-group query open/close) that decides whether
// GApply wins when groups are small (Fig. 8 Q4 has ~2 rows per group).

#include <memory>
#include <string>
#include <utility>

#include "bench/bench_util.h"

namespace gapply::bench {
namespace {

const char* kQueries[][2] = {
    {"Q1",
     "select gapply(select p_name, p_retailprice, null from g "
     "              union all "
     "              select null, null, avg(p_retailprice) from g) "
     "from partsupp, part where ps_partkey = p_partkey "
     "group by ps_suppkey : g"},
    {"Q2",
     "select gapply(select count(*), null from g "
     "              where p_retailprice >= "
     "                    (select avg(p_retailprice) from g) "
     "              union all "
     "              select null, count(*) from g "
     "              where p_retailprice < "
     "                    (select avg(p_retailprice) from g)) "
     "from partsupp, part where ps_partkey = p_partkey "
     "group by ps_suppkey : g"},
    {"Q4",
     "select gapply(select p_name, p_retailprice from g "
     "              where p_retailprice > "
     "                    (select avg(p_retailprice) from g)) "
     "from partsupp, part where ps_partkey = p_partkey "
     "group by ps_suppkey, p_size : g"},
};

// Registers t<rpg>(k, v): `total_rows` rows in groups of `rpg` rows, keys
// in order of first appearance.
void AddSweepTable(Database* db, size_t total_rows, size_t rpg) {
  auto table = std::make_unique<Table>(
      "t" + std::to_string(rpg),
      Schema({{"k", TypeId::kInt64, ""}, {"v", TypeId::kInt64, ""}}));
  for (size_t i = 0; i < total_rows; ++i) {
    Status st = table->Append({Value::Int(static_cast<int64_t>(i / rpg)),
                               Value::Int(static_cast<int64_t>(i))});
    if (!st.ok()) {
      std::fprintf(stderr, "append failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  }
  Status st = db->catalog()->AddTable(std::move(table));
  if (!st.ok()) {
    std::fprintf(stderr, "add table failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
}

void RunPerGroupSweep(Database* db) {
  const size_t total_rows = SmokeMode() ? 4096 : size_t{1} << 18;
  std::printf(
      "\nPer-group overhead: gapply(select count(*) from g) over %zu rows\n"
      "\n%-8s %8s %12s %12s %14s %14s\n",
      total_rows, "rows/grp", "groups", "sort (ms)", "hash (ms)",
      "sort (ns/grp)", "hash (ns/grp)");
  for (size_t rpg : {size_t{1}, size_t{2}, size_t{16}, size_t{1024}}) {
    AddSweepTable(db, total_rows, rpg);
    const std::string sql = "select gapply(select count(*) from g) from t" +
                            std::to_string(rpg) + " group by k : g";
    Result<LogicalOpPtr> plan = db->Plan(sql);
    if (!plan.ok()) {
      std::fprintf(stderr, "sweep bind failed: %s\n",
                   plan.status().ToString().c_str());
      std::exit(1);
    }
    const size_t groups = (total_rows + rpg - 1) / rpg;
    double ns_per_group[2] = {0, 0};
    double ms[2] = {0, 0};
    const PartitionMode modes[2] = {PartitionMode::kSort, PartitionMode::kHash};
    for (int m = 0; m < 2; ++m) {
      // Unoptimized: GApplyToGroupBy would otherwise turn this aggregate-only
      // per-group query into a plain GROUP BY.
      QueryOptions opt;
      opt.optimize = false;
      opt.lowering.force_partition_mode = modes[m];
      size_t rows = 0;
      ms[m] = TimePlanMs(db, **plan, opt, &rows);
      if (rows != groups) {
        std::fprintf(stderr, "BENCH INVALID: %zu rows/group gave %zu rows, "
                     "expected %zu\n", rpg, rows, groups);
        std::exit(1);
      }
      ns_per_group[m] = ms[m] * 1e6 / static_cast<double>(groups);
      RecordTiming("per_group_rpg" + std::to_string(rpg) + "_" +
                       PartitionModeName(modes[m]),
                   ms[m],
                   {{"rows_per_group", static_cast<double>(rpg)},
                    {"groups", static_cast<double>(groups)},
                    {"ns_per_group", ns_per_group[m]}});
    }
    std::printf("%-8zu %8zu %12.2f %12.2f %14.1f %14.1f\n", rpg, groups,
                ms[0], ms[1], ns_per_group[0], ns_per_group[1]);
  }
}

void Run() {
  const double sf = ScaleFactor(0.01);
  Database db;
  LoadDb(&db, sf);
  std::printf(
      "Partition-mode comparison (§5.2): sort vs hash partitioning "
      "(sf=%.4g)\n\n",
      sf);
  std::printf("%-6s %12s %12s %10s\n", "query", "sort (ms)", "hash (ms)",
              "sort/hash");
  for (const auto& q : kQueries) {
    Result<LogicalOpPtr> plan = db.Plan(q[1]);
    if (!plan.ok()) {
      std::fprintf(stderr, "%s bind failed: %s\n", q[0],
                   plan.status().ToString().c_str());
      std::exit(1);
    }
    size_t rows = 0;
    QueryOptions sort_opt;
    sort_opt.lowering.force_partition_mode = PartitionMode::kSort;
    QueryOptions hash_opt;
    hash_opt.lowering.force_partition_mode = PartitionMode::kHash;
    const double sort_ms = TimePlanMs(&db, **plan, sort_opt, &rows);
    const double hash_ms = TimePlanMs(&db, **plan, hash_opt, &rows);
    std::printf("%-6s %12.2f %12.2f %9.2fx\n", q[0], sort_ms, hash_ms,
                sort_ms / hash_ms);
    RecordTiming(std::string(q[0]) + "_sort", sort_ms);
    RecordTiming(std::string(q[0]) + "_hash", hash_ms);
    RecordPlanProfile(&db, **plan, sort_opt,
                      std::string(q[0]) + "_sort");
    RecordPlanProfile(&db, **plan, hash_opt,
                      std::string(q[0]) + "_hash");
  }
  std::printf(
      "\npaper: \"the impact of GApply is comparable whether we perform "
      "partitioning\nthrough sorting or through hashing\" — expect ratios "
      "near 1.\n");
  RunPerGroupSweep(&db);
  WriteBenchJson("partition_modes", sf, Reps());
}

}  // namespace
}  // namespace gapply::bench

int main() { gapply::bench::Run(); }
