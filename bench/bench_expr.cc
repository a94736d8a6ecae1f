// Expression-engine sweep (DESIGN.md §14): register bytecode
// (ExprProgram) vs. the tree-walking interpreter (Expr::EvalBatch /
// EvalPredicateBatch) evaluating the same expressions over the same
// pre-scanned batches, three expression classes at batch sizes
// {1, 256, 1024}:
//
//   1. arith_heavy — two deep arithmetic trees (the interpreter's general
//      batch path materializes a std::vector<Value> per operator node; the
//      VM runs each operator over a dense register instead)
//   2. pred_heavy  — a comparison/Kleene-logic predicate
//   3. string_pred — a predicate over string comparisons
//
// Only expression evaluation is timed: no scan, no operator, no row
// materialization. Every bytecode result is validated bit-for-bit against
// the interpreter's. Results go to stdout and BENCH_expr.json (with one
// operator profile of the arith_heavy Project); the headline criterion is
// arith_heavy at batch 1024 >= 1.3x over the interpreter, enforced outside
// smoke mode.

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/exec/filter_project_ops.h"
#include "src/exec/scan_ops.h"
#include "src/expr/bytecode.h"
#include "src/expr/expr.h"

namespace gapply::bench {
namespace {

constexpr size_t kBatchSizes[] = {1, 256, 1024};
constexpr double kArithCriterion = 1.3;

struct JsonRecord {
  std::string workload;
  std::string engine;
  size_t batch_size = 0;
  size_t rows = 0;
  double ms = 0;
  double speedup_vs_interpret = 0;
};

std::vector<JsonRecord> g_records;
bool g_criterion_met = true;

/// One workload: expressions over a table's schema, evaluated either as
/// values (projections) or as WHERE predicates (keep flags).
struct Workload {
  std::string name;
  std::vector<ExprPtr> exprs;
  bool predicate = false;
};

/// The table's rows cut into batches of `batch_size`, once per sweep
/// point, outside the timed region.
std::vector<RowBatch> ScanBatches(const Table& table, size_t batch_size) {
  std::vector<RowBatch> batches;
  for (size_t begin = 0; begin < table.num_rows(); begin += batch_size) {
    RowBatch batch(batch_size);
    for (size_t i = begin; i < table.num_rows() && !batch.full(); ++i) {
      batch.AddCopy(table.rows()[i]);
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

void Check(const Status& st) {
  if (st.ok()) return;
  std::fprintf(stderr, "bench evaluation failed: %s\n", st.ToString().c_str());
  std::exit(1);
}

/// Everything one engine produced over a sweep point, for validation.
struct Results {
  std::vector<std::vector<Value>> values;  // projections: per expression
  std::vector<char> keep;                  // predicates
};

bool SameResults(const Results& a, const Results& b) {
  if (a.keep != b.keep || a.values.size() != b.values.size()) return false;
  for (size_t e = 0; e < a.values.size(); ++e) {
    if (a.values[e].size() != b.values[e].size()) return false;
    for (size_t i = 0; i < a.values[e].size(); ++i) {
      if (a.values[e][i].type() != b.values[e][i].type() ||
          !a.values[e][i].Equals(b.values[e][i])) {
        return false;
      }
    }
  }
  return true;
}

/// Evaluates every expression of `w` over every batch with one engine:
/// `programs` when non-null, the interpreter otherwise. Returns the rows
/// produced (every row for projections, passing rows for predicates) and,
/// when `collect` is non-null, appends the results there.
size_t EvalAll(const Workload& w,
               const std::vector<std::unique_ptr<ExprProgram>>* programs,
               const std::vector<RowBatch>& batches, Results* collect) {
  const EvalContext ctx;
  std::vector<Value> values;
  std::vector<char> keep;
  size_t rows = 0;
  if (collect != nullptr && !w.predicate) {
    collect->values.resize(w.exprs.size());
  }
  for (const RowBatch& batch : batches) {
    for (size_t e = 0; e < w.exprs.size(); ++e) {
      const Expr& expr = *w.exprs[e];
      if (w.predicate) {
        Check(programs != nullptr
                  ? (*programs)[e]->EvalPredicateBatch(batch, ctx, &keep)
                  : EvalPredicateBatch(expr, batch, ctx, &keep));
        for (const char k : keep) rows += k != 0 ? 1 : 0;
        if (collect != nullptr) {
          collect->keep.insert(collect->keep.end(), keep.begin(), keep.end());
        }
      } else {
        Check(programs != nullptr
                  ? (*programs)[e]->EvalBatch(batch, ctx, &values)
                  : expr.EvalBatch(batch, ctx, &values));
        if (collect != nullptr) {
          collect->values[e].insert(collect->values[e].end(), values.begin(),
                                    values.end());
        }
      }
    }
    if (!w.predicate) rows += batch.size();
  }
  return rows;
}

/// Best of `reps` timed passes after one warmup.
double TimeMs(const std::function<void()>& pass, int reps) {
  double best = 1e300;
  for (int i = 0; i <= reps; ++i) {
    const auto start = std::chrono::steady_clock::now();
    pass();
    const auto end = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    if (i > 0 && ms < best) best = ms;  // skip warmup
  }
  return best;
}

void RunSweep(const Table& table, const Workload& w, int reps) {
  std::printf("%s:\n", w.name.c_str());
  std::vector<std::unique_ptr<ExprProgram>> programs;
  for (const ExprPtr& e : w.exprs) {
    Result<std::unique_ptr<ExprProgram>> p =
        w.predicate ? ExprProgram::CompilePredicate(*e)
                    : ExprProgram::Compile(*e);
    if (!p.ok()) {
      std::fprintf(stderr, "BENCH INVALID: %s does not compile: %s\n",
                   w.name.c_str(), p.status().ToString().c_str());
      std::exit(1);
    }
    programs.push_back(std::move(*p));
  }
  for (size_t bs : kBatchSizes) {
    const std::vector<RowBatch> batches = ScanBatches(table, bs);
    Results interp_results;
    Results bytecode_results;
    const size_t interp_rows =
        EvalAll(w, nullptr, batches, &interp_results);
    const size_t bytecode_rows =
        EvalAll(w, &programs, batches, &bytecode_results);
    if (interp_rows != bytecode_rows ||
        !SameResults(interp_results, bytecode_results)) {
      std::fprintf(stderr,
                   "BENCH INVALID: %s batch_size=%zu: bytecode diverges "
                   "from the interpreter (%zu vs %zu rows)\n",
                   w.name.c_str(), bs, bytecode_rows, interp_rows);
      std::exit(1);
    }
    const double interp_ms =
        TimeMs([&] { EvalAll(w, nullptr, batches, nullptr); }, reps);
    const double bytecode_ms =
        TimeMs([&] { EvalAll(w, &programs, batches, nullptr); }, reps);
    const double speedup = interp_ms / bytecode_ms;
    g_records.push_back({w.name, "interpret", bs, interp_rows, interp_ms, 1.0});
    g_records.push_back(
        {w.name, "bytecode", bs, bytecode_rows, bytecode_ms, speedup});
    std::printf(
        "  batch %-5zu interpret %9.3f ms   bytecode %9.3f ms   "
        "speedup %5.2fx\n",
        bs, interp_ms, bytecode_ms, speedup);
    if (w.name == "arith_heavy" && bs == 1024 && speedup < kArithCriterion) {
      std::fprintf(stderr,
                   "CRITERION MISSED: arith_heavy at batch 1024 is %.2fx, "
                   "required >= %.2fx\n",
                   speedup, kArithCriterion);
      g_criterion_met = false;
    }
  }
  std::printf("\n");
}

std::unique_ptr<Table> MakeNumericTable(size_t rows) {
  Schema schema({{"k", TypeId::kInt64, "t"},
                 {"v", TypeId::kInt64, "t"},
                 {"d", TypeId::kDouble, "t"}});
  auto table = std::make_unique<Table>("t", schema);
  Rng rng(321);
  for (size_t i = 0; i < rows; ++i) {
    Status st = table->Append({Value::Int(static_cast<int64_t>(i % 1000)),
                               Value::Int(rng.UniformInt(1, 1000)),
                               Value::Double(rng.UniformDouble(0, 100))});
    if (!st.ok()) std::exit(1);
  }
  return table;
}

std::unique_ptr<Table> MakeStringTable(size_t rows) {
  Schema schema(
      {{"id", TypeId::kInt64, "t"}, {"name", TypeId::kString, "t"}});
  auto table = std::make_unique<Table>("t", schema);
  Rng rng(654);
  const char* stems[] = {"almond", "birch",  "cedar", "fir",
                         "maple",  "poplar", "spruce", "willow"};
  for (size_t i = 0; i < rows; ++i) {
    Status st = table->Append(
        {Value::Int(static_cast<int64_t>(i)),
         Value::Str(std::string(stems[rng.UniformInt(0, 7)]) + "_" +
                    std::to_string(rng.UniformInt(0, 99)))});
    if (!st.ok()) std::exit(1);
  }
  return table;
}

// Two deep arithmetic trees: ~10 operator nodes per row on the
// interpreter, each allocating an intermediate Value vector on the general
// batch path.
Workload ArithHeavy(const Schema& s) {
  auto node = [](BinaryOp op, ExprPtr l, ExprPtr r) {
    return Binary(op, std::move(l), std::move(r));
  };
  Workload w{"arith_heavy", {}, false};
  // ((v + 7) * 3 - k) * (v - 2) + v / 3
  w.exprs.push_back(node(
      BinaryOp::kAdd,
      node(BinaryOp::kMultiply,
           node(BinaryOp::kSubtract,
                node(BinaryOp::kMultiply,
                     node(BinaryOp::kAdd, Col(s, "v"), Lit(int64_t{7})),
                     Lit(int64_t{3})),
                Col(s, "k")),
           node(BinaryOp::kSubtract, Col(s, "v"), Lit(int64_t{2}))),
      node(BinaryOp::kDivide, Col(s, "v"), Lit(int64_t{3}))));
  // (d * 0.5 + d) * (d - 1.0)
  w.exprs.push_back(
      node(BinaryOp::kMultiply,
           node(BinaryOp::kAdd,
                node(BinaryOp::kMultiply, Col(s, "d"), Lit(0.5)),
                Col(s, "d")),
           node(BinaryOp::kSubtract, Col(s, "d"), Lit(1.0))));
  return w;
}

// (v > 250 and v < 900) or k = 5 or (d >= 10.0 and not (v = 400)).
Workload PredHeavy(const Schema& s) {
  Workload w{"pred_heavy", {}, true};
  w.exprs.push_back(
      Or(Or(And(Gt(Col(s, "v"), Lit(int64_t{250})),
                Lt(Col(s, "v"), Lit(int64_t{900}))),
            Eq(Col(s, "k"), Lit(int64_t{5}))),
         And(Ge(Col(s, "d"), Lit(10.0)),
             Unary(UnaryOp::kNot, Eq(Col(s, "v"), Lit(int64_t{400}))))));
  return w;
}

// 'f' <= name < 't' and name != "maple_7".
Workload StringPred(const Schema& s) {
  Workload w{"string_pred", {}, true};
  w.exprs.push_back(
      And(And(Ge(Col(s, "name"), Lit("f")), Lt(Col(s, "name"), Lit("t"))),
          Binary(BinaryOp::kNe, Col(s, "name"), Lit("maple_7"))));
  return w;
}

void WriteJson(int reps) {
  FILE* f = std::fopen("BENCH_expr.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_expr.json\n");
    std::exit(1);
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"expr\",\n"
               "  \"reps\": %d,\n"
               "  \"hardware_concurrency\": %zu,\n"
               "  \"criterion_arith_heavy_1024_ge_1.3x\": %s,\n"
               "  \"results\": [\n",
               reps, ThreadPool::DefaultParallelism(),
               g_criterion_met ? "true" : "false");
  for (size_t i = 0; i < g_records.size(); ++i) {
    const JsonRecord& r = g_records[i];
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"engine\": \"%s\", "
                 "\"batch_size\": %zu, \"rows\": %zu, \"ms\": %.4f, "
                 "\"speedup_vs_interpret\": %.4f}%s\n",
                 r.workload.c_str(), r.engine.c_str(), r.batch_size, r.rows,
                 r.ms, r.speedup_vs_interpret,
                 i + 1 == g_records.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n%s\n}\n", ProfilesJsonMember().c_str());
  std::fclose(f);
  std::printf("wrote BENCH_expr.json (%zu records)\n", g_records.size());
}

void Run() {
  const int reps = Reps();
  const size_t numeric_rows = SmokeMode() ? 20000 : 200000;
  const size_t string_rows = SmokeMode() ? 10000 : 100000;
  std::printf("Expression-engine sweep (reps=%d, rows=%zu)\n\n", reps,
              numeric_rows);

  auto numeric = MakeNumericTable(numeric_rows);
  RunSweep(*numeric, ArithHeavy(numeric->schema()), reps);
  RunSweep(*numeric, PredHeavy(numeric->schema()), reps);
  auto strings = MakeStringTable(string_rows);
  RunSweep(*strings, StringPred(strings->schema()), reps);

  // One operator profile, so the JSON records the Project's expr_engine
  // annotation end to end.
  {
    Workload arith = ArithHeavy(numeric->schema());
    Result<PhysOpPtr> op =
        ProjectOp::Make(std::make_unique<TableScanOp>(numeric.get()),
                        std::move(arith.exprs), {"i", "x"});
    if (!op.ok()) std::exit(1);
    ExecContext ctx;
    ctx.set_batch_size(1024);
    RecordPhysProfile(op->get(), &ctx, "arith_heavy_bytecode_b1024");
  }

  WriteJson(reps);
  if (!g_criterion_met && !SmokeMode()) std::exit(1);
}

}  // namespace
}  // namespace gapply::bench

int main() {
  gapply::bench::Run();
  return 0;
}
