#include "src/fuzz/expr_oracle.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/expr/bytecode.h"
#include "src/expr/expr.h"
#include "src/storage/table.h"

namespace gapply::fuzz {

namespace {

constexpr size_t kBatchSizes[] = {1, 3, 1024};
constexpr double kNullFraction = 0.15;
/// Rows evaluated when no input column reads a non-empty base table.
constexpr size_t kMinRows = 16;
constexpr uint64_t kSeed = 0x6578707200ull;

/// One expression as lowering compiles it, with the schema of its input.
struct Site {
  ExprPtr expr;
  const Schema* input;
  bool predicate;
};

void CollectSites(const LogicalOp& op, std::vector<Site>* out) {
  if (op.type() == LogicalOpType::kSelect) {
    const auto& sel = static_cast<const LogicalSelect&>(op);
    out->push_back({FoldConstants(sel.predicate().Clone()),
                    &op.child(0)->output_schema(), true});
  } else if (op.type() == LogicalOpType::kProject) {
    for (const ExprPtr& e : static_cast<const LogicalProject&>(op).exprs()) {
      out->push_back(
          {FoldConstants(e->Clone()), &op.child(0)->output_schema(), false});
    }
  } else if (op.type() == LogicalOpType::kGApply) {
    CollectSites(*static_cast<const LogicalGApply&>(op).pgq(), out);
  }
  for (size_t i = 0; i < op.num_children(); ++i) {
    CollectSites(*op.child(i), out);
  }
}

/// Where a base column's values live: column `index` of `table`.
struct BaseColumn {
  const Table* table;
  size_t index;
};

Value RandomValue(TypeId type, Rng* rng) {
  if (rng->Bernoulli(kNullFraction)) return Value::Null();
  switch (type) {
    case TypeId::kBool:
      return Value::Bool(rng->Bernoulli(0.5));
    case TypeId::kInt64:
      // A narrow range makes ties with literals and zero divisors common.
      return Value::Int(rng->UniformInt(-3, 12));
    case TypeId::kDouble:
      return Value::Double(static_cast<double>(rng->UniformInt(-30, 120)) /
                           10.0);
    case TypeId::kString: {
      static const char* const kWords[] = {"", "a", "ab", "b"};
      return Value::Str(kWords[rng->UniformInt(0, 3)]);
    }
    default:
      return Value::Null();
  }
}

/// Input rows for `schema`: base-column values where a column matches one
/// by name and type (cycling through shorter tables), random values
/// elsewhere.
std::vector<Row> InputRows(const Schema& schema,
                           const std::map<std::string, BaseColumn>& base,
                           Rng* rng) {
  std::vector<const BaseColumn*> source(schema.num_columns(), nullptr);
  size_t n = kMinRows;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    const Column& col = schema.column(c);
    const auto it = base.find(col.name);
    if (it == base.end()) continue;
    const Table* table = it->second.table;
    if (table->num_rows() == 0 ||
        table->schema().column(it->second.index).type != col.type) {
      continue;
    }
    source[c] = &it->second;
    n = std::max(n, table->num_rows());
  }
  std::vector<Row> rows(n);
  for (size_t i = 0; i < n; ++i) {
    rows[i].reserve(schema.num_columns());
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      if (source[c] == nullptr) {
        rows[i].push_back(RandomValue(schema.column(c).type, rng));
        continue;
      }
      const std::vector<Row>& table_rows = source[c]->table->rows();
      rows[i].push_back(table_rows[i % table_rows.size()][source[c]->index]);
    }
  }
  return rows;
}

void CollectOuterRefs(const Expr& e,
                      std::vector<const CorrelatedColumnRefExpr*>* out) {
  switch (e.kind()) {
    case ExprKind::kCorrelatedColumnRef:
      out->push_back(static_cast<const CorrelatedColumnRefExpr*>(&e));
      break;
    case ExprKind::kUnary:
      CollectOuterRefs(static_cast<const UnaryExpr&>(e).child(), out);
      break;
    case ExprKind::kBinary:
      CollectOuterRefs(static_cast<const BinaryExpr&>(e).left(), out);
      CollectOuterRefs(static_cast<const BinaryExpr&>(e).right(), out);
      break;
    default:
      break;
  }
}

/// Draws a fresh outer-row stack into `*rows` and points `ctx` at it: each
/// referenced (depth, index) slot gets a random value of the reference's
/// type; unreferenced slots stay NULL.
void DrawOuterRows(const std::vector<const CorrelatedColumnRefExpr*>& refs,
                   Rng* rng, std::vector<Row>* rows, EvalContext* ctx) {
  size_t depths = 0;
  for (const CorrelatedColumnRefExpr* r : refs) {
    depths = std::max(depths, static_cast<size_t>(r->depth()) + 1);
  }
  rows->assign(depths, Row{});
  for (const CorrelatedColumnRefExpr* r : refs) {
    Row& row = (*rows)[depths - 1 - static_cast<size_t>(r->depth())];
    const size_t index = static_cast<size_t>(r->index());
    if (row.size() <= index) row.resize(index + 1);
    row[index] = RandomValue(r->type(), rng);
  }
  ctx->outer_rows.clear();
  for (const Row& row : *rows) ctx->outer_rows.push_back(&row);
}

/// Bit-for-bit agreement: same type and value (NaN matches NaN).
bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.type() == TypeId::kDouble && std::isnan(a.double_val()) &&
      std::isnan(b.double_val())) {
    return true;
  }
  return a.Equals(b);
}

std::string StatusText(const Status& st) {
  return st.ok() ? "ok" : st.ToString();
}

/// Runs one site through both engines over `rows` at every batch size;
/// returns the first disagreement, or "" when they agree (or the compiler
/// declines the expression, which the operators then interpret).
std::string CheckSite(const Site& site, const std::vector<Row>& rows,
                      Rng* rng) {
  Result<std::unique_ptr<ExprProgram>> compiled =
      site.predicate ? ExprProgram::CompilePredicate(*site.expr)
                     : ExprProgram::Compile(*site.expr);
  if (!compiled.ok()) return "";
  ExprProgram& program = **compiled;
  std::vector<const CorrelatedColumnRefExpr*> refs;
  CollectOuterRefs(*site.expr, &refs);

  std::vector<Row> outer;
  EvalContext ctx;
  RowBatch batch;
  std::vector<Value> want;
  std::vector<Value> got;
  std::vector<char> want_keep;
  std::vector<char> got_keep;
  for (const size_t batch_size : kBatchSizes) {
    for (size_t begin = 0; begin < rows.size(); begin += batch_size) {
      batch.Reset(batch_size);
      const size_t end = std::min(rows.size(), begin + batch_size);
      for (size_t i = begin; i < end; ++i) batch.AddCopy(rows[i]);
      DrawOuterRows(refs, rng, &outer, &ctx);

      Status want_st;
      Status got_st;
      if (site.predicate) {
        want_st = EvalPredicateBatch(*site.expr, batch, ctx, &want_keep);
        got_st = program.EvalPredicateBatch(batch, ctx, &got_keep);
      } else {
        want_st = site.expr->EvalBatch(batch, ctx, &want);
        got_st = program.EvalBatch(batch, ctx, &got);
      }

      std::string where = std::string(site.predicate ? "predicate "
                                                     : "expression ") +
                          site.expr->ToString() + " at batch size " +
                          std::to_string(batch_size);
      for (const Row& row : outer) where += ", outer row " + RowToString(row);
      if (!want_st.ok() || !got_st.ok()) {
        if (!want_st.ok() && !got_st.ok() &&
            want_st.ToString() == got_st.ToString()) {
          continue;  // both engines raise the same error
        }
        return where + ": interpret " + StatusText(want_st) + ", bytecode " +
               StatusText(got_st);
      }
      const size_t want_n = site.predicate ? want_keep.size() : want.size();
      const size_t got_n = site.predicate ? got_keep.size() : got.size();
      if (want_n != batch.size() || got_n != batch.size()) {
        return where + ": interpret produced " + std::to_string(want_n) +
               " results, bytecode " + std::to_string(got_n) + " for " +
               std::to_string(batch.size()) + " rows";
      }
      for (size_t i = 0; i < batch.size(); ++i) {
        if (site.predicate ? want_keep[i] == got_keep[i]
                           : SameValue(want[i], got[i])) {
          continue;
        }
        const std::string w = site.predicate
                                  ? (want_keep[i] ? "keep" : "reject")
                                  : want[i].ToString();
        const std::string g = site.predicate
                                  ? (got_keep[i] ? "keep" : "reject")
                                  : got[i].ToString();
        return where + ", input row " + RowToString(batch[i]) +
               ": interpret " + w + ", bytecode " + g;
      }
    }
  }
  return "";
}

}  // namespace

std::string CheckExprEngines(const LogicalOp& plan, const Catalog& catalog) {
  std::map<std::string, BaseColumn> base;
  for (const std::string& name : catalog.TableNames()) {
    const Table* table = catalog.FindTable(name);
    for (size_t c = 0; c < table->schema().num_columns(); ++c) {
      base.emplace(table->schema().column(c).name, BaseColumn{table, c});
    }
  }
  std::vector<Site> sites;
  CollectSites(plan, &sites);
  Rng rng(kSeed);
  for (const Site& site : sites) {
    const std::vector<Row> rows = InputRows(*site.input, base, &rng);
    std::string mismatch = CheckSite(site, rows, &rng);
    if (!mismatch.empty()) return mismatch;
  }
  return "";
}

}  // namespace gapply::fuzz
