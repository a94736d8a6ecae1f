#ifndef GAPPLY_FUZZ_EXPR_ORACLE_H_
#define GAPPLY_FUZZ_EXPR_ORACLE_H_

#include <string>

#include "src/plan/logical_plan.h"
#include "src/storage/catalog.h"

namespace gapply::fuzz {

/// The expression-engine oracle (DESIGN.md §14): the bytecode VM must match
/// the tree interpreter bit for bit, values and error text alike.
///
/// Walks `plan`, GApply per-group queries and Apply inners included, and
/// takes every Select predicate and Project expression after
/// FoldConstants, as lowering does. Each one the compiler accepts runs
/// through ExprProgram and through Expr::EvalBatch / EvalPredicateBatch at
/// batch sizes 1, 3 and 1024 over the same input rows. An input column
/// whose name and type match a base column of `catalog` reads that
/// column's rows (fuzz datasets keep column names globally unique); other
/// columns, and the outer rows correlated references read, get random
/// values of their static type, about 15% of them NULL. Deterministic for
/// a given plan and catalog.
///
/// Returns an empty string when the engines agree everywhere, otherwise a
/// description of the first disagreement.
std::string CheckExprEngines(const LogicalOp& plan, const Catalog& catalog);

}  // namespace gapply::fuzz

#endif  // GAPPLY_FUZZ_EXPR_ORACLE_H_
