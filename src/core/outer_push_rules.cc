#include <set>

#include "src/core/analyses.h"
#include "src/core/rules.h"

namespace gapply::core {

namespace {

// True if `op` (or a chain of selects below it) contains a Select whose
// predicate matches `pred`. Used to keep SelectionBeforeGApply from
// re-inserting the same covering-range selection forever. Matching is by
// rendered form, not structural equality: classic pushdown remaps column
// *indexes* when the selection moves below a join, but column names (and
// hence the rendering) survive.
bool HasEquivalentSelectBelow(const LogicalOp& op, const Expr& pred) {
  const std::string pred_text = pred.ToString();
  const LogicalOp* cur = &op;
  while (true) {
    if (cur->type() == LogicalOpType::kSelect) {
      const auto& sel = static_cast<const LogicalSelect&>(*cur);
      // Substring containment also covers the case where MergeSelects
      // folded the pushed range into a larger conjunction.
      if (sel.predicate().StructurallyEquals(pred) ||
          sel.predicate().ToString().find(pred_text) != std::string::npos) {
        return true;
      }
      cur = cur->child(0);
      continue;
    }
    if (cur->type() == LogicalOpType::kProject ||
        cur->type() == LogicalOpType::kDistinct ||
        cur->type() == LogicalOpType::kOrderBy) {
      cur = cur->child(0);
      continue;
    }
    if (cur->type() == LogicalOpType::kJoin) {
      // The pushed selection may have moved into either join input.
      return HasEquivalentSelectBelow(*cur->child(0), pred) ||
             HasEquivalentSelectBelow(*cur->child(1), pred);
    }
    return false;
  }
}

// Removes selects directly above GroupScan($var) whose predicate
// structurally equals `range` (the "any selection ... logically equivalent
// to the covering range of the root can then be eliminated" step). Returns
// true if anything was removed.
bool EliminateRangeSelects(LogicalOpPtr* node, const std::string& var,
                           const Expr& range) {
  bool changed = false;
  LogicalOp* op = node->get();
  if (op->type() == LogicalOpType::kSelect) {
    auto* sel = static_cast<LogicalSelect*>(op);
    if (sel->child(0)->type() == LogicalOpType::kGroupScan) {
      const auto* scan =
          static_cast<const LogicalGroupScan*>(sel->child(0));
      if (scan->var() == var && sel->predicate().StructurallyEquals(range)) {
        *node = sel->TakeChild(0);
        return true;
      }
    }
  }
  // Recurse into children and (for GApply) not into nested PGQs — a nested
  // GApply re-binds a different group variable.
  op = node->get();
  for (size_t i = 0; i < op->num_children(); ++i) {
    LogicalOpPtr child = op->TakeChild(i);
    changed = EliminateRangeSelects(&child, var, range) || changed;
    op->SetChild(i, std::move(child));
  }
  return changed;
}

}  // namespace

Result<bool> ProjectionBeforeGApplyRule::Apply(LogicalOpPtr* node,
                                               OptimizerContext*) {
  if ((*node)->type() != LogicalOpType::kGApply) return false;
  auto* gapply = static_cast<LogicalGApply*>(node->get());

  const Schema& outer_schema = gapply->outer()->output_schema();
  const int width = static_cast<int>(outer_schema.num_columns());

  ASSIGN_OR_RETURN(PgqInfo info,
                   AnalyzePgq(*gapply->pgq(), gapply->var(), width));

  // Demand-driven: a column is needed if the PGQ evaluates it (§4.3's
  // gp-eval set), if it flows out of the PGQ's root, or if GApply groups on
  // it. Projections that only pass an unneeded column through are dropped
  // by RemapPgq below.
  std::set<int> needed = info.eval_columns;
  for (const std::set<int>& p : info.provenance) {
    needed.insert(p.begin(), p.end());
  }
  for (int g : gapply->grouping_columns()) needed.insert(g);
  if (static_cast<int>(needed.size()) >= width) return false;  // no pruning

  // Build the pruning projection (kept columns in original order) and the
  // old→new group-column mapping.
  std::vector<int> old_to_new(static_cast<size_t>(width), -1);
  std::vector<ExprPtr> exprs;
  std::vector<std::string> names;
  Schema pruned;
  int next = 0;
  for (int c = 0; c < width; ++c) {
    if (needed.count(c) == 0) continue;
    old_to_new[static_cast<size_t>(c)] = next++;
    exprs.push_back(Col(outer_schema, c));
    names.push_back(outer_schema.column(static_cast<size_t>(c)).name);
    pruned.AddColumn(outer_schema.column(static_cast<size_t>(c)));
  }

  // InvalidArgument means the PGQ cannot lose the columns here (a Distinct,
  // union branches dropping differently, a computed expression over a pruned
  // column): the rule stands down.
  Result<RemappedPgq> remapped_r =
      RemapPgq(*gapply->pgq(), gapply->var(), pruned, old_to_new,
               /*allow_dropping_passthrough=*/true);
  if (!remapped_r.ok()) {
    if (remapped_r.status().code() == StatusCode::kInvalidArgument) {
      return false;
    }
    return remapped_r.status();
  }
  RemappedPgq remapped = std::move(remapped_r).value();
  // The needed set covers every root output's sources, so the PGQ output
  // must be unchanged.
  for (int m : remapped.output_mapping) {
    if (m < 0) {
      return Status::Internal(
          "projection-before-GApply pruned a column that flows out of the "
          "per-group query");
    }
  }

  std::vector<int> new_gcols;
  for (int g : gapply->grouping_columns()) {
    new_gcols.push_back(old_to_new[static_cast<size_t>(g)]);
  }

  LogicalOpPtr pruned_outer = std::make_unique<LogicalProject>(
      gapply->TakeChild(0), std::move(exprs), std::move(names));
  *node = std::make_unique<LogicalGApply>(
      std::move(pruned_outer), std::move(new_gcols), gapply->var(),
      std::move(remapped.plan), gapply->mode());
  return true;
}

Result<bool> SelectionBeforeGApplyRule::Apply(LogicalOpPtr* node,
                                              OptimizerContext* ctx) {
  if ((*node)->type() != LogicalOpType::kGApply) return false;
  auto* gapply = static_cast<LogicalGApply*>(node->get());

  const int width =
      static_cast<int>(gapply->outer()->output_schema().num_columns());
  ASSIGN_OR_RETURN(PgqInfo info,
                   AnalyzePgq(*gapply->pgq(), gapply->var(), width));

  // Theorem 1 precondition: PGQ(φ) = φ. The unsafe escape hatch exists so
  // the fuzzer can inject this known-unsound rewrite and prove its oracles
  // catch it (OptimizerContext::unsafe_skip_rule_preconditions).
  const bool skip_preconditions =
      ctx != nullptr && ctx->unsafe_skip_rule_preconditions;
  if (!info.empty_on_empty && !skip_preconditions) return false;
  // TRUE range: nothing to push.
  if (info.covering_range == nullptr) return false;

  // The covering range is expressed over the group schema, which is exactly
  // the outer query's output schema.
  if (HasEquivalentSelectBelow(*gapply->outer(), *info.covering_range)) {
    return false;  // already pushed in an earlier pass
  }

  // Eliminate per-group selections the pushed range makes redundant.
  LogicalOpPtr pgq = gapply->TakePgq();
  EliminateRangeSelects(&pgq, gapply->var(), *info.covering_range);

  LogicalOpPtr filtered_outer = std::make_unique<LogicalSelect>(
      gapply->TakeChild(0), info.covering_range->Clone());
  *node = std::make_unique<LogicalGApply>(
      std::move(filtered_outer), gapply->grouping_columns(), gapply->var(),
      std::move(pgq), gapply->mode());
  return true;
}

}  // namespace gapply::core
