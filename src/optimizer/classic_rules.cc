#include "src/optimizer/classic_rules.h"

#include <set>

#include "src/core/analyses.h"

namespace gapply {

namespace {

bool IsIdentityProject(const LogicalProject& project) {
  const Schema& in = project.child(0)->output_schema();
  const Schema& out = project.output_schema();
  if (out.num_columns() != in.num_columns()) return false;
  for (size_t i = 0; i < project.exprs().size(); ++i) {
    const Expr& e = *project.exprs()[i];
    if (e.kind() != ExprKind::kColumnRef ||
        static_cast<const ColumnRefExpr&>(e).index() != static_cast<int>(i)) {
      return false;
    }
    const Column& a = in.column(i);
    const Column& b = out.column(i);
    if (a.name != b.name || a.type != b.type || a.qualifier != b.qualifier) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<bool> MergeSelectsRule::Apply(LogicalOpPtr* node, OptimizerContext*) {
  if ((*node)->type() != LogicalOpType::kSelect) return false;
  auto* outer = static_cast<LogicalSelect*>(node->get());
  if (outer->child(0)->type() != LogicalOpType::kSelect) return false;
  auto* inner = static_cast<LogicalSelect*>(outer->child(0));

  ExprPtr combined =
      And(inner->predicate().Clone(), outer->predicate().Clone());
  LogicalOpPtr inner_owned = outer->TakeChild(0);
  LogicalOpPtr grandchild =
      static_cast<LogicalSelect*>(inner_owned.get())->TakeChild(0);
  *node = std::make_unique<LogicalSelect>(std::move(grandchild),
                                          std::move(combined));
  return true;
}

Result<bool> PushSelectBelowJoinRule::Apply(LogicalOpPtr* node,
                                            OptimizerContext*) {
  if ((*node)->type() != LogicalOpType::kSelect) return false;
  auto* select = static_cast<LogicalSelect*>(node->get());
  if (select->child(0)->type() != LogicalOpType::kJoin) return false;
  auto* join = static_cast<LogicalJoin*>(select->child(0));

  const int left_width =
      static_cast<int>(join->child(0)->output_schema().num_columns());
  const int total_width =
      static_cast<int>(join->output_schema().num_columns());

  std::set<int> used;
  select->predicate().CollectColumns(&used);
  if (used.empty()) return false;

  bool all_left = true;
  bool all_right = true;
  for (int c : used) {
    if (c >= left_width) all_left = false;
    if (c < left_width) all_right = false;
  }
  if (!all_left && !all_right) return false;

  ExprPtr pred;
  if (all_left) {
    pred = select->predicate().Clone();
  } else {
    std::vector<int> shift(static_cast<size_t>(total_width), -1);
    for (int c = left_width; c < total_width; ++c) {
      shift[static_cast<size_t>(c)] = c - left_width;
    }
    ASSIGN_OR_RETURN(pred,
                     core::RemapExprTree(select->predicate(), shift, {}));
  }

  LogicalOpPtr join_owned = select->TakeChild(0);
  auto* j = static_cast<LogicalJoin*>(join_owned.get());
  LogicalOpPtr left = j->TakeChild(0);
  LogicalOpPtr right = j->TakeChild(1);
  if (all_left) {
    left = std::make_unique<LogicalSelect>(std::move(left), std::move(pred));
  } else {
    right = std::make_unique<LogicalSelect>(std::move(right),
                                            std::move(pred));
  }
  *node = std::make_unique<LogicalJoin>(
      std::move(left), std::move(right), j->left_keys(), j->right_keys(),
      j->residual() == nullptr ? nullptr : j->residual()->Clone(),
      j->null_safe());
  return true;
}

Result<bool> PushSelectBelowProjectRule::Apply(LogicalOpPtr* node,
                                               OptimizerContext*) {
  if ((*node)->type() != LogicalOpType::kSelect) return false;
  auto* select = static_cast<LogicalSelect*>(node->get());
  if (select->child(0)->type() != LogicalOpType::kProject) return false;
  auto* project = static_cast<LogicalProject*>(select->child(0));

  // Map projection outputs back to input columns where they are pure refs.
  std::vector<int> back(project->exprs().size(), -1);
  for (size_t i = 0; i < project->exprs().size(); ++i) {
    const Expr& e = *project->exprs()[i];
    if (e.kind() == ExprKind::kColumnRef) {
      back[i] = static_cast<const ColumnRefExpr&>(e).index();
    }
  }
  Result<ExprPtr> pushed =
      core::RemapExprTree(select->predicate(), back, {});
  if (!pushed.ok()) return false;  // predicate touches a computed column

  LogicalOpPtr project_owned = select->TakeChild(0);
  auto* p = static_cast<LogicalProject*>(project_owned.get());
  LogicalOpPtr filtered = std::make_unique<LogicalSelect>(
      p->TakeChild(0), std::move(*pushed));
  std::vector<ExprPtr> exprs;
  for (const ExprPtr& e : p->exprs()) exprs.push_back(e->Clone());
  *node = std::make_unique<LogicalProject>(std::move(filtered),
                                           std::move(exprs), p->names());
  return true;
}

Result<bool> MergeProjectsRule::Apply(LogicalOpPtr* node, OptimizerContext*) {
  if ((*node)->type() != LogicalOpType::kProject) return false;
  auto* outer = static_cast<LogicalProject*>(node->get());
  if (IsIdentityProject(*outer)) {
    *node = outer->TakeChild(0);
    return true;
  }
  if (outer->child(0)->type() != LogicalOpType::kProject) return false;
  const auto* inner = static_cast<const LogicalProject*>(outer->child(0));

  std::vector<ExprPtr> exprs;
  std::vector<int> uses(inner->exprs().size(), 0);
  for (const ExprPtr& e : outer->exprs()) {
    if (e->kind() != ExprKind::kColumnRef) return false;
    const auto idx =
        static_cast<size_t>(static_cast<const ColumnRefExpr&>(*e).index());
    const Expr& src = *inner->exprs()[idx];
    if (++uses[idx] > 1 && src.kind() != ExprKind::kColumnRef &&
        src.kind() != ExprKind::kLiteral) {
      return false;  // would evaluate a computed expression twice
    }
    exprs.push_back(src.Clone());
  }
  LogicalOpPtr inner_owned = outer->TakeChild(0);
  *node = std::make_unique<LogicalProject>(inner_owned->TakeChild(0),
                                           std::move(exprs), outer->names());
  return true;
}

}  // namespace gapply
