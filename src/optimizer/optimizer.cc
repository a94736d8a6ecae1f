#include "src/optimizer/optimizer.h"

#include "src/core/rules.h"
#include "src/optimizer/classic_rules.h"

namespace gapply {

Optimizer::Options Optimizer::Options::AllDisabled() {
  Options o;
  o.push_select_into_pgq = false;
  o.push_project_into_pgq = false;
  o.projection_before_gapply = false;
  o.selection_before_gapply = false;
  o.gapply_to_groupby = false;
  o.group_selection_exists = false;
  o.group_selection_aggregate = false;
  o.invariant_grouping = false;
  o.classic_pushdown = false;
  return o;
}

const std::vector<Optimizer::Options::Toggle>&
Optimizer::Options::RuleToggles() {
  static const std::vector<Toggle> kToggles = {
      {"ClassicPushdown", &Options::classic_pushdown},
      {"PushSelectIntoPGQ", &Options::push_select_into_pgq},
      {"PushProjectIntoPGQ", &Options::push_project_into_pgq},
      {"SelectionBeforeGApply", &Options::selection_before_gapply},
      {"ProjectionBeforeGApply", &Options::projection_before_gapply},
      {"GApplyToGroupBy", &Options::gapply_to_groupby},
      {"InvariantGrouping", &Options::invariant_grouping},
      {"GroupSelectionExists", &Options::group_selection_exists},
      {"GroupSelectionAggregate", &Options::group_selection_aggregate},
  };
  return kToggles;
}

Optimizer::Optimizer(const Catalog* catalog, const StatsManager* stats,
                     Options options)
    : options_(options), cost_model_(catalog, stats) {
  cost_model_.set_memory_budget(options.memory_budget);
  ctx_.catalog = catalog;
  ctx_.stats = stats;
  ctx_.cost_model = &cost_model_;
  ctx_.cost_gate = options.cost_gate;
  ctx_.unsafe_skip_rule_preconditions = options.unsafe_skip_rule_preconditions;

  // Rule order: cheap always-win rewrites first (σ/π motion), then the
  // structural GApply rewrites, then the cost-gated group-selection pair.
  if (options.classic_pushdown) {
    rules_.push_back(std::make_unique<MergeSelectsRule>());
    rules_.push_back(std::make_unique<PushSelectBelowProjectRule>());
    rules_.push_back(std::make_unique<PushSelectBelowJoinRule>());
    rules_.push_back(std::make_unique<MergeProjectsRule>());
  }
  if (options.push_select_into_pgq) {
    rules_.push_back(std::make_unique<core::PushSelectIntoPgqRule>());
  }
  if (options.push_project_into_pgq) {
    rules_.push_back(std::make_unique<core::PushProjectIntoPgqRule>());
  }
  if (options.selection_before_gapply) {
    rules_.push_back(std::make_unique<core::SelectionBeforeGApplyRule>());
  }
  if (options.projection_before_gapply) {
    rules_.push_back(std::make_unique<core::ProjectionBeforeGApplyRule>());
  }
  if (options.gapply_to_groupby) {
    rules_.push_back(std::make_unique<core::GApplyToGroupByRule>());
  }
  if (options.invariant_grouping) {
    rules_.push_back(std::make_unique<core::InvariantGroupingRule>());
  }
  if (options.group_selection_exists) {
    rules_.push_back(std::make_unique<core::GroupSelectionExistsRule>());
  }
  if (options.group_selection_aggregate) {
    rules_.push_back(std::make_unique<core::GroupSelectionAggregateRule>());
  }
}

Optimizer::~Optimizer() = default;

double Optimizer::EstimateRowsOrUnknown(const LogicalOp& node) const {
  Result<PlanEstimate> est = cost_model_.Estimate(node);
  return est.ok() ? est->rows : -1;
}

Result<bool> Optimizer::ApplyAt(LogicalOpPtr* node) {
  bool changed = false;
  bool fired = true;
  int guard = 0;
  while (fired && guard++ < 32) {
    fired = false;
    // Priced up front: once a rule fires the pre-rewrite subtree is gone.
    const double rows_before = EstimateRowsOrUnknown(**node);
    for (const std::unique_ptr<Rule>& rule : rules_) {
      ASSIGN_OR_RETURN(bool did, rule->Apply(node, &ctx_));
      if (did) {
        fired_.push_back(rule->name());
        trace_.push_back({rule->name(), rows_before,
                          EstimateRowsOrUnknown(**node)});
        fired = true;
        changed = true;
        break;  // node type may have changed: restart the rule list
      }
    }
  }
  return changed;
}

Result<bool> Optimizer::Pass(LogicalOpPtr* node) {
  ASSIGN_OR_RETURN(bool changed, ApplyAt(node));
  LogicalOp* op = node->get();
  for (size_t i = 0; i < op->num_children(); ++i) {
    LogicalOpPtr child = op->TakeChild(i);
    ASSIGN_OR_RETURN(bool child_changed, Pass(&child));
    changed = changed || child_changed;
    op->SetChild(i, std::move(child));
  }
  if (op->type() == LogicalOpType::kGApply) {
    auto* ga = static_cast<LogicalGApply*>(op);
    LogicalOpPtr pgq = ga->TakePgq();
    // Everything below this point is a per-group query; rules that would
    // introduce operators outside the PGQ set (see OptimizerContext::in_pgq)
    // check the flag and stand down. Saved/restored rather than set/cleared
    // because GApply nests.
    const bool saved_in_pgq = ctx_.in_pgq;
    ctx_.in_pgq = true;
    Result<bool> pgq_changed = Pass(&pgq);
    ctx_.in_pgq = saved_in_pgq;
    RETURN_NOT_OK(pgq_changed.status());
    changed = changed || *pgq_changed;
    ga->SetPgq(std::move(pgq));
  }
  return changed;
}

Result<LogicalOpPtr> Optimizer::Optimize(LogicalOpPtr plan) {
  fired_.clear();
  trace_.clear();
  if (plan == nullptr) {
    return Status::InvalidArgument("Optimize: null plan");
  }
  for (int pass = 0; pass < options_.max_passes; ++pass) {
    ASSIGN_OR_RETURN(bool changed, Pass(&plan));
    if (!changed) break;
  }
  return plan;
}

}  // namespace gapply
