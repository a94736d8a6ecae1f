#ifndef GAPPLY_CORE_RULES_H_
#define GAPPLY_CORE_RULES_H_

#include "src/optimizer/optimizer.h"

namespace gapply::core {

/// σ(RE1 GA_C RE2) = RE1 GA_C σ(RE2) when σ references only columns
/// returned by the per-group query (paper §4, "rules that do not need the
/// per-group query to be traversed").
class PushSelectIntoPgqRule : public Rule {
 public:
  const char* name() const override { return "PushSelectIntoPGQ"; }
  Result<bool> Apply(LogicalOpPtr* node, OptimizerContext* ctx) override;
};

/// π_{C∪B}(RE1 GA_C RE2) = RE1 GA_C π_B(RE2): a projection above GApply
/// that keeps the grouping columns moves into the per-group query.
class PushProjectIntoPgqRule : public Rule {
 public:
  const char* name() const override { return "PushProjectIntoPGQ"; }
  Result<bool> Apply(LogicalOpPtr* node, OptimizerContext* ctx) override;
};

/// Placing Projections Before GApply (§4.1): only grouping columns and the
/// columns the PGQ evaluates or returns need flow into GApply; prune the
/// rest with a projection on the outer query and drop the PGQ projection
/// outputs that only passed a pruned column through.
class ProjectionBeforeGApplyRule : public Rule {
 public:
  const char* name() const override { return "ProjectionBeforeGApply"; }
  Result<bool> Apply(LogicalOpPtr* node, OptimizerContext* ctx) override;
};

/// Placing Selections Before GApply (§4.1, Theorem 1): when the PGQ is
/// emptyOnEmpty, its covering range can be applied to the outer query, and
/// per-group selections equivalent to the range are eliminated.
class SelectionBeforeGApplyRule : public Rule {
 public:
  const char* name() const override { return "SelectionBeforeGApply"; }
  Result<bool> Apply(LogicalOpPtr* node, OptimizerContext* ctx) override;
};

/// Converting GApply to groupby (§4.1): an aggregate-only per-group query
/// becomes a plain GroupBy on the grouping columns; a groupby-only PGQ
/// merges its keys into the grouping columns.
class GApplyToGroupByRule : public Rule {
 public:
  const char* name() const override { return "GApplyToGroupBy"; }
  Result<bool> Apply(LogicalOpPtr* node, OptimizerContext* ctx) override;
};

/// Group selection via EXISTS (§4.2, Figs. 5-6): a PGQ that returns the
/// whole group iff some tuple satisfies S becomes
///   Join_C(Distinct(π_C(σ_S(T))), T).
/// Cost-gated: wins only when S is selective.
class GroupSelectionExistsRule : public Rule {
 public:
  const char* name() const override { return "GroupSelectionExists"; }
  Result<bool> Apply(LogicalOpPtr* node, OptimizerContext* ctx) override;
};

/// Group selection via an aggregate condition (§4.2): a PGQ returning the
/// whole group iff an aggregate of the group satisfies P becomes
///   Join_C(π_C(σ_P(GroupBy_{C,aggs}(T))), T).
class GroupSelectionAggregateRule : public Rule {
 public:
  const char* name() const override { return "GroupSelectionAggregate"; }
  Result<bool> Apply(LogicalOpPtr* node, OptimizerContext* ctx) override;
};

/// Invariant grouping (§4.3, Theorem 2): pushes GApply below a foreign-key
/// join when the grouping and gp-eval columns live on the join's outer side
/// and the join columns are grouping columns; per-group project lists are
/// adapted, and the dropped columns are re-attached above the join.
class InvariantGroupingRule : public Rule {
 public:
  const char* name() const override { return "InvariantGrouping"; }
  Result<bool> Apply(LogicalOpPtr* node, OptimizerContext* ctx) override;
};

}  // namespace gapply::core

#endif  // GAPPLY_CORE_RULES_H_
