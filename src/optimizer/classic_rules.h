#ifndef GAPPLY_OPTIMIZER_CLASSIC_RULES_H_
#define GAPPLY_OPTIMIZER_CLASSIC_RULES_H_

#include "src/optimizer/optimizer.h"

namespace gapply {

/// Select(Select(x)) → Select(x, a AND b).
class MergeSelectsRule : public Rule {
 public:
  const char* name() const override { return "MergeSelects"; }
  Result<bool> Apply(LogicalOpPtr* node, OptimizerContext* ctx) override;
};

/// Select(Join(L, R)) → Join(Select(L), R) / Join(L, Select(R)) when the
/// predicate's columns come entirely from one side. This is what carries
/// the covering-range selection inserted by SelectionBeforeGApply down to
/// the scans ("the selection ... can then be pushed down using the
/// traditional rules", §4.1).
class PushSelectBelowJoinRule : public Rule {
 public:
  const char* name() const override { return "PushSelectBelowJoin"; }
  Result<bool> Apply(LogicalOpPtr* node, OptimizerContext* ctx) override;
};

/// Select(Project(x)) → Project(Select(x)) when every column the predicate
/// references is a pure column pass-through of the projection.
class PushSelectBelowProjectRule : public Rule {
 public:
  const char* name() const override { return "PushSelectBelowProject"; }
  Result<bool> Apply(LogicalOpPtr* node, OptimizerContext* ctx) override;
};

/// Project(column refs) over Project(exprs) → one Project, unless that
/// would evaluate a computed inner expression twice. A Project that
/// reproduces its child's schema column for column (same order, names and
/// qualifiers) is dropped.
class MergeProjectsRule : public Rule {
 public:
  const char* name() const override { return "MergeProjects"; }
  Result<bool> Apply(LogicalOpPtr* node, OptimizerContext* ctx) override;
};

}  // namespace gapply

#endif  // GAPPLY_OPTIMIZER_CLASSIC_RULES_H_
