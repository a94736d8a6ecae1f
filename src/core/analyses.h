#ifndef GAPPLY_CORE_ANALYSES_H_
#define GAPPLY_CORE_ANALYSES_H_

#include <set>
#include <string>
#include <vector>

#include "src/plan/logical_plan.h"

namespace gapply::core {

/// \brief Static properties of a per-group query, computed in one bottom-up
/// pass (paper §4.1 and §4.3).
struct PgqInfo {
  /// emptyOnEmpty: does the subtree produce empty output on an empty group?
  /// (§4.1: true for scan; false for aggregate; apply takes the outer
  /// child's; union-all requires all children.) Precondition of Theorem 1's
  /// selection-pushing rule.
  bool empty_on_empty = true;

  /// The covering range (§4.1): a predicate over the *group schema* such
  /// that PGQ(group) == PGQ(σ_range(group)). nullptr means TRUE (the whole
  /// group); a literal FALSE means the subtree reads no group tuples at all.
  /// Conditions that cannot be expressed over group columns (computed
  /// columns, correlated references) are conservatively widened to TRUE.
  ExprPtr covering_range;

  /// gp-eval columns (§4.3): group-schema columns needed to *evaluate* the
  /// per-group query — selection/grouping/aggregation/ordering inputs, but
  /// not pass-through projections (those can be re-attached by later joins).
  std::set<int> eval_columns;

  /// Per output column: the group-schema column it is a pure pass-through
  /// of, or -1 for computed/aggregated columns.
  std::vector<int> pure_source;

  /// Per output column: group-schema columns its value depends on.
  std::vector<std::set<int>> provenance;

  /// True when the subtree contains apply / groupby / aggregate — a select
  /// above such a subtree must not contribute its condition to the covering
  /// range (§4.1's covering-range table).
  bool blocking = false;
};

/// Analyzes `pgq` as the per-group query of a GApply binding variable `var`
/// whose group schema has `group_width` columns.
Result<PgqInfo> AnalyzePgq(const LogicalOp& pgq, const std::string& var,
                           int group_width);

/// \brief Result of rewriting a PGQ against a pruned/changed group schema.
struct RemappedPgq {
  LogicalOpPtr plan;
  /// Per original PGQ output column: its new index, or -1 if dropped.
  std::vector<int> output_mapping;
  /// For dropped output columns: the *old* group-schema column whose value
  /// they passed through (-1 where not dropped). Invariant grouping uses
  /// this to re-attach the column via the join above.
  std::vector<int> dropped_group_source;
};

/// Rebuilds `pgq` so its GroupScan($var) leaves read a group with schema
/// `new_group_schema`, where old group column i maps to
/// `group_old_to_new[i]` (-1 = dropped).
///
/// Columns referenced by selections, aggregations, groupings or orderings
/// must survive the mapping (callers guarantee this via `eval_columns`).
/// When `allow_dropping_passthrough` is set, projection outputs that are
/// pure references to dropped columns are removed (the invariant-grouping
/// adaptation, §4.3); otherwise any reference to a dropped column is an
/// error. Dropping is refused under Distinct and inside UnionAll branches
/// that would drop differently (semantics would change).
Result<RemappedPgq> RemapPgq(const LogicalOp& pgq, const std::string& var,
                             const Schema& new_group_schema,
                             const std::vector<int>& group_old_to_new,
                             bool allow_dropping_passthrough);

/// Clones `expr`, rewriting own-level column references through `mapping`
/// and depth-d correlated references through `outer_mappings` (innermost
/// last; nullptr entries mean identity). Fails if a referenced column is
/// dropped (-1).
Result<ExprPtr> RemapExprTree(
    const Expr& expr, const std::vector<int>& mapping,
    const std::vector<const std::vector<int>*>& outer_mappings);

}  // namespace gapply::core

#endif  // GAPPLY_CORE_ANALYSES_H_
