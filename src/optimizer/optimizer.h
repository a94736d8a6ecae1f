#ifndef GAPPLY_OPTIMIZER_OPTIMIZER_H_
#define GAPPLY_OPTIMIZER_OPTIMIZER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/optimizer/cost_model.h"
#include "src/plan/logical_plan.h"
#include "src/stats/stats.h"
#include "src/storage/catalog.h"

namespace gapply {

/// Shared state handed to every rule invocation.
struct OptimizerContext {
  const Catalog* catalog = nullptr;
  const StatsManager* stats = nullptr;
  const CostModel* cost_model = nullptr;
  /// When true, rules that can hurt (the group-selection pair, §4.2) fire
  /// only if the cost model says the rewrite is cheaper. When false they
  /// fire unconditionally (benches use this to measure both sides).
  bool cost_gate = true;
  /// True while the driver is rewriting a per-group query (the subtree a
  /// GApply holds). The paper's PGQ operator set has no Join, so rules
  /// whose rewrite introduces one (the §4.2 group-selection pair) must not
  /// fire there — the plan would fail to lower. Maintained by
  /// Optimizer::Pass; rules only read it.
  bool in_pgq = false;
  /// TESTING ONLY. When true, rules skip their static-analysis safety
  /// preconditions (currently SelectionBeforeGApply's empty-on-empty check
  /// from Theorem 1) and fire anyway. The fuzzer injects this deliberate
  /// bug (`gapply_fuzz --inject-precondition-bug`) to prove its oracles
  /// catch an unsound rewrite and minimize it. Never set in production.
  bool unsafe_skip_rule_preconditions = false;
};

/// \brief A transformation rule over logical plans.
///
/// `Apply` inspects the subtree rooted at `*node` and either rewrites it in
/// place (returning true) or leaves it untouched (returning false). Rules
/// must strictly make progress — the paper's termination argument (§4.4) is
/// that every rule either pushes GApply down, eliminates it, or adds
/// new σ/π to the outer tree, none of which another rule undoes.
class Rule {
 public:
  virtual ~Rule() = default;
  virtual const char* name() const = 0;
  virtual Result<bool> Apply(LogicalOpPtr* node, OptimizerContext* ctx) = 0;
};

/// \brief Heuristic rewrite driver applying the paper's rule set to
/// fixpoint (bounded by max_passes).
class Optimizer {
 public:
  struct Options {
    // §4: rules that do not traverse the per-group query.
    bool push_select_into_pgq = true;
    bool push_project_into_pgq = true;
    // §4.1: pushing computation into the outer query.
    bool projection_before_gapply = true;
    bool selection_before_gapply = true;
    bool gapply_to_groupby = true;
    // §4.2: group selection.
    bool group_selection_exists = true;
    bool group_selection_aggregate = true;
    // §4.3: pushing GApply below joins.
    bool invariant_grouping = true;
    // Classic relational rewrites (σ pushdown below joins, π merging).
    bool classic_pushdown = true;
    // Cost-gate the two group-selection rules.
    bool cost_gate = true;

    int max_passes = 8;

    /// Per-query memory budget in bytes (0 = unlimited), forwarded to the
    /// cost model so cost-gated rewrites anticipate spill I/O for blocking
    /// operators whose buffered input would exceed it (DESIGN.md §16).
    /// Sessions fill this in from SET memory_budget.
    size_t memory_budget = 0;

    /// See OptimizerContext::unsafe_skip_rule_preconditions. TESTING ONLY.
    bool unsafe_skip_rule_preconditions = false;

    /// All rules off (benches build baselines from this).
    static Options AllDisabled();

    /// One independently toggleable rule set: display name + the Options
    /// member that enables it. ClassicPushdown covers the four classic
    /// rewrites behind the single `classic_pushdown` flag; every other
    /// entry is one paper rule.
    struct Toggle {
      const char* name;
      bool Options::* flag;
    };

    /// Every toggle, in registration order. Drives the fuzzer's
    /// per-rule differential oracles and the pairwise composition tests:
    /// `AllDisabled()` plus exactly one toggle yields an optimizer that
    /// applies that rule set alone.
    static const std::vector<Toggle>& RuleToggles();
  };

  /// One rule firing, in order, with the cost model's cardinality estimate
  /// for the rewritten subtree before and after the rewrite (-1 when the
  /// estimator could not price the subtree, e.g. a GroupScan outside its
  /// group environment). EXPLAIN ANALYZE pairs these estimates with the
  /// actual per-operator row counts.
  struct RuleFiring {
    std::string rule;
    double rows_before = -1;
    double rows_after = -1;
  };

  Optimizer(const Catalog* catalog, const StatsManager* stats,
            Options options);
  ~Optimizer();

  /// Rewrites `plan`; on success the returned plan is semantically
  /// equivalent. The input is consumed.
  Result<LogicalOpPtr> Optimize(LogicalOpPtr plan);

  /// Names of rules fired during the last Optimize call, in firing order.
  const std::vector<std::string>& fired_rules() const { return fired_; }

  /// Per-firing trace of the last Optimize call (parallel to fired_rules,
  /// plus before/after cardinality estimates at each rewrite site).
  const std::vector<RuleFiring>& rule_trace() const { return trace_; }

 private:
  Result<bool> ApplyAt(LogicalOpPtr* node);
  Result<bool> Pass(LogicalOpPtr* node);

  /// Estimated output rows of `node`, -1 when the estimator fails.
  double EstimateRowsOrUnknown(const LogicalOp& node) const;

  Options options_;
  CostModel cost_model_;
  OptimizerContext ctx_;
  std::vector<std::unique_ptr<Rule>> rules_;
  std::vector<std::string> fired_;
  std::vector<RuleFiring> trace_;
};

}  // namespace gapply

#endif  // GAPPLY_OPTIMIZER_OPTIMIZER_H_
