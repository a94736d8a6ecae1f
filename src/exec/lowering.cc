#include "src/exec/lowering.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/exec/agg_ops.h"
#include "src/exec/apply_ops.h"
#include "src/exec/exchange_op.h"
#include "src/exec/filter_project_ops.h"
#include "src/exec/gapply_op.h"
#include "src/exec/join_ops.h"
#include "src/exec/scan_ops.h"
#include "src/plan/plan_utils.h"

namespace gapply {

namespace {

/// Demotes every HashJoin on the streaming spine under `op` to a serial
/// build: inside an Exchange segment each worker clone builds its own hash
/// table, so a nested parallel build would only add partitioning overhead.
void DemoteSpineJoinBuilds(PhysOp* op) {
  if (auto* join = dynamic_cast<HashJoinOp*>(op)) join->set_parallelism(1);
  if (dynamic_cast<FilterOp*>(op) == nullptr &&
      dynamic_cast<ProjectOp*>(op) == nullptr &&
      dynamic_cast<HashJoinOp*>(op) == nullptr) {
    return;
  }
  std::vector<const PhysOp*> kids = op->children();
  if (!kids.empty()) DemoteSpineJoinBuilds(const_cast<PhysOp*>(kids[0]));
}

/// Wraps `op` in an Exchange when it is a morsel-drivable streaming segment
/// over a base table large enough to amortize the fan-out. Called at
/// pipeline-breaker boundaries (aggregation/sort/distinct inputs, GApply's
/// outer, the plan root).
PhysOpPtr MaybeWrapExchange(PhysOpPtr op, const LoweringOptions& opts,
                            size_t dop) {
  if (dop <= 1) return op;
  TableScanOp* scan = FindExchangeMorselSource(op.get());
  if (scan == nullptr) return op;
  if (scan->num_rows() < opts.exchange_min_rows) return op;
  DemoteSpineJoinBuilds(op.get());
  return std::make_unique<ExchangeOp>(std::move(op), dop,
                                      opts.exchange_morsel_rows);
}

bool CmpOpFromBinary(BinaryOp op, value_ops::CmpOp* out) {
  switch (op) {
    case BinaryOp::kEq: *out = value_ops::CmpOp::kEq; return true;
    case BinaryOp::kNe: *out = value_ops::CmpOp::kNe; return true;
    case BinaryOp::kLt: *out = value_ops::CmpOp::kLt; return true;
    case BinaryOp::kLe: *out = value_ops::CmpOp::kLe; return true;
    case BinaryOp::kGt: *out = value_ops::CmpOp::kGt; return true;
    case BinaryOp::kGe: *out = value_ops::CmpOp::kGe; return true;
    default: return false;
  }
}

/// Mirror of `a <op> b` ≡ `b <flip(op)> a` for normalizing literal-first
/// comparisons to column-first.
value_ops::CmpOp FlipCmp(value_ops::CmpOp op) {
  switch (op) {
    case value_ops::CmpOp::kLt: return value_ops::CmpOp::kGt;
    case value_ops::CmpOp::kLe: return value_ops::CmpOp::kGe;
    case value_ops::CmpOp::kGt: return value_ops::CmpOp::kLt;
    case value_ops::CmpOp::kGe: return value_ops::CmpOp::kLe;
    default: return op;  // kEq / kNe are symmetric
  }
}

/// Column/literal pairings Value::Compare handles without a type error —
/// the bar a conjunct must meet to be evaluated inside the scan.
bool TypeSoundForPushdown(TypeId col, TypeId lit) {
  const auto numeric = [](TypeId t) {
    return t == TypeId::kInt64 || t == TypeId::kDouble;
  };
  if (numeric(col) && numeric(lit)) return true;
  if (col == TypeId::kString && lit == TypeId::kString) return true;
  if (col == TypeId::kBool && lit == TypeId::kBool) return true;
  return false;
}

/// Tries to view `e` as `col <op> literal` (either orientation) with a
/// non-NULL, type-sound literal — the shape TableScanOp can evaluate over
/// its dense arrays and prune morsels with.
bool ExtractScanPredicate(const Expr& e, const Schema& schema,
                          ScanPredicate* out) {
  const auto* bin = dynamic_cast<const BinaryExpr*>(&e);
  if (bin == nullptr) return false;
  value_ops::CmpOp op;
  if (!CmpOpFromBinary(bin->op(), &op)) return false;
  const auto* col = dynamic_cast<const ColumnRefExpr*>(&bin->left());
  const auto* lit = dynamic_cast<const LiteralExpr*>(&bin->right());
  if (col == nullptr || lit == nullptr) {
    col = dynamic_cast<const ColumnRefExpr*>(&bin->right());
    lit = dynamic_cast<const LiteralExpr*>(&bin->left());
    if (col == nullptr || lit == nullptr) return false;
    op = FlipCmp(op);
  }
  if (lit->value().is_null()) return false;
  if (col->index() < 0 ||
      static_cast<size_t>(col->index()) >= schema.num_columns()) {
    return false;
  }
  const TypeId col_type = schema.column(static_cast<size_t>(col->index())).type;
  if (!TypeSoundForPushdown(col_type, lit->value().type())) return false;
  out->column = col->index();
  out->op = op;
  out->literal = lit->value();
  return true;
}

Result<PhysOpPtr> Lower(const LogicalOp& node, const LoweringOptions& opts,
                        size_t exchange_dop);

/// `exchange_dop` is the morsel-parallelism budget of the current plan
/// region: the caller's knob at the top, forced to 1 inside subplans that
/// are re-opened per row or per group (Apply inner, Exists input, GApply
/// PGQ), where a per-open parallel fan-out would thrash.
Result<PhysOpPtr> LowerNode(const LogicalOp& node, const LoweringOptions& opts,
                            size_t exchange_dop) {
  switch (node.type()) {
    case LogicalOpType::kScan: {
      const auto& scan = static_cast<const LogicalScan&>(node);
      return PhysOpPtr(
          std::make_unique<TableScanOp>(scan.table(), scan.alias()));
    }
    case LogicalOpType::kGroupScan: {
      const auto& scan = static_cast<const LogicalGroupScan&>(node);
      return PhysOpPtr(
          std::make_unique<GroupScanOp>(scan.var(), scan.output_schema()));
    }
    case LogicalOpType::kSelect: {
      const auto& sel = static_cast<const LogicalSelect&>(node);
      ASSIGN_OR_RETURN(PhysOpPtr child, Lower(*sel.child(0), opts, exchange_dop));
      // Fold constant subtrees first: the filter then skips dead work, and
      // a folded conjunct (`v > 1 + 1`) becomes pushable.
      ExprPtr pred = FoldConstants(sel.predicate().Clone());
      // Columnar storage: peel `col <op> const` conjuncts off a Filter
      // sitting directly on a TableScan and evaluate them inside the scan
      // (dense arrays + zone-map pruning). Sound conjunct by conjunct: a row
      // passes WHERE iff every conjunct evaluates to true, and the scan
      // applies the same NULL-rejects semantics the Filter would.
      if (opts.columnar_storage.value_or(true)) {
        if (auto* scan = dynamic_cast<TableScanOp*>(child.get())) {
          std::vector<ExprPtr> conjuncts = SplitConjuncts(pred->Clone());
          std::vector<ScanPredicate> pushed;
          std::vector<ExprPtr> residual;
          for (ExprPtr& c : conjuncts) {
            ScanPredicate p;
            if (ExtractScanPredicate(*c, scan->output_schema(), &p)) {
              pushed.push_back(std::move(p));
            } else {
              residual.push_back(std::move(c));
            }
          }
          if (!pushed.empty()) {
            scan->PushPredicates(std::move(pushed));
            if (residual.empty()) return child;  // Filter fully absorbed
            return PhysOpPtr(std::make_unique<FilterOp>(
                std::move(child), CombineConjuncts(std::move(residual))));
          }
        }
      }
      return PhysOpPtr(
          std::make_unique<FilterOp>(std::move(child), std::move(pred)));
    }
    case LogicalOpType::kProject: {
      const auto& proj = static_cast<const LogicalProject&>(node);
      ASSIGN_OR_RETURN(PhysOpPtr child, Lower(*proj.child(0), opts, exchange_dop));
      std::vector<ExprPtr> exprs;
      exprs.reserve(proj.exprs().size());
      for (const ExprPtr& e : proj.exprs()) {
        exprs.push_back(FoldConstants(e->Clone()));
      }
      return ProjectOp::Make(std::move(child), std::move(exprs),
                             proj.names());
    }
    case LogicalOpType::kJoin: {
      const auto& join = static_cast<const LogicalJoin&>(node);
      ASSIGN_OR_RETURN(PhysOpPtr left, Lower(*join.child(0), opts, exchange_dop));
      ASSIGN_OR_RETURN(PhysOpPtr right, Lower(*join.child(1), opts, exchange_dop));
      ExprPtr residual = join.residual() == nullptr
                             ? nullptr
                             : join.residual()->Clone();
      if (join.left_keys().empty()) {
        return PhysOpPtr(std::make_unique<NestedLoopJoinOp>(
            std::move(left), std::move(right), std::move(residual)));
      }
      return PhysOpPtr(std::make_unique<HashJoinOp>(
          std::move(left), std::move(right), join.left_keys(),
          join.right_keys(), std::move(residual), exchange_dop,
          join.null_safe()));
    }
    case LogicalOpType::kGroupBy: {
      const auto& gb = static_cast<const LogicalGroupBy&>(node);
      ASSIGN_OR_RETURN(PhysOpPtr child, Lower(*gb.child(0), opts, exchange_dop));
      child = MaybeWrapExchange(std::move(child), opts, exchange_dop);
      if (opts.stream_group_by) {
        std::vector<SortKey> keys;
        keys.reserve(gb.keys().size());
        for (int k : gb.keys()) keys.push_back({k, true});
        auto sorted =
            std::make_unique<SortOp>(std::move(child), std::move(keys));
        return PhysOpPtr(std::make_unique<StreamGroupByOp>(
            std::move(sorted), gb.keys(), CloneAggregates(gb.aggs())));
      }
      return PhysOpPtr(std::make_unique<HashGroupByOp>(
          std::move(child), gb.keys(), CloneAggregates(gb.aggs()),
          exchange_dop));
    }
    case LogicalOpType::kScalarAgg: {
      const auto& agg = static_cast<const LogicalScalarAgg&>(node);
      ASSIGN_OR_RETURN(PhysOpPtr child, Lower(*agg.child(0), opts, exchange_dop));
      child = MaybeWrapExchange(std::move(child), opts, exchange_dop);
      return PhysOpPtr(std::make_unique<ScalarAggOp>(std::move(child),
                                                     CloneAggregates(agg.aggs())));
    }
    case LogicalOpType::kDistinct: {
      ASSIGN_OR_RETURN(PhysOpPtr child, Lower(*node.child(0), opts, exchange_dop));
      child = MaybeWrapExchange(std::move(child), opts, exchange_dop);
      return PhysOpPtr(std::make_unique<DistinctOp>(std::move(child)));
    }
    case LogicalOpType::kUnionAll: {
      std::vector<PhysOpPtr> branches;
      branches.reserve(node.num_children());
      for (size_t i = 0; i < node.num_children(); ++i) {
        ASSIGN_OR_RETURN(PhysOpPtr branch, Lower(*node.child(i), opts, exchange_dop));
        branches.push_back(std::move(branch));
      }
      return UnionAllOp::Make(std::move(branches));
    }
    case LogicalOpType::kApply: {
      const auto& apply = static_cast<const LogicalApply&>(node);
      ASSIGN_OR_RETURN(PhysOpPtr outer, Lower(*apply.outer(), opts, exchange_dop));
      ASSIGN_OR_RETURN(PhysOpPtr inner, Lower(*apply.inner(), opts, 1));
      const bool cache = !ApplyInnerIsCorrelated(*apply.inner());
      return PhysOpPtr(std::make_unique<ApplyOp>(std::move(outer),
                                                 std::move(inner), cache));
    }
    case LogicalOpType::kExists: {
      const auto& exists = static_cast<const LogicalExists&>(node);
      ASSIGN_OR_RETURN(PhysOpPtr child, Lower(*exists.child(0), opts, 1));
      return PhysOpPtr(
          std::make_unique<ExistsOp>(std::move(child), exists.negated()));
    }
    case LogicalOpType::kOrderBy: {
      const auto& order = static_cast<const LogicalOrderBy&>(node);
      ASSIGN_OR_RETURN(PhysOpPtr child, Lower(*order.child(0), opts, exchange_dop));
      child = MaybeWrapExchange(std::move(child), opts, exchange_dop);
      return PhysOpPtr(
          std::make_unique<SortOp>(std::move(child), order.keys()));
    }
    case LogicalOpType::kGApply: {
      const auto& ga = static_cast<const LogicalGApply&>(node);
      ASSIGN_OR_RETURN(PhysOpPtr outer, Lower(*ga.outer(), opts, exchange_dop));
      outer = MaybeWrapExchange(std::move(outer), opts, exchange_dop);
      ASSIGN_OR_RETURN(PhysOpPtr pgq, Lower(*ga.pgq(), opts, 1));
      const PartitionMode mode =
          opts.force_partition_mode.value_or(ga.mode());
      const size_t dop = std::max<size_t>(1, opts.gapply_parallelism);
      return PhysOpPtr(std::make_unique<GApplyOp>(
          std::move(outer), ga.grouping_columns(), ga.var(), std::move(pgq),
          mode, dop));
    }
  }
  return Status::Internal("unknown logical operator in lowering");
}

Result<PhysOpPtr> Lower(const LogicalOp& node, const LoweringOptions& opts,
                        size_t exchange_dop) {
  ASSIGN_OR_RETURN(PhysOpPtr op, LowerNode(node, opts, exchange_dop));
  if (opts.cost_model != nullptr) {
    // Best-effort: estimation failures (unpriceable subtrees) simply leave
    // the operator unstamped; they must not fail the lowering.
    Result<PlanEstimate> est = opts.cost_model->Estimate(node);
    if (est.ok()) op->set_estimated_rows(est->rows);
  }
  return op;
}

}  // namespace

Result<PhysOpPtr> LowerPlan(const LogicalOp& plan,
                            const LoweringOptions& options) {
  const size_t dop = std::max<size_t>(1, options.exchange_parallelism);
  ASSIGN_OR_RETURN(PhysOpPtr root, Lower(plan, options, dop));
  return MaybeWrapExchange(std::move(root), options, dop);
}

}  // namespace gapply
