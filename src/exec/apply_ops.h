#ifndef GAPPLY_EXEC_APPLY_OPS_H_
#define GAPPLY_EXEC_APPLY_OPS_H_

#include <string>
#include <vector>

#include "src/exec/physical_op.h"

namespace gapply {

/// \brief The paper's `apply` operator (§4): R A E = ⋃_{r∈R} ({r} × E(r)).
///
/// For each outer row r, the inner subplan is re-opened with r pushed onto
/// the correlated-row stack; every inner row is emitted concatenated after
/// r. The outer side is pulled a batch at a time; r is a pointer into that
/// batch, which is refilled only once its last row's inner side is closed.
/// r sits on the stack only while the inner side is being opened or pulled,
/// so expressions evaluated above this Apply never see it. Scalar
/// subqueries appear as an inner ScalarAgg (exactly one row);
/// EXISTS subqueries appear as an inner Exists (zero columns), making the
/// output schema collapse to the outer schema (S × {φ} = S).
class ApplyOp : public PhysOp {
 public:
  /// `cache_uncorrelated_inner`: when the inner subplan does not reference
  /// THIS Apply's outer row (e.g. the paper's group-selection EXISTS probes
  /// that range over the whole group), its result is identical for every
  /// outer row; setting this evaluates it once per Open and replays the
  /// materialized rows. The lowering pass decides via
  /// ApplyInnerIsCorrelated.
  ApplyOp(PhysOpPtr outer, PhysOpPtr inner,
          bool cache_uncorrelated_inner = false);

  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  Status CloseImpl(ExecContext* ctx) override;
  std::string DebugName() const override;
  PhysOpPtr Clone() const override;
  std::vector<const PhysOp*> children() const override {
    return {outer_.get(), inner_.get()};
  }

 private:
  /// Opens the inner side for the current outer row. A cached inner is
  /// opened and drained into cache_ on the first outer row only.
  Status OpenInner(ExecContext* ctx);
  /// Drains the freshly opened inner side into cache_ and closes it.
  Status FillCache(ExecContext* ctx);

  PhysOpPtr outer_;
  PhysOpPtr inner_;
  bool cache_inner_;
  bool inner_open_ = false;
  bool cache_valid_ = false;
  std::vector<Row> cache_;
  size_t cache_pos_ = 0;

  // Batch path scratch, reused across re-opens: the current outer batch
  // with a cursor on the row whose inner side is open, and one inner batch.
  RowBatch outer_batch_;
  size_t outer_pos_ = 0;
  RowBatch inner_batch_;
};

/// \brief The paper's `exists` operator: {φ} (one zero-column tuple) if the
/// input is nonempty, φ otherwise. Only meaningful as the inner child of
/// Apply.
class ExistsOp : public PhysOp {
 public:
  explicit ExistsOp(PhysOpPtr child, bool negated = false);

  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  Status CloseImpl(ExecContext* ctx) override;
  std::string DebugName() const override;
  PhysOpPtr Clone() const override;
  std::vector<const PhysOp*> children() const override { return {child_.get()}; }

 private:
  PhysOpPtr child_;
  bool negated_;
  bool done_ = false;
  // Capacity-1 probe batch: the child is asked for one row, never more.
  RowBatch probe_batch_{1};
};

/// Concatenation of children's outputs (SQL UNION ALL). Schemas must be
/// union-compatible; the output schema is the unified one computed by
/// `UnifySchemas`.
class UnionAllOp : public PhysOp {
 public:
  static Result<PhysOpPtr> Make(std::vector<PhysOpPtr> children);

  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  Status CloseImpl(ExecContext* ctx) override;
  std::string DebugName() const override;
  PhysOpPtr Clone() const override;
  std::vector<const PhysOp*> children() const override;

 private:
  UnionAllOp(Schema schema, std::vector<PhysOpPtr> children);

  std::vector<PhysOpPtr> children_;
  size_t current_ = 0;
};

/// Column-wise unification of union branches: equal types pass through,
/// kNull unifies with anything, {int64, double} unify to double; otherwise
/// TypeError. Column names come from the first branch.
Result<Schema> UnifySchemas(const std::vector<const Schema*>& schemas);

}  // namespace gapply

#endif  // GAPPLY_EXEC_APPLY_OPS_H_
