#ifndef GAPPLY_EXEC_GAPPLY_OP_H_
#define GAPPLY_EXEC_GAPPLY_OP_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/memory_tracker.h"
#include "src/common/spill_file.h"
#include "src/exec/physical_op.h"

namespace gapply {

/// Partitioning strategy for GApply's first phase (paper §3: "implemented
/// either through sorting or through hashing").
enum class PartitionMode { kSort, kHash };

const char* PartitionModeName(PartitionMode mode);

/// \brief The paper's core contribution: GApply(GCols, PGQ).
///
/// Phase 1 (Partition): the outer input is partitioned on the grouping
/// columns — by sorting (output then comes out clustered by group, in
/// grouping-column order) or by hashing (first-appearance group order).
///
/// Partition layout: one arena of member rows with per-group offsets —
/// group g's rows are `members_[offsets_[g], offsets_[g + 1])` and its key
/// is `group_keys_[g]`. Hash mode assigns each row a group id (gid) through
/// an open-addressing table of (hash, gid) slots that starts at 16 slots and
/// doubles at half load, buffers the rows in arrival order with their gids,
/// and at end of input moves them into the arena with one counting scatter,
/// so each group keeps input order and gids follow first appearance. Sort
/// mode stable-sorts the input, which then is the arena as it stands, with
/// offsets at the run boundaries. Either way a partition costs a few
/// vectors, not a few heap allocations per group.
///
/// Phase 2 (Execute): for each group, its arena slice is bound as a
/// `std::span` to the relation-valued variable `var_name`, the per-group
/// query subplan `pgq` (whose GroupScan leaves read that binding) is
/// re-opened and drained, and each per-group output row is emitted
/// prefixed by the grouping-column values — implementing
///   ⋃_{c ∈ distinct(π_C(outer))} ({c} × PGQ(σ_{C=c}(outer))).
///
/// Output schema: grouping columns (as named in the outer schema) followed
/// by the PGQ output schema.
///
/// Parallel execution (the paper's §3 observation that no group's evaluation
/// depends on another's, made operational): with `parallelism` > 1, phase 2
/// fans the groups out over a worker pool. Each worker owns a deep Clone of
/// the PGQ subplan and a private ExecContext forked from the caller's (so
/// enclosing Apply/GApply bindings remain visible but per-group bindings and
/// counters stay private), and claims groups through a shared atomic cursor.
/// Per-group outputs are buffered per group index and emitted in exactly the
/// order the serial path would produce, so parallel output is bit-for-bit
/// identical to serial output; worker counters are merged back into the
/// caller's context, so global counters stay exact. If any group's PGQ
/// fails, the error of the smallest failing group index is reported
/// (again matching what serial execution would surface first).
///
/// Under a memory budget (DESIGN.md §16), hash-mode partitioning whose
/// member rows exceed the query's MemoryTracker budget spills members to
/// disk as (gid, row) records partitioned by a gid hash — the gid table
/// and group keys stay in memory. The rows buffered before the refusal are
/// flushed in arrival order, so every gid's records stay in input order.
/// Phase 2 then executes one partition at a time: its rows go through the
/// same counting scatter into an arena of their own (file order = outer
/// input order per group, since every gid lives in exactly one partition
/// per level) and the PGQ runs serially per group, bound to a slice of
/// that arena, into the per-gid output slots the parallel drain path
/// already emits in gid order — bit-for-bit the in-memory output.
/// Sort-mode partitioning stays in-memory (the sort below it is what
/// spills).
class GApplyOp : public PhysOp {
 public:
  GApplyOp(PhysOpPtr outer, std::vector<int> grouping_columns,
           std::string var_name, PhysOpPtr pgq,
           PartitionMode mode = PartitionMode::kHash, size_t parallelism = 1);

  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(ExecContext* ctx, RowBatch* out) override;
  Status CloseImpl(ExecContext* ctx) override;
  std::string DebugName() const override;
  PhysOpPtr Clone() const override;
  std::vector<const PhysOp*> children() const override {
    return {outer_.get(), pgq_.get()};
  }

  size_t parallelism() const { return parallelism_; }
  size_t profile_dop() const override { return parallelism_; }

 private:
  Status Partition(ExecContext* ctx);
  Status OpenGroup(ExecContext* ctx);
  Status CloseGroup(ExecContext* ctx);

  size_t num_groups() const { return group_keys_.size(); }
  /// Group g's member rows: its slice of the in-memory arena.
  std::span<const Row> GroupRows(size_t g) const;

  /// Runs `pgq` over group `g`, whose member rows are `rows` (its arena
  /// slice, or a slice of a reloaded spill partition), with bindings in
  /// `ctx`, pulling through the scratch `*batch` and appending key-prefixed
  /// output rows to `*out`. Thread-safe w.r.t. other groups: reads only
  /// the materialized partition, mutates only `ctx`, `*batch` and `*out`.
  Status ExecuteGroup(PhysOp* pgq, ExecContext* ctx, size_t g,
                      std::span<const Row> rows, RowBatch* batch,
                      std::vector<Row>* out);

  /// Phase-2 fan-out: executes every group on a worker pool, filling
  /// group_outputs_, and merges worker counters into `ctx`.
  Status ExecuteGroupsParallel(ExecContext* ctx);

  /// Flips hash-mode partitioning to spill mode: flushes every buffered
  /// member row to gid-partitioned spill files and opens spill_writers_
  /// for the rest of the outer input.
  Status StartMemberSpill(ExecContext* ctx);
  /// Phase 2 over one spill partition: loads its (gid, row) records
  /// (recursively repartitioning on overflow), scatters them by gid into
  /// an arena and runs the PGQ per group into group_outputs_.
  Status ExecuteSpilledPartition(ExecContext* ctx, const std::string& path,
                                 int level);
  /// Finishes a spill file and books its bytes into counters + profile.
  Status FinishPart(ExecContext* ctx, SpillWriter* writer);

  PhysOpPtr outer_;
  std::vector<int> grouping_columns_;
  std::string var_name_;
  PhysOpPtr pgq_;
  PartitionMode mode_;
  size_t parallelism_;

  // The materialized partition: group keys by gid, and the member arena
  // with num_groups() + 1 offsets (see the class comment).
  std::vector<Row> group_keys_;
  std::vector<Row> members_;
  std::vector<size_t> offsets_;
  // Hash mode's arrival-order buffer: rows and their gids, scattered into
  // members_ at end of input (or flushed to disk by a spill).
  std::vector<Row> arrivals_;
  std::vector<size_t> arrival_gids_;
  size_t current_group_ = 0;
  bool group_open_ = false;
  uint64_t group_open_ns_ = 0;  // steady_clock stamp of the OpenGroup call

  // Parallel-path state: per-group output buffers, streamed by NextBatch.
  bool parallel_exec_ = false;
  std::vector<std::vector<Row>> group_outputs_;
  size_t output_pos_ = 0;

  // Member-row spill state (hash mode only); inert until a budget refusal
  // during Partition flips spilled_.
  bool spilled_ = false;
  MemoryReservation mem_;
  std::vector<std::unique_ptr<SpillWriter>> spill_writers_;
  std::vector<std::string> spill_paths_;

  // Scratch reused across re-opens: the outer batch while partitioning,
  // then one PGQ batch per pull in serial (and spilled) phase 2.
  RowBatch pgq_batch_;
};

}  // namespace gapply

#endif  // GAPPLY_EXEC_GAPPLY_OP_H_
