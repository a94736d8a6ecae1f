#include "src/exec/gapply_op.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <system_error>
#include <utility>

#include "src/common/thread_pool.h"
#include "src/exec/filter_project_ops.h"

namespace gapply {

namespace {

Schema MakeGApplySchema(const Schema& outer,
                        const std::vector<int>& grouping_columns,
                        const Schema& pgq) {
  Schema out;
  for (int c : grouping_columns) {
    out.AddColumn(outer.column(static_cast<size_t>(c)));
  }
  return Schema::Concat(out, pgq);
}

Row ExtractKey(const Row& row, const std::vector<int>& cols) {
  Row key;
  key.reserve(cols.size());
  for (int c : cols) key.push_back(row[static_cast<size_t>(c)]);
  return key;
}

/// Hash-mode group-id assignment: an open-addressing table of (hash, gid)
/// slots with linear probing. It starts at 16 slots, so a GApply over a
/// handful of groups pays for a handful of slots, and doubles at half load;
/// growing re-places the stored hashes without touching any row.
class GidTable {
 public:
  /// The gid of a stored slot whose hash is `hash` and for which
  /// `matches(gid)` holds; if there is none, stores `next_gid` under
  /// `hash` and returns it.
  template <typename Matches>
  size_t FindOrInsert(size_t hash, size_t next_gid, const Matches& matches) {
    for (size_t i = Home(hash);; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.gid == kEmpty) {
        slot = {hash, next_gid};
        if (++used_ * 2 > slots_.size()) Grow();
        return next_gid;
      }
      if (slot.hash == hash && matches(slot.gid)) return slot.gid;
    }
  }

 private:
  static constexpr size_t kEmpty = SIZE_MAX;
  static constexpr int kInitialLog2 = 4;

  struct Slot {
    size_t hash = 0;
    size_t gid = kEmpty;
  };

  // Fibonacci hashing: the top bits of hash × 2^64/φ pick the home slot, so
  // hashes that differ only in their high bits still spread.
  size_t Home(size_t hash) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(hash) * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    --shift_;
    for (const Slot& slot : old) {
      if (slot.gid == kEmpty) continue;
      size_t i = Home(slot.hash);
      while (slots_[i].gid != kEmpty) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_ = std::vector<Slot>(size_t{1} << kInitialLog2);
  size_t mask_ = (size_t{1} << kInitialLog2) - 1;
  int shift_ = 64 - kInitialLog2;
  size_t used_ = 0;
};

/// Counting scatter: moves each `(*rows)[i]` into the arena slice of group
/// `gids[i]` (all below `num_groups`), keeping the rows' relative order
/// within every group. On return group g's rows are
/// `(*arena)[(*offsets)[g], (*offsets)[g + 1])` and `*rows` is empty.
void ScatterByGid(std::vector<Row>* rows, const std::vector<size_t>& gids,
                  size_t num_groups, std::vector<Row>* arena,
                  std::vector<size_t>* offsets) {
  // offsets[g + 2] first counts group g; the prefix sum turns offsets[g + 1]
  // into group g's first slot, and filling advances it past g's last row,
  // which is where group g + 1 starts.
  std::vector<size_t>& off = *offsets;
  off.assign(num_groups + 2, 0);
  for (size_t g : gids) ++off[g + 2];
  for (size_t i = 2; i < off.size(); ++i) off[i] += off[i - 1];
  arena->clear();
  arena->resize(rows->size());
  for (size_t i = 0; i < rows->size(); ++i) {
    (*arena)[off[gids[i] + 1]++] = std::move((*rows)[i]);
  }
  off.pop_back();
  rows->clear();
}

std::span<const Row> Slice(const std::vector<Row>& arena,
                           const std::vector<size_t>& offsets, size_t g) {
  return std::span<const Row>(arena).subspan(offsets[g],
                                             offsets[g + 1] - offsets[g]);
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Grace spill geometry (mirrors HashJoinOp's). Partitioning is by gid, so
// every group's members land in exactly one file per level.
constexpr size_t kSpillFanout = 8;
constexpr int kMaxSpillDepth = 4;

size_t PartitionOfGid(uint64_t gid, int level) {
  return HashCombine(std::hash<uint64_t>{}(gid),
                     0x9e3779b9u * static_cast<size_t>(level + 1)) %
         kSpillFanout;
}

void RemoveFile(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

}  // namespace

const char* PartitionModeName(PartitionMode mode) {
  return mode == PartitionMode::kSort ? "sort" : "hash";
}

GApplyOp::GApplyOp(PhysOpPtr outer, std::vector<int> grouping_columns,
                   std::string var_name, PhysOpPtr pgq, PartitionMode mode,
                   size_t parallelism)
    : PhysOp(MakeGApplySchema(outer->output_schema(), grouping_columns,
                              pgq->output_schema())),
      outer_(std::move(outer)),
      grouping_columns_(std::move(grouping_columns)),
      var_name_(std::move(var_name)),
      pgq_(std::move(pgq)),
      mode_(mode),
      parallelism_(std::max<size_t>(1, parallelism)) {}

Status GApplyOp::Partition(ExecContext* ctx) {
  group_keys_.clear();
  members_.clear();
  offsets_.clear();
  arrivals_.clear();
  arrival_gids_.clear();
  spilled_ = false;
  spill_writers_.clear();
  spill_paths_.clear();
  const bool budgeted =
      ctx->memory() != nullptr && ctx->spill() != nullptr;
  mem_.Reset(budgeted ? ctx->memory() : nullptr);

  RETURN_NOT_OK(outer_->Open(ctx));
  // The PGQ batch doubles as the partition-phase scratch.
  RowBatch& batch = pgq_batch_;
  batch.Reset(ctx->batch_size());

  if (mode_ == PartitionMode::kHash) {
    // Hash mode partitions batch-at-a-time, straight off the outer child:
    // each batch's key hashes are precomputed in one pass, then every row
    // gets its gid from the open-addressing table and is buffered in
    // arrival order. A group's key is materialized once, on first
    // appearance; later rows are matched by comparing their grouping
    // columns in place against it. At end of input one counting scatter
    // moves the buffered rows into the member arena.
    GidTable gids;
    std::vector<size_t> hashes;
    const auto row_matches_key = [this](const Row& row, const Row& key) {
      for (size_t i = 0; i < grouping_columns_.size(); ++i) {
        const size_t c = static_cast<size_t>(grouping_columns_[i]);
        if (!row[c].Equals(key[i])) return false;
      }
      return true;
    };
    while (true) {
      ASSIGN_OR_RETURN(bool has, outer_->NextBatch(ctx, &batch));
      if (!has) break;
      ctx->counters().rows_hash_partitioned += batch.size();
      hashes.resize(batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        hashes[i] = HashRowColumns(batch[i], grouping_columns_);
      }
      for (size_t i = 0; i < batch.size(); ++i) {
        Row& r = batch[i];
        const size_t gid = gids.FindOrInsert(
            hashes[i], group_keys_.size(), [&](size_t cand) {
              return row_matches_key(r, group_keys_[cand]);
            });
        if (gid == group_keys_.size()) {
          group_keys_.push_back(ExtractKey(r, grouping_columns_));
        }
        if (!spilled_ && budgeted && !mem_.TryGrow(ApproxRowBytes(r))) {
          RETURN_NOT_OK(StartMemberSpill(ctx));
        }
        if (spilled_) {
          RETURN_NOT_OK(
              spill_writers_[PartitionOfGid(gid, 0)]->WriteIndexedRow(gid, r));
        } else {
          arrivals_.push_back(std::move(r));
          arrival_gids_.push_back(gid);
        }
      }
    }
    if (spilled_) {
      spill_paths_.resize(spill_writers_.size());
      for (size_t p = 0; p < spill_writers_.size(); ++p) {
        RETURN_NOT_OK(FinishPart(ctx, spill_writers_[p].get()));
        spill_paths_[p] = spill_writers_[p]->path();
      }
      spill_writers_.clear();
    } else {
      ScatterByGid(&arrivals_, arrival_gids_, group_keys_.size(), &members_,
                   &offsets_);
      arrival_gids_.clear();
    }
    return outer_->Close(ctx);
  }

  // Sort mode: the stable-sorted input is the arena as it stands.
  while (true) {
    ASSIGN_OR_RETURN(bool has, outer_->NextBatch(ctx, &batch));
    if (!has) break;
    for (Row& row : batch.rows()) members_.push_back(std::move(row));
  }
  RETURN_NOT_OK(outer_->Close(ctx));

  ctx->counters().rows_sorted += members_.size();
  std::stable_sort(members_.begin(), members_.end(),
                   [this](const Row& a, const Row& b) {
                     for (int c : grouping_columns_) {
                       const int cmp =
                           CompareForSort(a[static_cast<size_t>(c)],
                                          b[static_cast<size_t>(c)]);
                       if (cmp != 0) return cmp < 0;
                     }
                     return false;
                   });
  // After sorting, equal keys are adjacent, so a group starts at a row that
  // differs from its predecessor on some grouping column — compared on the
  // raw row, with no per-row key materialization. Keys are extracted once
  // per group.
  const auto same_group = [this](const Row& a, const Row& b) {
    for (int c : grouping_columns_) {
      if (!a[static_cast<size_t>(c)].Equals(b[static_cast<size_t>(c)])) {
        return false;
      }
    }
    return true;
  };
  for (size_t i = 0; i < members_.size(); ++i) {
    if (i == 0 || !same_group(members_[i - 1], members_[i])) {
      offsets_.push_back(i);
      group_keys_.push_back(ExtractKey(members_[i], grouping_columns_));
    }
  }
  offsets_.push_back(members_.size());
  return Status::OK();
}

std::span<const Row> GApplyOp::GroupRows(size_t g) const {
  return Slice(members_, offsets_, g);
}

Status GApplyOp::OpenGroup(ExecContext* ctx) {
  ctx->BindGroup(var_name_, &outer_->output_schema(),
                 GroupRows(current_group_));
  Status st = pgq_->Open(ctx);
  if (!st.ok()) {
    (void)ctx->UnbindGroup(var_name_);
    return st;
  }
  group_open_ = true;
  group_open_ns_ = NowNs();
  ctx->counters().pgq_executions++;
  return Status::OK();
}

Status GApplyOp::CloseGroup(ExecContext* ctx) {
  const uint64_t group_ns = NowNs() - group_open_ns_;
  ctx->counters().gapply_pgq_ns += group_ns;
  if (ctx->profiling()) profile_.AddPhaseNs("per_group_query", group_ns);
  RETURN_NOT_OK(pgq_->Close(ctx));
  RETURN_NOT_OK(ctx->UnbindGroup(var_name_));
  group_open_ = false;
  return Status::OK();
}

Status GApplyOp::ExecuteGroup(PhysOp* pgq, ExecContext* ctx, size_t g,
                              std::span<const Row> rows, RowBatch* batch,
                              std::vector<Row>* out) {
  ctx->BindGroup(var_name_, &outer_->output_schema(), rows);
  Status st = pgq->Open(ctx);
  if (!st.ok()) {
    (void)ctx->UnbindGroup(var_name_);
    return st;
  }
  ctx->counters().pgq_executions++;
  const Row& key = group_keys_[g];
  batch->Reset(ctx->batch_size());
  while (true) {
    auto next = pgq->NextBatch(ctx, batch);
    if (!next.ok()) {
      (void)pgq->Close(ctx);
      (void)ctx->UnbindGroup(var_name_);
      return next.status();
    }
    if (!*next) break;
    for (const Row& pgq_row : batch->rows()) {
      Row full;
      ConcatRows(key, pgq_row, &full);
      out->push_back(std::move(full));
    }
  }
  st = pgq->Close(ctx);
  Status unbind = ctx->UnbindGroup(var_name_);
  RETURN_NOT_OK(st);
  return unbind;
}

Status GApplyOp::ExecuteGroupsParallel(ExecContext* ctx) {
  const size_t dop = std::min(parallelism_, num_groups());
  group_outputs_.assign(num_groups(), {});

  struct WorkerState {
    PhysOpPtr pgq;
    ExecContext ctx;
    RowBatch batch;  // PGQ pull scratch, reused across the worker's groups
    Status error = Status::OK();
    size_t error_group = 0;
    bool failed = false;
    size_t groups_claimed = 0;
  };
  std::vector<WorkerState> workers(dop);
  for (WorkerState& w : workers) {
    w.pgq = pgq_->Clone();
    w.ctx = ctx->ForkForWorker();
  }

  // Morsel-driven scheduling: workers claim the next unprocessed group
  // through a shared cursor. Each group's output goes to its own slot in
  // group_outputs_, so no two workers ever write the same element and the
  // final stream order is independent of scheduling. The worker loops run
  // as one task group on the shared engine pool (with the calling thread
  // helping), falling back to a transient pool for standalone plans — no
  // per-execution thread spawn/join when a Database pool is present.
  std::atomic<size_t> next_group{0};
  std::atomic<bool> abort{false};
  std::vector<std::function<void()>> tasks;
  tasks.reserve(dop);
  for (size_t w = 0; w < dop; ++w) {
    tasks.push_back([this, &workers, &next_group, &abort, w] {
      WorkerState& ws = workers[w];
      const uint64_t busy_start = NowNs();
      while (!abort.load(std::memory_order_relaxed)) {
        const size_t g = next_group.fetch_add(1, std::memory_order_relaxed);
        if (g >= num_groups()) break;
        ws.groups_claimed++;
        Status st = ExecuteGroup(ws.pgq.get(), &ws.ctx, g, GroupRows(g),
                                 &ws.batch, &group_outputs_[g]);
        if (!st.ok()) {
          ws.error = std::move(st);
          ws.error_group = g;
          ws.failed = true;
          abort.store(true, std::memory_order_relaxed);
          break;
        }
      }
      // Per-worker attribution: only a worker that actually claimed a
      // group reports itself. A worker that lost every race to the group
      // cursor must be skipped entirely — folding it in as a zero would
      // collapse the min-busy attribution to 0 (see Counters::MergeFrom).
      if (ws.groups_claimed > 0) {
        ExecContext::Counters busy;
        busy.gapply_workers = 1;
        busy.gapply_worker_busy_ns = NowNs() - busy_start;
        busy.gapply_worker_busy_min_ns = busy.gapply_worker_busy_ns;
        busy.gapply_worker_busy_max_ns = busy.gapply_worker_busy_ns;
        ws.ctx.counters().MergeFrom(busy);
      }
    });
  }
  RunTaskGroup(ctx->thread_pool(), std::move(tasks));

  for (WorkerState& w : workers) {
    ctx->counters().MergeFrom(w.ctx.counters());
  }
  if (ctx->profiling()) {
    uint64_t pgq_rows = 0;
    for (const std::vector<Row>& rows : group_outputs_) {
      pgq_rows += rows.size();
    }
    // The clones' output had no profiled consumer (workers drain them from
    // a bare context); credit it to this operator so rows_in stays equal to
    // the children's merged rows_out.
    profile_.rows_in += pgq_rows;
    for (const WorkerState& w : workers) {
      if (w.groups_claimed > 0) pgq_->MergeTreeProfileFrom(*w.pgq);
    }
  }

  // Deterministic error selection: among the workers that failed, surface
  // the smallest group index — the error serial execution would hit first.
  const WorkerState* first_failure = nullptr;
  for (const WorkerState& w : workers) {
    if (w.failed && (first_failure == nullptr ||
                     w.error_group < first_failure->error_group)) {
      first_failure = &w;
    }
  }
  if (first_failure != nullptr) return first_failure->error;
  return Status::OK();
}

Status GApplyOp::StartMemberSpill(ExecContext* ctx) {
  spill_writers_.resize(kSpillFanout);
  for (auto& w : spill_writers_) {
    ASSIGN_OR_RETURN(std::string path, ctx->spill()->NewFilePath());
    ASSIGN_OR_RETURN(w, SpillWriter::Open(path));
  }
  // Flush the buffered member rows in arrival order: each gid's rows reach
  // its partition file in outer input order, which is all phase 2's
  // per-partition scatter relies on.
  for (size_t i = 0; i < arrivals_.size(); ++i) {
    const size_t g = arrival_gids_[i];
    RETURN_NOT_OK(spill_writers_[PartitionOfGid(g, 0)]->WriteIndexedRow(
        g, arrivals_[i]));
  }
  arrivals_ = {};
  arrival_gids_ = {};
  mem_.ReleaseAll();
  spilled_ = true;
  return Status::OK();
}

Status GApplyOp::FinishPart(ExecContext* ctx, SpillWriter* writer) {
  RETURN_NOT_OK(writer->Finish());
  ctx->counters().spill_bytes += writer->bytes_written();
  ctx->counters().spill_partitions += 1;
  profile_.spill_bytes += writer->bytes_written();
  profile_.spill_partitions += 1;
  return Status::OK();
}

Status GApplyOp::ExecuteSpilledPartition(ExecContext* ctx,
                                         const std::string& path, int level) {
  // Load the partition under its own reservation; overflow below the
  // depth cap repartitions the gids at the next salt level.
  MemoryReservation part_mem(mem_.tracker());
  std::vector<Row> rows;
  std::vector<size_t> gids;
  ASSIGN_OR_RETURN(std::unique_ptr<SpillReader> reader,
                   SpillReader::Open(path));
  uint64_t gid = 0;
  Row row;
  bool overflow = false;
  while (!overflow) {
    ASSIGN_OR_RETURN(bool has, reader->ReadIndexedRow(&gid, &row));
    if (!has) break;
    if (gid >= num_groups()) {
      return Status::Internal("spill: GApply record names group " +
                              std::to_string(gid) + " of " +
                              std::to_string(num_groups()));
    }
    const size_t bytes = ApproxRowBytes(row);
    if (!part_mem.TryGrow(bytes)) {
      if (level + 1 < kMaxSpillDepth) {
        overflow = true;
      } else {
        // A single group's members cannot be split below the gid grain;
        // past the cap the partition loads regardless of the budget.
        part_mem.ForceGrow(bytes);
      }
    }
    if (!overflow) {
      rows.push_back(std::move(row));
      gids.push_back(static_cast<size_t>(gid));
    }
  }

  if (overflow) {
    std::vector<std::unique_ptr<SpillWriter>> writers(kSpillFanout);
    for (auto& w : writers) {
      ASSIGN_OR_RETURN(std::string sub_path, ctx->spill()->NewFilePath());
      ASSIGN_OR_RETURN(w, SpillWriter::Open(sub_path));
    }
    const auto route = [&](uint64_t g, const Row& r) -> Status {
      return writers[PartitionOfGid(g, level + 1)]->WriteIndexedRow(g, r);
    };
    for (size_t i = 0; i < rows.size(); ++i) {
      RETURN_NOT_OK(route(gids[i], rows[i]));
    }
    rows.clear();
    part_mem.ReleaseAll();
    RETURN_NOT_OK(route(gid, row));
    while (true) {
      ASSIGN_OR_RETURN(bool has, reader->ReadIndexedRow(&gid, &row));
      if (!has) break;
      RETURN_NOT_OK(route(gid, row));
    }
    reader.reset();
    RemoveFile(path);
    std::vector<std::string> sub_paths(kSpillFanout);
    for (size_t p = 0; p < kSpillFanout; ++p) {
      RETURN_NOT_OK(FinishPart(ctx, writers[p].get()));
      sub_paths[p] = writers[p]->path();
    }
    writers.clear();
    for (size_t p = 0; p < kSpillFanout; ++p) {
      RETURN_NOT_OK(ExecuteSpilledPartition(ctx, sub_paths[p], level + 1));
    }
    return Status::OK();
  }
  reader.reset();
  profile_.peak_memory =
      std::max<uint64_t>(profile_.peak_memory, part_mem.peak());

  // Scatter by gid in file order (= outer input order per group) through
  // the same counting scatter as the in-memory partition, then run the PGQ
  // once per group present in this partition. Outputs land in per-gid slots
  // that the buffered-output path drains in gid order.
  std::vector<Row> arena;
  std::vector<size_t> offsets;
  ScatterByGid(&rows, gids, num_groups(), &arena, &offsets);
  for (size_t g = 0; g < num_groups(); ++g) {
    if (offsets[g] == offsets[g + 1]) continue;
    RETURN_NOT_OK(ExecuteGroup(pgq_.get(), ctx, g, Slice(arena, offsets, g),
                               &pgq_batch_, &group_outputs_[g]));
  }
  RemoveFile(path);
  return Status::OK();
}

Status GApplyOp::OpenImpl(ExecContext* ctx) {
  current_group_ = 0;
  output_pos_ = 0;
  group_open_ = false;
  parallel_exec_ = false;
  group_outputs_.clear();
  pgq_batch_.Clear();

  const uint64_t t0 = NowNs();
  RETURN_NOT_OK(Partition(ctx));
  const uint64_t partition_ns = NowNs() - t0;
  ctx->counters().gapply_partition_ns += partition_ns;
  if (ctx->profiling()) profile_.AddPhaseNs("partition", partition_ns);

  if (spilled_) {
    // Spilled phase 2 runs serially, one partition at a time, into the
    // same per-gid output slots the parallel path uses — the buffered
    // drain below emits them in gid order either way.
    parallel_exec_ = true;
    group_outputs_.assign(num_groups(), {});
    const uint64_t t1 = NowNs();
    Status st = Status::OK();
    for (const std::string& path : spill_paths_) {
      st = ExecuteSpilledPartition(ctx, path, 0);
      if (!st.ok()) break;
    }
    spill_paths_.clear();
    profile_.peak_memory =
        std::max<uint64_t>(profile_.peak_memory, mem_.peak());
    mem_.ReleaseAll();
    const uint64_t pgq_ns = NowNs() - t1;
    ctx->counters().gapply_pgq_ns += pgq_ns;
    if (ctx->profiling()) profile_.AddPhaseNs("per_group_query", pgq_ns);
    RETURN_NOT_OK(st);
  } else if (parallelism_ > 1 && num_groups() > 1) {
    parallel_exec_ = true;
    const uint64_t t1 = NowNs();
    Status st = ExecuteGroupsParallel(ctx);
    const uint64_t pgq_ns = NowNs() - t1;
    ctx->counters().gapply_pgq_ns += pgq_ns;
    if (ctx->profiling()) profile_.AddPhaseNs("per_group_query", pgq_ns);
    RETURN_NOT_OK(st);
  }
  return Status::OK();
}

Result<bool> GApplyOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  out->Clear();

  if (parallel_exec_) {
    // Slice ranges straight out of the per-group buffers, preserving the
    // serial emission order.
    while (current_group_ < group_outputs_.size() && !out->full()) {
      std::vector<Row>& rows = group_outputs_[current_group_];
      const size_t n = std::min(out->capacity() - out->size(),
                                rows.size() - output_pos_);
      for (size_t i = 0; i < n; ++i) {
        out->Add(std::move(rows[output_pos_ + i]));
      }
      output_pos_ += n;
      if (output_pos_ >= rows.size()) {
        rows.clear();
        rows.shrink_to_fit();
        ++current_group_;
        output_pos_ = 0;
      }
    }
    if (out->empty()) return false;
    RecordBatch(ctx, out->size());
    return true;
  }

  // Serial phase 2: pull PGQ batches for the open group and emit them
  // key-prefixed, rolling over group boundaries until the batch fills.
  pgq_batch_.Reset(out->capacity());
  while (current_group_ < num_groups() && !out->full()) {
    if (!group_open_) RETURN_NOT_OK(OpenGroup(ctx));
    auto next = pgq_->NextBatch(ctx, &pgq_batch_);
    if (!next.ok()) {
      (void)CloseGroup(ctx);
      return next.status();
    }
    if (!*next) {
      RETURN_NOT_OK(CloseGroup(ctx));
      ++current_group_;
      continue;
    }
    const Row& key = group_keys_[current_group_];
    for (const Row& pgq_row : pgq_batch_.rows()) {
      Row full;
      ConcatRows(key, pgq_row, &full);
      out->Add(std::move(full));
    }
  }
  if (out->empty()) return false;
  RecordBatch(ctx, out->size());
  return true;
}

Status GApplyOp::CloseImpl(ExecContext* ctx) {
  if (group_open_) RETURN_NOT_OK(CloseGroup(ctx));
  group_keys_.clear();
  members_.clear();
  offsets_.clear();
  arrivals_.clear();
  arrival_gids_.clear();
  group_outputs_.clear();
  spill_writers_.clear();
  for (const std::string& path : spill_paths_) RemoveFile(path);
  spill_paths_.clear();
  spilled_ = false;
  mem_.ReleaseAll();
  return Status::OK();
}

std::string GApplyOp::DebugName() const {
  std::string cols;
  for (size_t i = 0; i < grouping_columns_.size(); ++i) {
    if (i > 0) cols += ",";
    cols += outer_->output_schema()
                .column(static_cast<size_t>(grouping_columns_[i]))
                .name;
  }
  std::string out = "GApply(gcols=[" + cols + "], var=$" + var_name_ +
                    ", partition=" + PartitionModeName(mode_);
  if (parallelism_ > 1) {
    out += ", parallelism=" + std::to_string(parallelism_);
  }
  return out + ")";
}

PhysOpPtr GApplyOp::Clone() const {
  return std::make_unique<GApplyOp>(outer_->Clone(), grouping_columns_,
                                    var_name_, pgq_->Clone(), mode_,
                                    parallelism_);
}

}  // namespace gapply
