#include "src/exec/apply_ops.h"

namespace gapply {

ApplyOp::ApplyOp(PhysOpPtr outer, PhysOpPtr inner,
                 bool cache_uncorrelated_inner)
    : PhysOp(Schema::Concat(outer->output_schema(), inner->output_schema())),
      outer_(std::move(outer)),
      inner_(std::move(inner)),
      cache_inner_(cache_uncorrelated_inner) {}

Status ApplyOp::OpenImpl(ExecContext* ctx) {
  inner_open_ = false;
  cache_valid_ = false;
  cache_.clear();
  outer_batch_.Clear();
  outer_pos_ = 0;
  return outer_->Open(ctx);
}

Status ApplyOp::OpenInner(ExecContext* ctx) {
  if (!cache_valid_) {
    std::vector<const Row*>& outer_rows = ctx->eval()->outer_rows;
    outer_rows.push_back(&outer_batch_[outer_pos_]);
    Status st = inner_->Open(ctx);
    if (st.ok()) {
      ctx->counters().apply_invocations++;
      if (cache_inner_) st = FillCache(ctx);
    }
    outer_rows.pop_back();
    RETURN_NOT_OK(st);
  }
  inner_open_ = true;
  cache_pos_ = 0;
  return Status::OK();
}

Status ApplyOp::FillCache(ExecContext* ctx) {
  // The inner does not depend on the outer row: drain it once and replay
  // it for every later outer row of this execution.
  Status st = Status::OK();
  while (st.ok()) {
    Result<bool> next = inner_->NextBatch(ctx, &inner_batch_);
    if (!next.ok()) {
      st = next.status();
    } else if (!*next) {
      break;
    } else {
      for (Row& row : inner_batch_.rows()) cache_.push_back(std::move(row));
    }
  }
  Status close = inner_->Close(ctx);
  if (st.ok()) st = close;
  cache_valid_ = st.ok();
  return st;
}

Result<bool> ApplyOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  out->Clear();
  while (!out->full()) {
    if (!inner_open_) {
      if (outer_pos_ + 1 < outer_batch_.size()) {
        ++outer_pos_;
      } else {
        // Refill only here: the previous outer row's inner side is closed,
        // so nothing points into either batch any more.
        outer_batch_.Reset(out->capacity());
        inner_batch_.Reset(out->capacity());
        ASSIGN_OR_RETURN(bool has, outer_->NextBatch(ctx, &outer_batch_));
        outer_pos_ = 0;
        if (!has) {
          outer_batch_.Clear();
          break;
        }
      }
      RETURN_NOT_OK(OpenInner(ctx));
    }
    const Row& outer_row = outer_batch_[outer_pos_];

    if (cache_inner_) {
      while (cache_pos_ < cache_.size() && !out->full()) {
        Row row;
        ConcatRows(outer_row, cache_[cache_pos_++], &row);
        out->Add(std::move(row));
      }
      if (cache_pos_ >= cache_.size()) inner_open_ = false;
      continue;
    }

    // One inner batch per round; it is emitted whole, so the output may
    // overshoot its capacity (RowBatch contract).
    std::vector<const Row*>& outer_rows = ctx->eval()->outer_rows;
    outer_rows.push_back(&outer_row);
    Result<bool> next = inner_->NextBatch(ctx, &inner_batch_);
    outer_rows.pop_back();
    if (!next.ok() || !*next) {
      inner_open_ = false;
      Status close = inner_->Close(ctx);
      if (!next.ok()) return next.status();
      RETURN_NOT_OK(close);
      continue;
    }
    for (const Row& inner_row : inner_batch_.rows()) {
      Row row;
      ConcatRows(outer_row, inner_row, &row);
      out->Add(std::move(row));
    }
  }
  if (out->empty()) return false;
  RecordBatch(ctx, out->size());
  return true;
}

Status ApplyOp::CloseImpl(ExecContext* ctx) {
  if (inner_open_ && !cache_inner_) RETURN_NOT_OK(inner_->Close(ctx));
  inner_open_ = false;
  cache_.clear();
  cache_valid_ = false;
  return outer_->Close(ctx);
}

std::string ApplyOp::DebugName() const {
  return cache_inner_ ? "Apply(cached inner)" : "Apply";
}

PhysOpPtr ApplyOp::Clone() const {
  return std::make_unique<ApplyOp>(outer_->Clone(), inner_->Clone(),
                                   cache_inner_);
}

ExistsOp::ExistsOp(PhysOpPtr child, bool negated)
    : PhysOp(Schema()), child_(std::move(child)), negated_(negated) {}

Status ExistsOp::OpenImpl(ExecContext* ctx) {
  done_ = false;
  return child_->Open(ctx);
}

Result<bool> ExistsOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  out->Clear();
  if (done_) return false;
  done_ = true;
  ASSIGN_OR_RETURN(bool has, child_->NextBatch(ctx, &probe_batch_));
  if (has == negated_) return false;
  out->Add(Row{});
  RecordBatch(ctx, 1);
  return true;
}

Status ExistsOp::CloseImpl(ExecContext* ctx) { return child_->Close(ctx); }

std::string ExistsOp::DebugName() const {
  return negated_ ? "NotExists" : "Exists";
}

PhysOpPtr ExistsOp::Clone() const {
  return std::make_unique<ExistsOp>(child_->Clone(), negated_);
}

Result<Schema> UnifySchemas(const std::vector<const Schema*>& schemas) {
  if (schemas.empty()) {
    return Status::InvalidArgument("union of zero branches");
  }
  const size_t arity = schemas[0]->num_columns();
  Schema out;
  for (size_t c = 0; c < arity; ++c) {
    TypeId unified = schemas[0]->column(c).type;
    for (size_t b = 1; b < schemas.size(); ++b) {
      if (schemas[b]->num_columns() != arity) {
        return Status::TypeError("union branches have different arity");
      }
      const TypeId t = schemas[b]->column(c).type;
      if (t == unified || t == TypeId::kNull) continue;
      if (unified == TypeId::kNull) {
        unified = t;
      } else if (IsNumeric(t) && IsNumeric(unified)) {
        unified = TypeId::kDouble;
      } else {
        return Status::TypeError(
            "union branch column " + std::to_string(c) +
            " has incompatible type " + TypeName(t) + " vs " +
            TypeName(unified));
      }
    }
    out.AddColumn(Column(schemas[0]->column(c).name, unified, ""));
  }
  return out;
}

UnionAllOp::UnionAllOp(Schema schema, std::vector<PhysOpPtr> children)
    : PhysOp(std::move(schema)), children_(std::move(children)) {}

Result<PhysOpPtr> UnionAllOp::Make(std::vector<PhysOpPtr> children) {
  std::vector<const Schema*> schemas;
  schemas.reserve(children.size());
  for (const PhysOpPtr& c : children) schemas.push_back(&c->output_schema());
  ASSIGN_OR_RETURN(Schema schema, UnifySchemas(schemas));
  return PhysOpPtr(new UnionAllOp(std::move(schema), std::move(children)));
}

Status UnionAllOp::OpenImpl(ExecContext* ctx) {
  current_ = 0;
  if (!children_.empty()) RETURN_NOT_OK(children_[0]->Open(ctx));
  return Status::OK();
}

Result<bool> UnionAllOp::NextBatchImpl(ExecContext* ctx, RowBatch* out) {
  out->Clear();
  // Forward the current branch's batches untouched; advance on EOS.
  while (current_ < children_.size()) {
    ASSIGN_OR_RETURN(bool has, children_[current_]->NextBatch(ctx, out));
    if (has) {
      RecordBatch(ctx, out->size());
      return true;
    }
    RETURN_NOT_OK(children_[current_]->Close(ctx));
    ++current_;
    if (current_ < children_.size()) {
      RETURN_NOT_OK(children_[current_]->Open(ctx));
    }
  }
  return false;
}

Status UnionAllOp::CloseImpl(ExecContext* ctx) {
  // Children at indexes < current_ are already closed by NextBatch.
  if (current_ < children_.size()) {
    RETURN_NOT_OK(children_[current_]->Close(ctx));
    current_ = children_.size();
  }
  return Status::OK();
}

std::string UnionAllOp::DebugName() const {
  return "UnionAll(" + std::to_string(children_.size()) + " branches)";
}

PhysOpPtr UnionAllOp::Clone() const {
  std::vector<PhysOpPtr> branches;
  branches.reserve(children_.size());
  for (const PhysOpPtr& c : children_) branches.push_back(c->Clone());
  return PhysOpPtr(new UnionAllOp(schema_, std::move(branches)));
}

std::vector<const PhysOp*> UnionAllOp::children() const {
  std::vector<const PhysOp*> out;
  out.reserve(children_.size());
  for (const PhysOpPtr& c : children_) out.push_back(c.get());
  return out;
}

}  // namespace gapply
