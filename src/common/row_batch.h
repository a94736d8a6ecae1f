#ifndef GAPPLY_COMMON_ROW_BATCH_H_
#define GAPPLY_COMMON_ROW_BATCH_H_

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "src/common/value.h"

namespace gapply {

/// \brief The unit of vectorized data flow: a resizable block of rows with a
/// target capacity.
///
/// Operators move batches, not rows, through the pipeline
/// (`PhysOp::NextBatch`), amortizing per-row virtual dispatch and expression
/// interpretation. `capacity` is a *scheduling hint*, not a hard bound: an
/// operator should stop appending once `full()`, but may overshoot when its
/// output is produced in indivisible chunks (all matches of one probe row in
/// a hash join, one group's entire PGQ output in GApply). Consumers must
/// therefore never assume `size() <= capacity()`.
///
/// Rows live in slots that outlast Clear(): a cleared slot keeps its row's
/// storage, and AddCopy copies into it in place. A scan refilling the same
/// batch therefore stops allocating once the batch has been full once —
/// the buffer reuse a row-at-a-time pull gets from refilling one `Row`.
class RowBatch {
 public:
  static constexpr size_t kDefaultCapacity = 1024;

  explicit RowBatch(size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {
    slots_.reserve(capacity_);
  }

  size_t capacity() const { return capacity_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ >= capacity_; }

  /// Drops the rows but keeps their storage: a row slot keeps its
  /// allocation until the next Add into it.
  void Clear() { size_ = 0; }

  /// Drops the rows and sets the capacity, reallocating only when it
  /// changes — so an operator's scratch batch, reset before every fill,
  /// allocates once per capacity, not once per call or per Open.
  void Reset(size_t capacity) {
    size_ = 0;
    if (capacity == 0) capacity = 1;
    if (capacity == capacity_) return;
    capacity_ = capacity;
    slots_ = std::vector<Row>();
    slots_.reserve(capacity_);
  }

  void Add(Row row) {
    if (size_ < slots_.size()) {
      slots_[size_] = std::move(row);
    } else {
      slots_.push_back(std::move(row));
    }
    ++size_;
  }

  /// Appends a copy of `row`, reusing the storage a cleared slot still
  /// holds: a scan refilling the same batch allocates nothing once its
  /// slots have held rows of the same shape, as long as consumers copy
  /// rows out rather than move them.
  void AddCopy(const Row& row) {
    if (size_ < slots_.size()) {
      slots_[size_] = row;
    } else {
      slots_.push_back(row);
    }
    ++size_;
  }

  Row& operator[](size_t i) { return slots_[i]; }
  const Row& operator[](size_t i) const { return slots_[i]; }

  std::span<Row> rows() { return {slots_.data(), size_}; }
  std::span<const Row> rows() const { return {slots_.data(), size_}; }

 private:
  std::vector<Row> slots_;  // [0, size_) hold the batch's rows
  size_t size_ = 0;
  size_t capacity_;
};

}  // namespace gapply

#endif  // GAPPLY_COMMON_ROW_BATCH_H_
