#ifndef GAPPLY_PERFBENCH_TRACE_H_
#define GAPPLY_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <vector>

namespace gapply::perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One layer-boundary span of the traced run. `parent` indexes the
/// enclosing span in the same Tracer (-1 for an operation's root span);
/// spans of one operation share `op`.
struct Span {
  const char* name;  // static string, e.g. "sql.parse"
  uint64_t op;
  int32_t parent;
  int64_t start_ns;
  int64_t end_ns;
};

/// In-memory span log of one client thread. Spans nest strictly (each span
/// ends before its parent does), so the open-span index is a single value.
class Tracer {
 public:
  int32_t Begin(const char* name, uint64_t op) {
    const int32_t id = static_cast<int32_t>(spans_.size());
    spans_.push_back({name, op, open_, NowNs(), 0});
    open_ = id;
    return id;
  }

  void End(int32_t id) {
    spans_[id].end_ns = NowNs();
    open_ = spans_[id].parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int32_t open_ = -1;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t op)
      : tracer_(tracer), id_(tracer->Begin(name, op)) {}
  ~ScopedSpan() { tracer_->End(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

/// Self time of every span: its duration minus the durations of its direct
/// children (children are sequential and lie inside their parent).
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) self[s.parent] -= s.end_ns - s.start_ns;
  }
  return self;
}

}  // namespace gapply::perfbench

#endif  // GAPPLY_PERFBENCH_TRACE_H_
