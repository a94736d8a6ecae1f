#ifndef GAPPLY_PERFBENCH_CALIBRATION_H_
#define GAPPLY_PERFBENCH_CALIBRATION_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/trace.h"

namespace gapply::perfbench {

/// \brief Machine-speed calibration for timings taken on a shared host.
///
/// On a 4-vCPU KVM guest of a shared Intel Xeon server, the speed of the
/// same single-threaded query drifts by up to 1.6x over tens of seconds
/// while steal time stays at zero: neighbours on the host, not the engine,
/// set the pace. A fixed kernel that shares no code with the engine is
/// timed between operations: it allocates, writes and frees 40,000 heap
/// strings of 40-103 bytes, the kind of small allocation the engine's rows,
/// values and per-group state are made of. Of the kernels tried (this one,
/// hash probes into a 16 MB array, an in-cache sort, and this one on a
/// thread of its own) it tracked the engine's drift best. Every end-to-end
/// timing is scaled by kNominalMs / (median of the last kWindow kernel
/// times).
///
/// One Calibrator serves all clients of a run. The kernel runs only at a
/// barrier that every client reaches between two of its operations, so no
/// client is inside the engine while it runs, and the engine's own load
/// (threads, memory bandwidth, cache use) cannot slow it. It runs on the
/// client thread that reached the barrier last, and so allocates from the
/// malloc arena that thread's queries use: an engine change that leaves
/// that heap slower for small allocations would slow the kernel too, and
/// part of its cost would be hidden. Any other engine change shows in full
/// in the scaled timings, while the host's drift largely cancels. The raw
/// wall-clock figures are reported beside the scaled ones.
class Calibrator {
 public:
  /// Kernel time the scaled timings are expressed against (about the
  /// kernel's median on the reference host with one client).
  static constexpr double kNominalMs = 4.0;
  /// The clients meet to run the kernel at most this often.
  static constexpr int64_t kIntervalNs = 50'000'000;
  static constexpr size_t kWindow = 5;

  /// `clients` threads call Next(). The first kernel run, cold, is
  /// discarded.
  explicit Calibrator(size_t clients) : clients_(clients) { RunKernel(); }

  /// Called by every client before each of its operations. Once the last
  /// kernel run is kIntervalNs old, or the deadline has passed, waits until
  /// every client has called it, runs the kernel while all of them wait,
  /// and decides for all of them whether the run goes on. Returns false
  /// when it ends (for every client at the same call); otherwise sets
  /// `*scale`, the factor converting a wall-clock duration measured now
  /// into nominal machine time.
  bool Next(int64_t deadline_ns, double* scale) {
    std::unique_lock<std::mutex> lock(mu_);
    const int64_t now = NowNs();
    if (!samples_.empty() && now < next_ns_ && now < deadline_ns) {
      *scale = scale_;
      return true;
    }
    const uint64_t generation = generation_;
    if (++arrived_ < clients_) {
      done_.wait(lock, [&] { return generation_ != generation; });
    } else {
      arrived_ = 0;
      stop_ = NowNs() >= deadline_ns;
      if (!stop_) {
        samples_.push_back(RunKernel());
        const size_t n = std::min(kWindow, samples_.size());
        std::vector<double> recent(samples_.end() - n, samples_.end());
        std::nth_element(recent.begin(), recent.begin() + n / 2,
                         recent.end());
        scale_ = kNominalMs / recent[n / 2];
        next_ns_ = NowNs() + kIntervalNs;
      }
      ++generation_;
      done_.notify_all();
    }
    *scale = scale_;
    return !stop_;
  }

  /// Every kernel time measured so far, in ms (the cold first run
  /// excluded). Read only after the clients have stopped.
  const std::vector<double>& samples() const { return samples_; }

 private:
  static constexpr int kStrings = 40000;

  static double RunKernel() {
    const int64_t start = NowNs();
    std::vector<std::string*> strings;
    strings.reserve(kStrings);
    for (int i = 0; i < kStrings; ++i) {
      strings.push_back(new std::string(40 + i % 64, 'x'));
    }
    // Keep the allocations observable so they cannot be optimised away.
    asm volatile("" : : "r"(strings.data()) : "memory");
    // Free every other string first, so the allocator merges and reuses
    // fragmented free space as it does between queries.
    for (int i = 0; i < kStrings; i += 2) delete strings[i];
    for (int i = 1; i < kStrings; i += 2) delete strings[i];
    return static_cast<double>(NowNs() - start) / 1e6;
  }

  const size_t clients_;
  std::mutex mu_;
  std::condition_variable done_;
  size_t arrived_ = 0;
  uint64_t generation_ = 0;
  bool stop_ = false;
  int64_t next_ns_ = 0;
  double scale_ = 1.0;
  std::vector<double> samples_;
};

}  // namespace gapply::perfbench

#endif  // GAPPLY_PERFBENCH_CALIBRATION_H_
