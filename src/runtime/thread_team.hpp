#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/barrier.hpp"
#include "runtime/types.hpp"

/// Persistent SPMD thread team — the "multiprocessor" substrate.
///
/// The paper's experiments run a single-program-multiple-data decomposition
/// on p processors of an Encore Multimax/320 (§2.2). We reproduce that with
/// a fixed team of p threads that lives across executor invocations, so the
/// per-call dispatch cost plays the role of handing a schedule to already-
/// running processors rather than of thread creation.
///
/// Dispatch is hybrid: workers spin briefly waiting for new work (keeping
/// the per-solve launch overhead in the microsecond range that repeated
/// triangular solves require) and then block on a condition variable so an
/// idle team does not burn a whole socket.
namespace rtl {

/// Synchronization-event counters accumulated across executor runs on a
/// team. These are the noise-immune evidence for scheduler claims on
/// hosts where wall time is dominated by run-to-run jitter (docs/PERF.md):
/// both are deterministic per execution.
struct ExecCounters {
  /// Per-row completion publications: `ReadyFlags::set` calls of the
  /// flag-based executors.
  std::uint64_t flag_publishes = 0;
  /// Always 0: no executor steals work. The field keeps its position so
  /// the metrics wire format and aggregate initializers stay unchanged.
  std::uint64_t steals = 0;
  /// Per-phase barrier arrivals (pre-scheduled / windowed executors; one
  /// count per thread per phase boundary).
  std::uint64_t barrier_waits = 0;
};

/// Fixed-size thread team executing SPMD regions.
///
/// `run(f)` invokes `f(tid)` on every team member (the calling thread
/// participates as tid 0) and returns when all members have finished.
/// A team-wide `SpinBarrier` is available to region bodies via `barrier()`.
class ThreadTeam {
 public:
  /// Spawn a team of `num_threads` members (>= 1). The constructor spawns
  /// `num_threads - 1` workers; the caller of `run` acts as member 0.
  /// A team larger than `std::thread::hardware_concurrency()` still works
  /// but logs a one-time (per process) warning to stderr: oversubscribed
  /// busy-wait synchronization serializes through the OS scheduler and
  /// parallel timings stop being meaningful (docs/PERF.md).
  explicit ThreadTeam(int num_threads);

  /// Whether the oversubscription warning has fired in this process.
  [[nodiscard]] static bool oversubscription_warned() noexcept;

  /// Joins all workers.
  ~ThreadTeam();

  ThreadTeam(const ThreadTeam&) = delete;
  ThreadTeam& operator=(const ThreadTeam&) = delete;

  /// Number of team members (including the caller).
  [[nodiscard]] int size() const noexcept { return num_threads_; }

  /// Team-wide barrier usable inside a region body. Each member must use
  /// its own BarrierToken; see `run` for the canonical pattern.
  [[nodiscard]] SpinBarrier& barrier() noexcept { return barrier_; }

  /// Execute `f(tid)` for tid in [0, size()) in parallel; returns when all
  /// members completed. Not reentrant: `f` must not call `run` on the same
  /// team.
  ///
  /// Exception policy: if any member throws, the first exception is
  /// rethrown on the caller after all members finished. Bodies that other
  /// members busy-wait on (self-executing loops) must not throw — a thrown
  /// consumer leaves its flag unset and peers would spin forever; this
  /// escape hatch exists for inspector-phase parallel code only.
  void run(const std::function<void(int)>& f);

  /// Convenience: statically partition `[0, n)` into contiguous blocks,
  /// one per member, and run `f(tid, begin, end)`.
  void parallel_blocks(index_t n,
                       const std::function<void(int, index_t, index_t)>& f);

  /// Accumulate per-thread synchronization-event counts. Executors call
  /// this once per member at region end with locally-accumulated values
  /// (never per event — the counters must not perturb the hot loops).
  void add_exec_counters(std::uint64_t flag_publishes,
                         std::uint64_t barrier_waits) noexcept {
    flag_publishes_.fetch_add(flag_publishes, std::memory_order_relaxed);
    barrier_waits_.fetch_add(barrier_waits, std::memory_order_relaxed);
  }

  /// Snapshot of the counters accumulated since construction or the last
  /// `reset_exec_counters`. Read between regions for exact values.
  [[nodiscard]] ExecCounters exec_counters() const noexcept {
    return {flag_publishes_.load(std::memory_order_relaxed), 0,
            barrier_waits_.load(std::memory_order_relaxed)};
  }

  /// Zero the counters (between regions).
  void reset_exec_counters() noexcept {
    flag_publishes_.store(0, std::memory_order_relaxed);
    barrier_waits_.store(0, std::memory_order_relaxed);
  }

 private:
  void worker_loop(int tid);

  const int num_threads_;
  SpinBarrier barrier_;

  // Synchronization-event counters (see ExecCounters).
  std::atomic<std::uint64_t> flag_publishes_{0};
  std::atomic<std::uint64_t> barrier_waits_{0};

  std::vector<std::thread> workers_;

  // Dispatch state: epoch bumps announce a new job; workers ack by
  // decrementing `outstanding_`.
  std::mutex mutex_;
  std::condition_variable wake_;
  const std::function<void(int)>* job_ = nullptr;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<int> outstanding_{0};
  bool shutdown_ = false;

  // First exception thrown by any member during the current region.
  std::mutex error_mutex_;
  std::exception_ptr error_;
};

/// Sane default team size for a long-running process that also owns
/// service threads (listener, session readers): the `RTL_PROCS`
/// environment variable when set to a positive integer, else the host's
/// hardware concurrency minus `reserved_threads`, never below 1. This is
/// the sizing the solve service uses so its solver team does not
/// oversubscribe the cores its own transport threads run on (the
/// oversubscription warning above explains why that matters); `RTL_PROCS`
/// stays the explicit override, exactly as in the bench harness.
[[nodiscard]] int default_solver_team_size(int reserved_threads) noexcept;

/// Contiguous block of `[0, n)` assigned to member `tid` of `nthreads`
/// under an even static partition (the paper's "contiguous groups of
/// roughly equal size", Appendix II §2.1). Returns {begin, end}.
struct BlockRange {
  index_t begin;
  index_t end;
};
[[nodiscard]] BlockRange block_range(index_t n, int tid, int nthreads) noexcept;

}  // namespace rtl
