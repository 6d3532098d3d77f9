#pragma once

#include <type_traits>

#include "runtime/types.hpp"

/// Executor policy surface: which transformed loop structure (§1, §2.2)
/// a `Plan` compiles down to, and the option block selecting it.
///
/// The executor loops themselves are private, span-driven methods of
/// `rtl::Plan` (core/plan.hpp) — the schedule they walk is the plan's flat
/// CSR artifact, so the loops and the layout evolve together. This header
/// keeps only the support types shared by the plan, the `rtl::Runtime`
/// cache key, and the callers that configure them:
///
///  * pre-scheduled (Figure 5): a global synchronization separates
///    consecutive wavefronts, so the dependence guarantee is positional;
///  * self-executing (Figure 4): each iteration publishes a shared ready
///    flag, and consumers busy-wait on the flags of their dependences —
///    "a doacross loop that executes loop iterations in a modified order";
///  * doacross (§5.1.2 baseline): the self-executing mechanism over the
///    *original* index order;
///  * self-scheduled / windowed: the fetch-and-add and bounded-skew
///    extensions (§3; Nicol & Saltz [13]).
namespace rtl {

/// How the index set is reordered (§2.3).
enum class SchedulingPolicy {
  /// Topological sort of the whole index set, dealt wrapped to processors.
  kGlobal,
  /// Fixed wrapped partition; each processor locally sorted by wavefront.
  kLocalWrapped,
  /// Fixed block partition; each processor locally sorted by wavefront.
  kLocalBlock,
};

/// How dependences are enforced during execution (§2.2 + extensions).
enum class ExecutionPolicy {
  /// Global synchronization between wavefronts (Figure 5).
  kPreScheduled,
  /// Busy-waits on a shared ready array (Figure 4).
  kSelfExecuting,
  /// Original iteration order + ready array (the baseline of §5.1.2).
  kDoAcross,
  /// Threads claim wavefront-sorted indices from a shared fetch-and-add
  /// cursor (extension; cf. the self-scheduling schemes discussed in §3).
  kSelfScheduled,
  /// Global barrier every `DoconsiderOptions::window` wavefronts, ready
  /// flags inside each window (extension; cf. Nicol & Saltz [13]).
  kWindowed,
};

/// Plan options.
struct DoconsiderOptions {
  SchedulingPolicy scheduling = SchedulingPolicy::kGlobal;
  ExecutionPolicy execution = ExecutionPolicy::kSelfExecuting;
  /// Run the inspector's wavefront sweep in parallel on the team (§2.3).
  /// Does not change the produced artifact, only how fast it is built.
  bool parallel_inspector = false;
  /// kWindowed only: number of wavefronts between global barriers (>= 1).
  index_t window = 4;
  /// kPreScheduled / kSelfExecuting only: run the §5.1.2 rotating
  /// instrumented variant — every processor executes all schedules, so the
  /// run is perfectly load balanced, does P times the work, keeps all
  /// synchronization memory traffic but never actually waits.
  bool instrumented = false;

  /// Field-wise equality (used by the plan cache's disk tier and plan_io
  /// to verify that a restored plan answers exactly the request made).
  bool operator==(const DoconsiderOptions&) const = default;
};

/// Options with the fields that do not apply to `execution` forced to a
/// canonical value, so equivalent requests compare (and cache-key) equal.
[[nodiscard]] constexpr DoconsiderOptions normalized_options(
    DoconsiderOptions o) noexcept {
  if (o.execution == ExecutionPolicy::kWindowed) {
    if (o.window < 1) o.window = 1;
  } else {
    o.window = 0;
  }
  if (o.execution != ExecutionPolicy::kPreScheduled &&
      o.execution != ExecutionPolicy::kSelfExecuting) {
    o.instrumented = false;
  }
  // kDoAcross runs the original index order and kSelfScheduled consumes
  // only the wavefront-sorted list, so the scheduling policy cannot
  // influence execution; canonicalize it so equivalent requests share one
  // cache entry.
  if (o.execution == ExecutionPolicy::kDoAcross ||
      o.execution == ExecutionPolicy::kSelfScheduled) {
    o.scheduling = SchedulingPolicy::kGlobal;
  }
  return o;
}

namespace detail {

/// Invoke a loop body as `body(tid, i)` when it accepts the executing
/// thread id (needed e.g. for per-thread factorization workspaces), else
/// as `body(i)`.
template <class Body>
inline void invoke_body(Body& body, int tid, index_t i) {
  if constexpr (std::is_invocable_v<Body&, int, index_t>) {
    body(tid, i);
  } else {
    body(i);
  }
}

}  // namespace detail

}  // namespace rtl
