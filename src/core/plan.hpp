#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/executors.hpp"
#include "core/partition.hpp"
#include "core/schedule.hpp"
#include "graph/dependence_graph.hpp"
#include "graph/wavefront.hpp"
#include "runtime/barrier.hpp"
#include "runtime/ready_flags.hpp"
#include "runtime/thread_team.hpp"

/// Plan/Runtime API v2 — the inspector artifact and its execution engine.
///
/// The paper's whole economic argument is that the inspector is paid once
/// and amortized over many executor runs (§5.1.1). The v2 API makes that
/// literal: a `Plan` is an immutable compiled artifact (dependence graph +
/// wavefronts + schedule + a deterministic structure fingerprint) whose
/// `execute()` is const and safe to call concurrently from *distinct*
/// thread teams; all per-execution mutable state (the ready array of
/// Figure 4, the self-scheduling cursor) lives in an `ExecState` that is
/// created — or transparently pooled — at execute() time.
///
/// Because the inspector artifact is the executor's hot-path data
/// structure, it is stored flat: the schedule and wavefront membership are
/// contiguous CSR-style arrays (core/schedule.hpp, graph/wavefront.hpp),
/// and every executor shape — reachable through `Plan::execute` via
/// `ExecutionPolicy`, including the dynamically self-scheduled and
/// windowed-hybrid extensions and the §5.1.2 rotating instrumented
/// variants behind `DoconsiderOptions::instrumented` — is a private,
/// span-driven method of `Plan`, templated on the body (no `std::function`
/// in the loop). `memory_footprint()` / `stats()` expose the artifact's
/// size and shape for CLIs and the bench JSON.
namespace rtl {

class Plan;

namespace detail {
// Deserialization gateway (core/plan_io.cpp): the only caller of Plan's
// inspector-free adoption constructor.
struct PlanRestorer;
}  // namespace detail

/// Summary of a plan's inspector artifact: the shape of the parallelism it
/// found and the bytes the executor walks per run.
struct PlanStats {
  /// Loop iterations covered.
  index_t n = 0;
  /// Dependence edges.
  index_t edges = 0;
  /// Wavefronts (== barrier phases of the pre-scheduled executor).
  index_t phases = 0;
  /// Widest wavefront (the available parallelism ceiling).
  index_t max_wavefront = 0;
  /// Mean wavefront width (n / phases; 0 for an empty plan).
  double avg_wavefront = 0.0;
  /// Total bytes of the immutable artifact (== memory_footprint()).
  std::size_t bytes = 0;
  /// Bytes of the bind-time execution layout (kernel/layout.hpp) when the
  /// stats come from a bound kernel; 0 for a bare plan, which owns no
  /// layout. Included in `bytes` when nonzero.
  std::size_t layout_bytes = 0;
};

/// Per-execution mutable state: the shared ready array and the
/// self-scheduling cursor. One ExecState serves one execution at a time;
/// distinct concurrent executions of the same `Plan` need distinct states
/// (pass none to `Plan::execute` and one is pooled automatically).
class ExecState {
 public:
  /// State sized for `plan` (ready flags only when its policy uses them).
  /// This is the only constructor: a state not sized for a plan would be
  /// out-of-bounds the moment a ready-using policy executes with it.
  explicit ExecState(const Plan& plan);

  ExecState(const ExecState&) = delete;
  ExecState& operator=(const ExecState&) = delete;

  [[nodiscard]] ReadyFlags& ready() noexcept { return ready_; }
  [[nodiscard]] std::atomic<index_t>& cursor() noexcept { return cursor_; }

 private:
  ReadyFlags ready_;
  alignas(cache_line_size) std::atomic<index_t> cursor_{0};
};

/// Immutable, shareable inspector artifact: dependence graph + wavefronts
/// + per-processor schedule + structure fingerprint, compiled for a fixed
/// processor count. `execute()` is const; a Plan may be shared (e.g. via
/// `std::shared_ptr<const Plan>` handed out by `rtl::Runtime`) and
/// executed concurrently from distinct thread teams of the same size.
class Plan {
 public:
  /// Run the inspector for `graph` on `team.size()` processors.
  Plan(ThreadTeam& team, DependenceGraph graph, DoconsiderOptions options = {})
      : Plan(team, std::move(graph), options, std::nullopt) {}

  Plan(const Plan&) = delete;
  Plan& operator=(const Plan&) = delete;

  /// Execute the loop body under the planned order using `state` for the
  /// per-execution synchronization data. `body(i)` (or `body(tid, i)`)
  /// must perform the work of iteration i and may read any value produced
  /// by an iteration in `graph().deps(i)`. Const and safe to call
  /// concurrently from distinct teams with distinct states; `team` must
  /// have the processor count the plan was compiled for.
  ///
  /// Batched bodies (kernel/bound_kernel.hpp) sweep all k right-hand
  /// sides of iteration i before returning, so the synchronization cost
  /// is independent of k: the pre-scheduled executor still pays one
  /// barrier per wavefront phase and the flag-based executors one ready
  /// publish per iteration — a published flag i promises iteration i's
  /// results for every right-hand side.
  template <class Body>
  void execute(ThreadTeam& team, Body&& body, ExecState& state) const {
    assert(team.size() == nproc_ &&
           "plan compiled for a different team size");
    switch (options_.execution) {
      case ExecutionPolicy::kPreScheduled:
        if (options_.instrumented) {
          run_rotating_prescheduled(team, body);
        } else {
          run_prescheduled(team, body);
        }
        break;
      case ExecutionPolicy::kSelfExecuting:
        if (options_.instrumented) {
          run_rotating_self(team, state.ready(), body);
        } else {
          run_self(team, state.ready(), body);
        }
        break;
      case ExecutionPolicy::kDoAcross:
        run_doacross(team, state.ready(), body);
        break;
      case ExecutionPolicy::kSelfScheduled:
        run_self_scheduled(team, state.ready(), state.cursor(), body);
        break;
      case ExecutionPolicy::kWindowed:
        run_windowed(team, state.ready(), body);
        break;
    }
  }

  /// Execute with a pooled ExecState: acquires a state from the plan's
  /// internal pool (allocating on first use), so concurrent callers never
  /// share synchronization data. The pool is the only mutable member and
  /// is mutex-guarded; the plan stays logically immutable.
  template <class Body>
  void execute(ThreadTeam& team, Body&& body) const {
    const StateLease lease(*this);
    execute(team, std::forward<Body>(body), lease.state());
  }

  [[nodiscard]] const DependenceGraph& graph() const noexcept {
    return graph_;
  }
  [[nodiscard]] const WavefrontInfo& wavefronts() const noexcept {
    return wavefronts_;
  }
  [[nodiscard]] const Schedule& schedule() const noexcept { return schedule_; }
  [[nodiscard]] const DoconsiderOptions& options() const noexcept {
    return options_;
  }
  /// Number of loop iterations covered.
  [[nodiscard]] index_t size() const noexcept { return graph_.size(); }
  /// Processor count the plan was compiled for.
  [[nodiscard]] int nproc() const noexcept { return nproc_; }
  /// Deterministic fingerprint of the dependence structure (the cache key
  /// component of `rtl::Runtime`). Equal structures hash equal across
  /// processes; distinct structures collide with probability ~2^-64.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return fingerprint_;
  }
  /// Whether executions under this plan's policy use the ready array.
  [[nodiscard]] bool needs_ready_flags() const noexcept {
    return options_.execution != ExecutionPolicy::kPreScheduled;
  }

  /// Bytes of the immutable artifact the executor walks: the dependence
  /// CSR, the wavefront levels + membership CSR, and the flat schedule.
  /// (Excludes per-execution ExecState pools — those are transient.)
  [[nodiscard]] std::size_t memory_footprint() const noexcept {
    constexpr std::size_t idx = sizeof(index_t);
    const std::size_t entries =
        graph_.ptr().size() + graph_.adj().size() + wavefronts_.wave.size() +
        wavefronts_.order.size() + wavefronts_.wave_ptr.size() +
        schedule_.order.size() + schedule_.proc_ptr.size() +
        schedule_.phase_ptr.size();
    return entries * idx;
  }

  /// Shape-and-size summary (surfaced by inspect_cli and the bench JSON).
  [[nodiscard]] PlanStats stats() const noexcept {
    PlanStats st;
    st.n = graph_.size();
    st.edges = graph_.num_edges();
    st.phases = wavefronts_.num_waves;
    st.max_wavefront = wavefronts_.max_wave_size();
    st.avg_wavefront =
        st.phases > 0
            ? static_cast<double>(st.n) / static_cast<double>(st.phases)
            : 0.0;
    st.bytes = memory_footprint();
    return st;
  }

 private:
  friend class ExecState;
  // Runtime::plan_for already hashed the graph for its cache key and
  // passes the value through the trusted constructor below.
  friend class Runtime;
  // load_plan (core/plan_io) restores a serialized artifact through the
  // adoption constructor below after validating every invariant.
  friend struct detail::PlanRestorer;

  /// Primary constructor: `fingerprint`, when provided, must equal
  /// `graph.fingerprint()` — callers other than Runtime pass nullopt.
  Plan(ThreadTeam& team, DependenceGraph graph, DoconsiderOptions options,
       std::optional<std::uint64_t> fingerprint)
      : graph_(std::move(graph)),
        options_(normalized_options(options)),
        nproc_(team.size()),
        fingerprint_(fingerprint ? *fingerprint : graph_.fingerprint()) {
    wavefronts_ = options_.parallel_inspector
                      ? compute_wavefronts_parallel(graph_, team)
                      : compute_wavefronts(graph_);
    switch (options_.scheduling) {
      case SchedulingPolicy::kGlobal:
        schedule_ = global_schedule(wavefronts_, nproc_);
        break;
      case SchedulingPolicy::kLocalWrapped:
        schedule_ = local_schedule(wavefronts_,
                                   wrapped_partition(graph_.size(), nproc_));
        break;
      case SchedulingPolicy::kLocalBlock:
        schedule_ = local_schedule(wavefronts_,
                                   block_partition(graph_.size(), nproc_));
        break;
    }
  }

  /// Adoption constructor (plan_io deserialization): take a pre-built,
  /// fully validated artifact without running the inspector. `options`
  /// must already be normalized and `fingerprint` must equal
  /// `graph.fingerprint()` — `load_plan` enforces both before reaching
  /// this point.
  Plan(DependenceGraph graph, DoconsiderOptions options, int nproc,
       std::uint64_t fingerprint, WavefrontInfo wavefronts,
       Schedule schedule)
      : graph_(std::move(graph)),
        options_(options),
        nproc_(nproc),
        fingerprint_(fingerprint),
        wavefronts_(std::move(wavefronts)),
        schedule_(std::move(schedule)) {}

  // -------------------------------------------------------------------
  // The executors: transformed loop structures that carry out the
  // calculations planned by the scheduler (§1, §2.2). All guarantee that
  // `body(i)` runs only after `body(d)` completed for every d in
  // `graph().deps(i)`; they differ in how that guarantee is enforced.
  // Each walks the flat schedule through raw spans — one contiguous
  // `order` array plus row-pointer offsets — so the per-iteration cost is
  // an indexed load, never a pointer chase through nested vectors.
  // -------------------------------------------------------------------

  /// Pre-scheduled executor: every processor runs its phase-w indices,
  /// then joins a global barrier, for each phase in turn (Figure 5).
  template <class Body>
  void run_prescheduled(ThreadTeam& team, Body& body) const {
    team.run([&](int tid) {
      BarrierToken bar(team.barrier());
      std::uint64_t waits = 0;
      const index_t* ord = schedule_.order.data();
      const auto row = schedule_.phase_row(tid);
      for (index_t w = 0; w < schedule_.num_phases; ++w) {
        for (index_t k = row[static_cast<std::size_t>(w)];
             k < row[static_cast<std::size_t>(w) + 1]; ++k) {
          detail::invoke_body(body, tid, ord[static_cast<std::size_t>(k)]);
        }
        bar.wait();
        ++waits;
      }
      team.add_exec_counters(0, waits);
    });
  }

  /// Self-executing executor: busy-wait on the ready flags of each
  /// dependence, run the body, publish completion (Figure 4). `ready` is
  /// reset on entry.
  template <class Body>
  void run_self(ThreadTeam& team, ReadyFlags& ready, Body& body) const {
    ready.reset();
    team.run([&](int tid) {
      std::uint64_t pubs = 0;
      for (const index_t i : schedule_.proc(tid)) {
        for (const index_t d : graph_.deps(i)) ready.wait(d);
        detail::invoke_body(body, tid, i);
        ready.set(i);
        ++pubs;
      }
      team.add_exec_counters(pubs, 0);
    });
  }

  /// Doacross baseline: original iteration order striped over processors,
  /// synchronized through the ready array. Equivalent to `run_self` over
  /// `original_order_schedule` but without any indirection through a
  /// reordered index list (the paper notes the doacross loop "does not
  /// have to perform array references to access the reordered index set").
  template <class Body>
  void run_doacross(ThreadTeam& team, ReadyFlags& ready, Body& body) const {
    ready.reset();
    const index_t n = graph_.size();
    const int p = team.size();
    team.run([&](int tid) {
      std::uint64_t pubs = 0;
      for (index_t i = tid; i < n; i += p) {
        for (const index_t d : graph_.deps(i)) ready.wait(d);
        detail::invoke_body(body, tid, i);
        ready.set(i);
        ++pubs;
      }
      team.add_exec_counters(pubs, 0);
    });
  }

  /// Rotating-processor run of the self-executing code (§5.1.2): every
  /// processor executes the schedules of *all* processors in rotation, so
  /// the run is perfectly load balanced and does P times the work. All
  /// ready-flag reads and writes still occur, but flags are pre-set so no
  /// waiting happens. Time it externally and divide by P.
  template <class Body>
  void run_rotating_self(ThreadTeam& team, ReadyFlags& ready,
                         Body& body) const {
    // Pre-publish every flag: the wait loops fall through on first read.
    ready.reset();
    for (index_t i = 0; i < schedule_.n; ++i) ready.set(i);
    const int p = team.size();
    team.run([&](int tid) {
      for (int shift = 0; shift < p; ++shift) {
        const int owner = (tid + shift) % p;
        for (const index_t i : schedule_.proc(owner)) {
          for (const index_t d : graph_.deps(i)) ready.wait(d);
          detail::invoke_body(body, tid, i);
          ready.set(i);
        }
      }
    });
  }

  /// Rotating-processor run of the pre-scheduled code (§5.1.2): like
  /// `run_rotating_self` but with neither barriers nor ready-array
  /// traffic (the pre-scheduled loop keeps no completion array).
  template <class Body>
  void run_rotating_prescheduled(ThreadTeam& team, Body& body) const {
    const int p = team.size();
    team.run([&](int tid) {
      for (int shift = 0; shift < p; ++shift) {
        const int owner = (tid + shift) % p;
        for (const index_t i : schedule_.proc(owner)) {
          detail::invoke_body(body, tid, i);
        }
      }
    });
  }

  /// Dynamically self-scheduled executor (extension; cf. the
  /// self-scheduling schemes of Lusk/Overbeek and Tang/Yew discussed in
  /// §3): instead of a static index-to-processor assignment, threads claim
  /// consecutive entries of the wavefront-sorted list (`wavefronts().order`,
  /// a dependence-consistent permutation of 0..n-1) from a shared
  /// fetch-and-add cursor; dependences are still enforced through the
  /// ready array. Trades the cursor's contention for automatic load
  /// balance when per-iteration work is irregular.
  template <class Body>
  void run_self_scheduled(ThreadTeam& team, ReadyFlags& ready,
                          std::atomic<index_t>& cursor, Body& body) const {
    ready.reset();
    cursor.store(0, std::memory_order_relaxed);
    const index_t* ord = wavefronts_.order.data();
    const index_t n = static_cast<index_t>(wavefronts_.order.size());
    team.run([&](int tid) {
      std::uint64_t pubs = 0;
      for (;;) {
        const index_t k = cursor.fetch_add(1, std::memory_order_relaxed);
        if (k >= n) break;
        const index_t i = ord[static_cast<std::size_t>(k)];
        for (const index_t d : graph_.deps(i)) ready.wait(d);
        detail::invoke_body(body, tid, i);
        ready.set(i);
        ++pubs;
      }
      team.add_exec_counters(pubs, 0);
    });
  }

  /// Windowed hybrid executor (extension): global synchronization every
  /// `options().window` wavefronts, ready-array busy-waits *inside* each
  /// window. Interpolates between the paper's two executors — window = 1
  /// is the pre-scheduled loop with (redundant) flag traffic, window >=
  /// num_phases is the self-executing loop with one trailing barrier. The
  /// flags make intra-window cross-processor dependences safe, so any
  /// window size is correct; the barrier bounds how far the wavefront
  /// pipeline can skew, which caps the ready-flag working set. Cf. the
  /// synchronization-rearrangement tradeoff of Nicol & Saltz [13].
  template <class Body>
  void run_windowed(ThreadTeam& team, ReadyFlags& ready, Body& body) const {
    const index_t window = options_.window;
    assert(window >= 1);
    ready.reset();
    team.run([&](int tid) {
      BarrierToken bar(team.barrier());
      std::uint64_t pubs = 0;
      std::uint64_t waits = 0;
      const index_t* ord = schedule_.order.data();
      const auto row = schedule_.phase_row(tid);
      for (index_t w0 = 0; w0 < schedule_.num_phases; w0 += window) {
        const index_t w1 = std::min(schedule_.num_phases, w0 + window);
        for (index_t k = row[static_cast<std::size_t>(w0)];
             k < row[static_cast<std::size_t>(w1)]; ++k) {
          const index_t i = ord[static_cast<std::size_t>(k)];
          for (const index_t d : graph_.deps(i)) ready.wait(d);
          detail::invoke_body(body, tid, i);
          ready.set(i);
          ++pubs;
        }
        bar.wait();
        ++waits;
      }
      team.add_exec_counters(pubs, waits);
    });
  }

  /// RAII lease of a pooled ExecState.
  class StateLease {
   public:
    explicit StateLease(const Plan& plan) : plan_(plan) {
      {
        const std::lock_guard<std::mutex> lock(plan.pool_mutex_);
        if (!plan.pool_.empty()) {
          state_ = std::move(plan.pool_.back());
          plan.pool_.pop_back();
        }
      }
      if (!state_) state_ = std::make_unique<ExecState>(plan);
    }
    ~StateLease() {
      const std::lock_guard<std::mutex> lock(plan_.pool_mutex_);
      plan_.pool_.push_back(std::move(state_));
    }
    StateLease(const StateLease&) = delete;
    StateLease& operator=(const StateLease&) = delete;
    [[nodiscard]] ExecState& state() const noexcept { return *state_; }

   private:
    const Plan& plan_;
    std::unique_ptr<ExecState> state_;
  };

  DependenceGraph graph_;
  DoconsiderOptions options_;
  int nproc_;
  std::uint64_t fingerprint_;
  WavefrontInfo wavefronts_;
  Schedule schedule_;

  mutable std::mutex pool_mutex_;
  mutable std::vector<std::unique_ptr<ExecState>> pool_;
};

inline ExecState::ExecState(const Plan& plan)
    : ready_(plan.needs_ready_flags() ? ReadyFlags(plan.size())
                                      : ReadyFlags()) {}

/// One-shot convenience: inspector + a single execution. Prefer building a
/// `Plan` (or asking a `rtl::Runtime` for one) when the loop runs more
/// than once.
template <class Body>
void doconsider(ThreadTeam& team, DependenceGraph graph, Body&& body,
                DoconsiderOptions options = {}) {
  const Plan plan(team, std::move(graph), options);
  plan.execute(team, std::forward<Body>(body));
}

}  // namespace rtl
