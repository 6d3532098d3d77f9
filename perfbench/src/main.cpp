// The benchmark program: one workload, one seed, one run.
//
//   perfbench --workload <table1|stencil-large|batched-rhs|service>
//             --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// It drives the library only through its public API with the defaults a
// user gets (ILU(0) `IluPreconditioner` on a `Runtime` of nproc members,
// default `DoconsiderOptions`, GMRES(30) at rtol 1e-8 from x0 = 0; a
// `SolveService` with default `ServiceConfig`), checks every output
// against the benchmark's own computations (reference.hpp), and prints
// the result as one JSON line last. See README.md for the metrics.

#include <array>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/runtime.hpp"
#include "graph/wavefront.hpp"
#include "kernel/bound_kernel.hpp"
#include "kernel/spmv_kernel.hpp"
#include "model/calibration.hpp"
#include "reference.hpp"
#include "service/solve_service.hpp"
#include "solver/ilu_preconditioner.hpp"
#include "solver/krylov.hpp"
#include "sparse/ilu.hpp"
#include "sparse/parallel_ops.hpp"
#include "sparse/triangular.hpp"
#include "util.hpp"

namespace perfbench {
namespace {

// Solver settings of every Krylov solve (a user's defaults).
constexpr double kRtol = 1e-8;
constexpr int kIluLevel = 0;
// The true residual ||b - Ax||/||b|| a converged solve must meet, as a
// multiple of rtol: left-preconditioned GMRES stops on the preconditioned
// residual, so the true one may exceed rtol (README.md).
constexpr double kResidualFactor = 10.0;
// Width of the batched-rhs workload and of the apply_batch probe.
constexpr index_t kBatch = 16;
// Service: logical clients of the closed loop, rhs pool per problem, and
// the tolerance of a reply against the benchmark's own substitution.
constexpr int kClients = 8;
constexpr int kPoolSize = 16;
constexpr double kReplyTol = 1e-10;
// Requests per client in one closed-loop episode (kClients * kPerClient
// requests, about half a second), and the range of the seeded delays
// after which the clients start, about one request's latency.
constexpr int kPerClient = 25;
constexpr double kStaggerMs = 20.0;
// Environment knobs the kernels read at bind time: a run must not inherit
// them, or it would measure another configuration than the default.
constexpr const char* kPinnedEnv[] = {"RTL_PROCS", "RTL_SIMD", "RTL_LAYOUT",
                                      "RTL_PLAN_CACHE_DIR"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

/// Workload shape: the named problems (service_workload names) and how
/// its operation drives them.
enum class Kind { kKrylovSingle, kKrylovBatched, kService };

struct Workload {
  Kind kind;
  std::vector<std::string> problems;
  int setups;   // set-ups per run; setup_s is their median
  int min_ops;  // operations (service: episodes) a run makes at least,
                // and the undisturbed ones it waits for (up to twice its
                // length)
};

Workload workload_for(const std::string& name) {
  if (name == "table1") {
    return {Kind::kKrylovSingle,
            {"spe1", "spe2", "spe3", "spe4", "spe5", "5pt", "9pt", "7pt"},
            25, 100};
  }
  if (name == "stencil-large") return {Kind::kKrylovSingle, {"7pt:60"}, 7, 3};
  if (name == "batched-rhs") return {Kind::kKrylovBatched, {"7pt:30"}, 25, 3};
  if (name == "service") return {Kind::kService, {"5pt:200"}, 15, 10};
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// splitmix64 step: derives independent per-(problem, column) seeds.
std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (a + 1) +
                    0xbf58476d1ce4e5b9ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

rtl::KrylovOptions krylov_options() {
  rtl::KrylovOptions o;
  o.rtol = kRtol;
  return o;
}

int nproc() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

struct Problem {
  std::string name;
  rtl::CsrMatrix a;
  std::vector<real_t> rhs;  // the generator's own right-hand side
};

std::vector<Problem> load_problems(const Workload& w) {
  std::vector<Problem> out;
  for (const std::string& name : w.problems) {
    rtl::LinearSystem sys = rtl::service_workload(name);
    out.push_back({name, std::move(sys.a), std::move(sys.rhs)});
  }
  return out;
}

/// The production set-up a user performs: a Runtime of nproc members and
/// one factored ILU(0) preconditioner per problem.
struct Production {
  std::unique_ptr<rtl::Runtime> rt;
  std::vector<std::unique_ptr<rtl::IluPreconditioner>> pc;
};

Production build_production(const std::vector<Problem>& problems) {
  Production p;
  p.rt = std::make_unique<rtl::Runtime>(nproc());
  for (const Problem& pr : problems) {
    p.pc.push_back(
        std::make_unique<rtl::IluPreconditioner>(*p.rt, pr.a, kIluLevel));
    p.pc.back()->factor(p.rt->team(), pr.a);
  }
  return p;
}

/// Build the production set-up `count` times (each on a fresh Runtime,
/// the previous one destroyed first so no two teams coexist); returns the
/// last and stores every set-up time.
Production timed_setups(const std::vector<Problem>& problems, int count,
                        std::vector<Tagged>& setup_s) {
  Production p;
  for (int i = 0; i < count; ++i) {
    p = Production{};
    const CpuTicks c0 = cpu_ticks();
    const auto t0 = Clock::now();
    p = build_production(problems);
    setup_s.push_back({seconds_since(t0), disturbed(c0, cpu_ticks())});
  }
  return p;
}

/// What the per-layer probes report, accumulated over a workload's
/// problems (a table1 figure is the sum over its eight problems).
struct Layers {
  double ilu_symbolic_ms = 0, ilu_factor_ms = 0, dot_us = 0,
         wavefronts_ms = 0, plan_for_cold_ms = 0, inspector_runs = 0,
         plan_phases = 0, plan_bytes = 0, bind_ms = 0, apply_ms = 0,
         apply_batch_ms = 0, spmv_ms = 0, apply_bytes = 0, seq_apply_ms = 0,
         dispatch_us = 0, barrier_us = 0;
  double flag_publishes_per_op = 0, barrier_waits_per_op = 0,
         steals_per_op = 0;
  double iterations_per_op = 0, precond_ms_per_op = 0,
         krylov_self_ms_per_op = 0, ref_op_ms = 0, speedup_vs_seq = 0;
  double mean_batch_width = 0, multi_request_batches = 0,
         queue_depth_peak = 0, internal_p50_ms = 0, internal_p99_ms = 0,
         open_workload_ms = 0;
  double warmup_s = 0;
};

/// Median wall time (ms) of `reps` calls of `f`.
template <typename F>
double median_ms(int reps, F&& f) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    f();
    t.push_back(ms_between(t0, Clock::now()));
  }
  return median(std::move(t));
}

/// Reps of a micro-probe so that it costs about `budget_ms` in total.
int reps_for(double one_ms, double budget_ms, int lo, int hi) {
  const double r = one_ms > 0 ? budget_ms / one_ms : hi;
  return static_cast<int>(std::clamp<double>(r, lo, hi));
}

/// Traced set-up probe: the public steps `IluPreconditioner` performs,
/// one span each, on a fresh Runtime so the inspector really runs.
void probe_setup(const std::vector<Problem>& problems, SpanRecorder& rec,
                 Layers& L) {
  rtl::Runtime rt(nproc());
  for (const Problem& pr : problems) {
    ScopedSpan setup(rec, "setup." + pr.name);
    auto t0 = Clock::now();
    std::unique_ptr<rtl::IluFactorization> ilu;
    {
      ScopedSpan s(rec, "sparse.ilu_symbolic");
      ilu = std::make_unique<rtl::IluFactorization>(pr.a, kIluLevel);
    }
    L.ilu_symbolic_ms += ms_between(t0, Clock::now());

    t0 = Clock::now();
    {
      ScopedSpan s(rec, "graph.wavefronts");
      const rtl::WavefrontInfo wf =
          rtl::compute_wavefronts(rtl::lower_solve_dependences(ilu->lower()));
      if (wf.num_waves <= 0) throw std::runtime_error("no wavefronts");
    }
    L.wavefronts_ms += ms_between(t0, Clock::now());

    t0 = Clock::now();
    std::shared_ptr<const rtl::Plan> lower_plan, upper_plan;
    {
      ScopedSpan s(rec, "core.plan_for");
      (void)rt.plan_for(ilu->row_dependences());
      lower_plan = rt.plan_for(rtl::lower_solve_dependences(ilu->lower()));
      upper_plan = rt.plan_for(rtl::upper_solve_dependences(ilu->upper()));
    }
    L.plan_for_cold_ms += ms_between(t0, Clock::now());

    t0 = Clock::now();
    {
      ScopedSpan s(rec, "kernel.bind");
      rtl::IluApplyKernel k(rtl::BoundKernel::lower(lower_plan, ilu->lower()),
                            rtl::BoundKernel::upper(upper_plan, ilu->upper()));
      L.plan_phases += static_cast<double>(k.lower().plan().stats().phases +
                                           k.upper().plan().stats().phases);
      L.plan_bytes += static_cast<double>(k.lower().memory_footprint() +
                                          k.upper().memory_footprint());
      L.apply_bytes += static_cast<double>(k.lower().bytes_per_solve(1) +
                                           k.upper().bytes_per_solve(1));
    }
    L.bind_ms += ms_between(t0, Clock::now());

    // The preconditioner itself: every plan is a cache hit now, so its
    // constructor only repeats the symbolic phase and the bind.
    std::unique_ptr<rtl::IluPreconditioner> pc;
    {
      ScopedSpan s(rec, "solver.ilu_preconditioner");
      pc = std::make_unique<rtl::IluPreconditioner>(rt, pr.a, kIluLevel);
    }
    t0 = Clock::now();
    {
      ScopedSpan s(rec, "sparse.ilu_factor");
      pc->factor(rt.team(), pr.a);
    }
    L.ilu_factor_ms += ms_between(t0, Clock::now());
  }
  L.inspector_runs = static_cast<double>(rt.plan_cache_counters().misses);
}

/// Traced kernel/runtime micro-probes on the production set-up.
void probe_kernels(const std::vector<Problem>& problems, Production& p,
                   SpanRecorder& rec, Layers& L) {
  rtl::ThreadTeam& team = p.rt->team();
  for (std::size_t i = 0; i < problems.size(); ++i) {
    const rtl::CsrMatrix& a = problems[i].a;
    rtl::IluPreconditioner& pc = *p.pc[i];
    const index_t n = a.rows();
    const std::vector<real_t> r = seeded_vector(n, 12345);
    std::vector<real_t> z(static_cast<std::size_t>(n));

    ScopedSpan probe(rec, "probe." + problems[i].name);
    pc.apply(team, r, z);  // touch before timing
    const double one = median_ms(3, [&] { pc.apply(team, r, z); });
    {
      ScopedSpan s(rec, "kernel.apply");
      L.apply_ms += median_ms(reps_for(one, 300, 5, 200),
                              [&] { pc.apply(team, r, z); });
    }
    {
      ScopedSpan s(rec, "kernel.seq_apply");
      SeqIluPreconditioner seq(pc.factors());
      L.seq_apply_ms += median_ms(reps_for(one, 300, 5, 200),
                                  [&] { seq.apply(r, z); });
    }
    {
      ScopedSpan s(rec, "kernel.apply_batch");
      rtl::BatchBuffer rb(n, kBatch), zb(n, kBatch);
      for (index_t j = 0; j < kBatch; ++j) rb.set_column(j, r);
      L.apply_batch_ms += median_ms(reps_for(one * kBatch, 300, 3, 100), [&] {
        pc.apply_batch(team, rb.view(), zb.view());
      });
    }
    {
      ScopedSpan s(rec, "kernel.spmv");
      const rtl::SpMVKernel spmv = rtl::SpMVKernel::bind(a);
      L.spmv_ms += median_ms(reps_for(one / 2, 200, 5, 400),
                             [&] { spmv.apply(team, r, z); });
    }
    {
      ScopedSpan s(rec, "sparse.dot");
      volatile real_t sink = 0;
      L.dot_us +=
          1e3 * median_ms(200, [&] { sink = rtl::par_dot(team, r, z); });
      (void)sink;
    }
  }
  {
    ScopedSpan s(rec, "runtime.dispatch");
    L.dispatch_us = 1e3 * median_ms(2000, [&] { team.run([](int) {}); });
  }
  {
    ScopedSpan s(rec, "runtime.barrier");
    std::vector<double> b;
    for (int i = 0; i < 5; ++i) {
      b.push_back(rtl::measure_barrier_ms(team, 1000));
    }
    L.barrier_us = median(b);  // ms per 1000 barriers == us per barrier
  }
}

// --------------------------------------------------------------------------
// Krylov workloads
// --------------------------------------------------------------------------

/// One problem's inputs and its sequential reference.
struct KrylovCase {
  std::vector<std::vector<real_t>> b;  // one rhs per column
  std::vector<int> ref_iterations;     // per column
  double ref_ms = 0;                   // reference time, all columns
};

/// Sequential reference: the same GMRES on a 1-thread Runtime with the
/// natural-order substitution over the production factors.
void run_reference(const rtl::CsrMatrix& a, const rtl::IluFactorization& ilu,
                   KrylovCase& c, SpanRecorder& rec, RunResult& res) {
  rtl::Runtime ref_rt(1);
  SeqIluPreconditioner seq(ilu);
  ScopedSpan s(rec, "solver.reference");
  for (const std::vector<real_t>& b : c.b) {
    std::vector<real_t> x(b.size(), 0.0);
    const auto t0 = Clock::now();
    const rtl::KrylovResult kr =
        rtl::gmres_solve(ref_rt, a, b, x, &seq, krylov_options());
    c.ref_ms += ms_between(t0, Clock::now());
    c.ref_iterations.push_back(kr.iterations);
    const double rr = true_relative_residual(a, b, x);
    if (!kr.converged || rr > kResidualFactor * kRtol) {
      std::cerr << "reference solve did not converge (residual " << rr
                << ")\n";
      res.correct = false;
    }
  }
}

/// Check one production solve against the reference; prints the first
/// few failures.
bool check_solve(const rtl::CsrMatrix& a, std::span<const real_t> b,
                 std::span<const real_t> x, const rtl::KrylovResult& kr,
                 int ref_iterations, const std::string& what,
                 double& max_residual) {
  const double rr = true_relative_residual(a, b, x);
  max_residual = std::max(max_residual, rr);
  const bool ok = kr.converged && kr.iterations == ref_iterations &&
                  rr <= kResidualFactor * kRtol;
  static int reported = 0;
  if (!ok && reported++ < 5) {
    std::cerr << "check failed: " << what << " converged=" << kr.converged
              << " iterations=" << kr.iterations << " (reference "
              << ref_iterations << ") residual=" << rr << "\n";
  }
  return ok;
}

/// Batched columns against single-RHS production solves of the same
/// columns: equal iteration counts and true residuals.
bool check_batched_columns(const rtl::CsrMatrix& a, Production& p,
                           const KrylovCase& c,
                           const std::vector<rtl::KrylovResult>& batched,
                           const rtl::BatchBuffer& xb) {
  bool ok = true;
  const index_t n = a.rows();
  std::vector<real_t> xcol(static_cast<std::size_t>(n));
  for (index_t j = 0; j < kBatch; ++j) {
    const std::vector<real_t>& b = c.b[static_cast<std::size_t>(j)];
    std::vector<real_t> x(b.size(), 0.0);
    const rtl::KrylovResult kr =
        rtl::gmres_solve(*p.rt, a, b, x, p.pc[0].get(), krylov_options());
    xb.view().get_column(j, xcol);
    const double r_single = true_relative_residual(a, b, x);
    const double r_batch = true_relative_residual(a, b, xcol);
    const bool col_ok =
        kr.iterations == batched[static_cast<std::size_t>(j)].iterations &&
        std::abs(r_single - r_batch) <= 1e-6 * r_single;
    if (!col_ok) {
      std::cerr << "batched column " << j
                << " differs from its single solve: iterations "
                << batched[static_cast<std::size_t>(j)].iterations << " vs "
                << kr.iterations << ", residual " << r_batch
                << " vs " << r_single << "\n";
      ok = false;
    }
  }
  return ok;
}

struct LoopResult {
  OpSamples op_ms;  // every operation, and those that passed their checks
  std::size_t undisturbed = 0;  // passed operations the hypervisor left alone
  rtl::ExecCounters exec;  // team counter delta over the timed loop
  double iterations = 0;   // total GMRES iterations, timed loop
  double max_residual = 0; // largest true relative residual, timed loop
};

rtl::ExecCounters delta(const rtl::ExecCounters& a,
                        const rtl::ExecCounters& b) {
  return {b.flag_publishes - a.flag_publishes, b.steals - a.steals,
          b.barrier_waits - a.barrier_waits};
}

/// One operation of a Krylov workload: every problem solved once (single
/// workloads) or the 16-column batch solved once (batched). Returns the
/// operation's solve time and whether every check passed.
struct KrylovOp {
  double ms = 0;
  bool ok = true;
  double iterations = 0;
  double max_residual = 0;  // largest true relative residual
};

KrylovOp krylov_op(Kind kind, const std::vector<Problem>& problems,
                   Production& p, const std::vector<KrylovCase>& cases,
                   std::vector<std::unique_ptr<TimingPreconditioner>>& timing,
                   SpanRecorder& rec, std::int64_t op) {
  KrylovOp out;
  ScopedSpan ops(rec, "op", op);
  for (std::size_t i = 0; i < problems.size(); ++i) {
    const rtl::CsrMatrix& a = problems[i].a;
    rtl::Preconditioner* pc = p.pc[i].get();
    if (!timing.empty()) {
      timing[i]->op = op;
      pc = timing[i].get();
    }
    const KrylovCase& c = cases[i];
    if (kind == Kind::kKrylovSingle) {
      std::vector<real_t> x(c.b[0].size(), 0.0);
      rtl::KrylovResult kr;
      const auto t0 = Clock::now();
      {
        ScopedSpan s(rec, "solver.gmres", op);
        kr = rtl::gmres_solve(*p.rt, a, c.b[0], x, pc, krylov_options());
      }
      out.ms += ms_between(t0, Clock::now());
      out.iterations += kr.iterations;
      out.ok = check_solve(a, c.b[0], x, kr, c.ref_iterations[0],
                           problems[i].name, out.max_residual) &&
               out.ok;
    } else {
      const index_t n = a.rows();
      rtl::BatchBuffer bb(n, kBatch), xb(n, kBatch);
      for (index_t j = 0; j < kBatch; ++j) {
        bb.set_column(j, c.b[static_cast<std::size_t>(j)]);
      }
      std::fill(xb.view().data(), xb.view().data() + n * kBatch, 0.0);
      std::vector<rtl::KrylovResult> kr;
      const auto t0 = Clock::now();
      {
        ScopedSpan s(rec, "solver.gmres_batch", op);
        kr = rtl::gmres_solve(p.rt->team(), a, bb.view(), xb.view(), pc,
                              krylov_options());
      }
      out.ms += ms_between(t0, Clock::now());
      std::vector<real_t> xcol(static_cast<std::size_t>(n));
      for (index_t j = 0; j < kBatch; ++j) {
        xb.view().get_column(j, xcol);
        const auto& r = kr[static_cast<std::size_t>(j)];
        out.iterations += r.iterations;
        out.ok = check_solve(a, c.b[static_cast<std::size_t>(j)], xcol, r,
                             c.ref_iterations[static_cast<std::size_t>(j)],
                             problems[i].name + " column " +
                                 std::to_string(j),
                             out.max_residual) &&
                 out.ok;
      }
    }
  }
  return out;
}

/// Inputs of a Krylov workload from the seed: single workloads solve one
/// rhs per problem, the batched one kBatch columns, each the generator's
/// rhs perturbed by the seed.
std::vector<KrylovCase> make_cases(Kind kind,
                                   const std::vector<Problem>& problems,
                                   std::uint64_t seed) {
  std::vector<KrylovCase> cases(problems.size());
  const index_t cols = kind == Kind::kKrylovBatched ? kBatch : 1;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    for (index_t j = 0; j < cols; ++j) {
      cases[i].b.push_back(perturbed_rhs(problems[i].rhs, mix(seed, i, j)));
    }
  }
  return cases;
}

// --------------------------------------------------------------------------
// Service closed loop
// --------------------------------------------------------------------------

struct ServiceProblem {
  std::uint32_t matrix_id;
  std::vector<std::vector<real_t>> pool;  // request rhs
  std::vector<std::vector<real_t>> ref;   // own substitution of each
};

/// Seeded request pool of a problem and the benchmark's own solution of
/// each request: substitution over a sequential `IluFactorization`.
ServiceProblem make_service_problem(const Problem& pr, std::uint32_t id,
                                    std::uint64_t seed) {
  ServiceProblem sp;
  sp.matrix_id = id;
  rtl::IluFactorization ilu(pr.a, kIluLevel);
  ilu.factor(pr.a);
  SeqIluPreconditioner seq(ilu);
  for (int k = 0; k < kPoolSize; ++k) {
    sp.pool.push_back(seeded_vector(pr.a.rows(), mix(seed, id, 1000 + k)));
    sp.ref.emplace_back(sp.pool.back().size());
    seq.apply(sp.pool.back(), sp.ref.back());
  }
  return sp;
}

/// One episode of the service's closed loop.
struct Episode {
  OpSamples latency_ms;  // per request, submit to completion callback
  double seconds = 0;    // first send to last reply
  bool disturbed = false;
};

/// One episode of a closed loop of kClients logical clients driven from
/// the calling thread. Each client starts after a seeded stagger in
/// [0, kStaggerMs), keeps one request outstanding and sends its next one
/// as soon as the reply arrives, `per_client` requests in all; the
/// episode ends when every reply is in.
Episode closed_loop_episode(rtl::SolveService& svc,
                            rtl::SolveService::SessionId session,
                            const std::vector<ServiceProblem>& problems,
                            std::uint64_t seed, int per_client,
                            SpanRecorder& rec, std::int64_t& next_op) {
  struct Reply {
    int client;
    std::vector<real_t> x;
    std::exception_ptr error;
    Clock::time_point done;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Reply> replies;  // guarded by mu

  constexpr Clock::time_point kNever = Clock::time_point::max();
  Episode out;
  std::vector<Clock::time_point> sent(kClients);
  std::vector<Clock::time_point> due(kClients);  // kNever: outstanding or done
  std::vector<int> sent_count(kClients, 0);
  std::vector<std::size_t> request(kClients, 0);
  std::vector<std::int64_t> op_id(kClients, -1);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> stagger(0.0, kStaggerMs);
  int outstanding = 0;
  static int reported = 0;

  auto problem_of = [&](int c) -> const ServiceProblem& {
    return problems[static_cast<std::size_t>(c) % problems.size()];
  };
  auto submit = [&](int c) {
    const auto ci = static_cast<std::size_t>(c);
    due[ci] = kNever;
    request[ci] = static_cast<std::size_t>((c * 5 + sent_count[ci]++) %
                                           kPoolSize);
    op_id[ci] = next_op++;
    sent[ci] = Clock::now();
    try {
      svc.solve(session, problem_of(c).matrix_id,
                problem_of(c).pool[request[ci]],
                [&, c](std::vector<real_t> x, std::exception_ptr e) {
                  const auto t = Clock::now();
                  // Notify under the lock: the driving thread returns, and
                  // destroys cv, as soon as it has seen the last reply.
                  const std::lock_guard<std::mutex> lock(mu);
                  replies.push_back({c, std::move(x), e, t});
                  cv.notify_one();
                });
      ++outstanding;
    } catch (const rtl::ServiceError& e) {
      // kRejected / kShuttingDown: refused, never answered.
      out.latency_ms.add({ms_between(sent[ci], Clock::now()), false}, false);
      if (reported++ < 5) std::cerr << "request refused: " << e.what() << "\n";
      if (sent_count[ci] < per_client) due[ci] = Clock::now();
    }
  };

  const CpuTicks ticks0 = cpu_ticks();
  const auto t0 = Clock::now();
  for (std::size_t c = 0; c < due.size(); ++c) {
    due[c] = t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(stagger(rng)));
  }
  for (;;) {
    Clock::time_point next = kNever;
    for (int c = 0; c < kClients; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      if (due[ci] <= Clock::now()) submit(c);
      next = std::min(next, due[ci]);
    }
    if (outstanding == 0 && next == kNever) break;

    std::deque<Reply> got;
    {
      std::unique_lock<std::mutex> lock(mu);
      auto any = [&] { return !replies.empty(); };
      if (next == kNever) {
        cv.wait(lock, any);
      } else {
        cv.wait_until(lock, next, any);
      }
      got.swap(replies);
    }
    for (Reply& r : got) {
      --outstanding;
      const auto c = static_cast<std::size_t>(r.client);
      rec.record("service.request", sent[c], r.done, op_id[c]);
      const std::vector<real_t>& ref = problem_of(r.client).ref[request[c]];
      const bool ok = !r.error && r.x.size() == ref.size() &&
                      relative_difference(r.x, ref) <= kReplyTol;
      if (!ok && reported++ < 5) {
        std::cerr << "service reply failed its check\n";
      }
      out.latency_ms.add({ms_between(sent[c], r.done), false}, ok);
      if (sent_count[c] < per_client) due[c] = Clock::now();
    }
  }
  out.seconds = seconds_since(t0);
  out.disturbed = disturbed(ticks0, cpu_ticks());
  return out;
}

/// A service run: episodes of the closed loop, each with a fresh seeded
/// stagger. With no think time, the clients that one batch answers
/// resubmit together and tend to form the same batch again, so an episode
/// keeps the batch-width pattern its stagger gave it; a run reports
/// medians over its episodes.
struct ServiceRun {
  OpSamples requests;              // every request of every episode
  std::vector<Tagged> latency_ms;  // per episode: median request latency
  std::vector<Tagged> rate;        // per episode: requests per second
  std::vector<double> width;       // per episode: mean batch width
  std::size_t undisturbed = 0;     // episodes the hypervisor left alone
};

/// Runs episodes until `seconds` have passed and `min_episodes` were
/// made (or exactly `fixed_episodes` when > 0); while fewer than
/// `min_episodes` were undisturbed, goes on for up to twice `seconds`.
/// An episode's figures come from its requests that passed their checks,
/// or from all of them when none passed.
ServiceRun run_episodes(rtl::SolveService& svc,
                        rtl::SolveService::SessionId session,
                        const std::vector<ServiceProblem>& problems,
                        std::uint64_t seed, double seconds, int min_episodes,
                        int fixed_episodes, SpanRecorder& rec) {
  ServiceRun out;
  std::int64_t next_op = 0;
  const auto t0 = Clock::now();
  const auto min_eps = static_cast<std::size_t>(min_episodes);
  auto more = [&] {
    const std::size_t e = out.rate.size();
    if (fixed_episodes > 0) return e < static_cast<std::size_t>(fixed_episodes);
    const double t = seconds_since(t0);
    return t < seconds || e < min_eps ||
           (out.undisturbed < min_eps && t < 2 * seconds);
  };
  while (more()) {
    const rtl::ServiceMetrics m0 = svc.metrics();
    const Episode ep =
        closed_loop_episode(svc, session, problems, mix(seed, out.rate.size()),
                            kPerClient, rec, next_op);
    const rtl::ServiceMetrics m1 = svc.metrics();
    std::vector<double> lat;
    for (const Tagged& t : ep.latency_ms.basis()) lat.push_back(t.value);
    out.latency_ms.push_back({median(lat), ep.disturbed});
    out.rate.push_back(
        {static_cast<double>(lat.size()) / ep.seconds, ep.disturbed});
    const std::uint64_t answered = m1.completed + m1.request_errors -
                                   m0.completed - m0.request_errors;
    const std::uint64_t batches = m1.batches - m0.batches;
    out.width.push_back(batches == 0 ? 0.0
                                     : static_cast<double>(answered) /
                                           static_cast<double>(batches));
    out.undisturbed += ep.disturbed ? 0 : 1;
    auto& all = out.requests;
    all.attempted.insert(all.attempted.end(), ep.latency_ms.attempted.begin(),
                         ep.latency_ms.attempted.end());
    all.passed.insert(all.passed.end(), ep.latency_ms.passed.begin(),
                      ep.latency_ms.passed.end());
  }
  return out;
}

void add_service_layers(const rtl::ServiceMetrics& m, Layers& L) {
  const double batches = static_cast<double>(m.batches);
  L.mean_batch_width =
      batches > 0
          ? static_cast<double>(m.completed + m.request_errors) / batches
          : 0.0;
  L.multi_request_batches = static_cast<double>(m.multi_request_batches());
  L.queue_depth_peak = static_cast<double>(m.queue_depth_peak);
  L.internal_p50_ms = m.solve_latency.percentile_ms(50);
  L.internal_p99_ms = m.solve_latency.percentile_ms(99);
}

/// Open every problem as a shared named workload; returns the time spent.
double open_workloads(rtl::SolveService& svc,
                      rtl::SolveService::SessionId session,
                      const std::vector<Problem>& problems) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < problems.size(); ++i) {
    svc.open_workload(session, static_cast<std::uint32_t>(i),
                      problems[i].name, kIluLevel)
        .get();
  }
  return ms_between(t0, Clock::now());
}

/// Traced service probe of a Krylov workload: the same problems served
/// to one closed-loop episode.
void probe_service(const std::vector<Problem>& problems, std::uint64_t seed,
                   SpanRecorder& rec, Layers& L, RunResult& res) {
  std::vector<ServiceProblem> sps;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    sps.push_back(make_service_problem(
        problems[i], static_cast<std::uint32_t>(i), seed));
  }
  rtl::SolveService svc;
  const auto session = svc.open_session();
  {
    ScopedSpan s(rec, "service.open_workload");
    L.open_workload_ms = open_workloads(svc, session, problems);
  }
  ScopedSpan s(rec, "service.probe");
  const ServiceRun probe =
      run_episodes(svc, session, sps, mix(seed, 77), 0, 0, 1, rec);
  if (!probe.requests.failed_none()) res.correct = false;
  add_service_layers(svc.metrics(), L);
}

/// Traced Krylov probe of the service workload: one production GMRES
/// solve of each problem with a seeded rhs against its reference.
void probe_krylov(const std::vector<Problem>& problems, std::uint64_t seed,
                  SpanRecorder& rec, Layers& L, RunResult& res) {
  Production p = build_production(problems);
  std::vector<KrylovCase> cases =
      make_cases(Kind::kKrylovSingle, problems, seed);
  for (std::size_t i = 0; i < problems.size(); ++i) {
    run_reference(problems[i].a, p.pc[i]->factors(), cases[i], rec, res);
    L.ref_op_ms += cases[i].ref_ms;
  }
  std::vector<std::unique_ptr<TimingPreconditioner>> timing;
  for (auto& pc : p.pc) {
    timing.push_back(std::make_unique<TimingPreconditioner>(*pc, rec));
  }
  const rtl::ExecCounters e0 = p.rt->team().exec_counters();
  const KrylovOp op =
      krylov_op(Kind::kKrylovSingle, problems, p, cases, timing, rec, 0);
  const rtl::ExecCounters d = delta(e0, p.rt->team().exec_counters());
  if (!op.ok) res.correct = false;
  L.iterations_per_op = op.iterations;
  for (auto& t : timing) L.precond_ms_per_op += t->ms;
  L.krylov_self_ms_per_op = op.ms - L.precond_ms_per_op;
  L.speedup_vs_seq = L.ref_op_ms / op.ms;
  L.flag_publishes_per_op = static_cast<double>(d.flag_publishes);
  L.barrier_waits_per_op = static_cast<double>(d.barrier_waits);
  L.steals_per_op = static_cast<double>(d.steals);
  probe_kernels(problems, p, rec, L);
}

void add_layers(const Layers& L, RunResult& res) {
  res.add("sparse.ilu_symbolic_ms", L.ilu_symbolic_ms, "ms");
  res.add("sparse.ilu_factor_ms", L.ilu_factor_ms, "ms");
  res.add("sparse.dot_us", L.dot_us, "us");
  res.add("graph.wavefronts_ms", L.wavefronts_ms, "ms");
  res.add("core.plan_for_cold_ms", L.plan_for_cold_ms, "ms");
  res.add("core.inspector_runs", L.inspector_runs, "count");
  res.add("core.plan_phases", L.plan_phases, "count");
  res.add("core.plan_bytes", L.plan_bytes, "bytes");
  res.add("kernel.bind_ms", L.bind_ms, "ms");
  res.add("kernel.apply_ms", L.apply_ms, "ms");
  res.add("kernel.apply_batch_ms", L.apply_batch_ms, "ms");
  res.add("kernel.spmv_ms", L.spmv_ms, "ms");
  res.add("kernel.apply_gbps", L.apply_bytes / (L.apply_ms * 1e6), "GB/s");
  res.add("kernel.seq_apply_ms", L.seq_apply_ms, "ms");
  res.add("runtime.flag_publishes_per_op", L.flag_publishes_per_op, "count");
  res.add("runtime.barrier_waits_per_op", L.barrier_waits_per_op, "count");
  res.add("runtime.steals_per_op", L.steals_per_op, "count");
  res.add("runtime.dispatch_us", L.dispatch_us, "us");
  res.add("runtime.barrier_us", L.barrier_us, "us");
  res.add("solver.iterations_per_op", L.iterations_per_op, "count");
  res.add("solver.precond_ms_per_op", L.precond_ms_per_op, "ms");
  res.add("solver.krylov_self_ms_per_op", L.krylov_self_ms_per_op, "ms");
  res.add("solver.ref_op_ms", L.ref_op_ms, "ms");
  res.add("solver.speedup_vs_seq", L.speedup_vs_seq, "ratio");
  res.add("service.mean_batch_width", L.mean_batch_width, "count");
  res.add("service.multi_request_batches", L.multi_request_batches, "count");
  res.add("service.queue_depth_peak", L.queue_depth_peak, "count");
  res.add("service.internal_p50_ms", L.internal_p50_ms, "ms");
  res.add("service.internal_p99_ms", L.internal_p99_ms, "ms");
  res.add("service.open_workload_ms", L.open_workload_ms, "ms");
  res.add("run.warmup_s", L.warmup_s, "s");
}

/// Report the op-time tail when the sample supports it (ten beyond).
void print_tails(const std::vector<double>& op_ms, const char* label) {
  for (const double q : {99.0, 90.0}) {
    if (op_ms.size() >= min_samples_for_tail(q, 10)) {
      std::cout << label << "_p" << static_cast<int>(q) << " = "
                << percentile(op_ms, q) << " ms (n=" << op_ms.size() << ")\n";
      return;
    }
  }
  std::cout << label << ": no tail reported (n=" << op_ms.size()
            << " < 100)\n";
}

RunResult run_krylov(const Args& args, const Workload& w, SpanRecorder& rec,
                     Layers& L) {
  RunResult res;
  const std::vector<Problem> problems = load_problems(w);
  if (args.trace) {
    ScopedSpan s(rec, "probe.setup");
    probe_setup(problems, rec, L);
  }
  std::vector<Tagged> setup_s;
  Production p;
  {
    ScopedSpan s(rec, "setup");
    p = timed_setups(problems, args.trace ? 1 : w.setups, setup_s);
  }
  std::vector<KrylovCase> cases = make_cases(w.kind, problems, args.seed);
  for (std::size_t i = 0; i < problems.size(); ++i) {
    run_reference(problems[i].a, p.pc[i]->factors(), cases[i], rec, res);
    L.ref_op_ms += cases[i].ref_ms;
    const rtl::ParallelTriangularSolver& ts = p.pc[i]->triangular_solver();
    std::cout << "problem " << problems[i].name
              << ": n=" << problems[i].a.rows()
              << " nnz=" << problems[i].a.nnz() << " wavefronts(L)="
              << ts.lower_plan().stats().phases << " wavefronts(U)="
              << ts.upper_plan().stats().phases << " iterations(col 0)="
              << cases[i].ref_iterations[0] << "\n";
  }

  std::vector<std::unique_ptr<TimingPreconditioner>> timing;
  if (args.trace) {
    for (auto& pc : p.pc) {
      timing.push_back(std::make_unique<TimingPreconditioner>(*pc, rec));
    }
  }

  // Warm-up: one untimed operation (its wall time is reported as
  // run.warmup_s so a slow first operation stays visible).
  {
    const auto t0 = Clock::now();
    ScopedSpan s(rec, "warmup");
    const KrylovOp op = krylov_op(w.kind, problems, p, cases, timing, rec, -1);
    if (!op.ok) res.correct = false;
    L.warmup_s = seconds_since(t0);
  }
  if (w.kind == Kind::kKrylovBatched) {
    ScopedSpan s(rec, "check.batched_columns");
    const index_t n = problems[0].a.rows();
    rtl::BatchBuffer bb(n, kBatch), xb(n, kBatch);
    for (index_t j = 0; j < kBatch; ++j) {
      bb.set_column(j, cases[0].b[static_cast<std::size_t>(j)]);
    }
    std::fill(xb.view().data(), xb.view().data() + n * kBatch, 0.0);
    const auto kr = rtl::gmres_solve(p.rt->team(), problems[0].a, bb.view(),
                                     xb.view(), p.pc[0].get(),
                                     krylov_options());
    if (!check_batched_columns(problems[0].a, p, cases[0], kr, xb)) {
      res.correct = false;
    }
  }
  for (auto& t : timing) {
    t->ms = 0;
  }

  LoopResult loop;
  const rtl::ExecCounters e0 = p.rt->team().exec_counters();
  const CpuTicks ticks0 = cpu_ticks();
  const auto t0 = Clock::now();
  std::int64_t op_index = 0;
  const auto min_ops = static_cast<std::size_t>(w.min_ops);
  while (seconds_since(t0) < args.seconds ||
         loop.op_ms.attempted.size() < min_ops ||
         (loop.undisturbed < min_ops &&
          seconds_since(t0) < 2 * args.seconds)) {
    KrylovOp op;
    const CpuTicks c0 = cpu_ticks();
    const auto start = Clock::now();
    try {
      op = krylov_op(w.kind, problems, p, cases, timing, rec, op_index++);
    } catch (const std::exception& e) {
      std::cerr << "operation threw: " << e.what() << "\n";
      op.ok = false;
      op.ms = ms_between(start, Clock::now());
    }
    const bool dist = disturbed(c0, cpu_ticks());
    loop.max_residual = std::max(loop.max_residual, op.max_residual);
    loop.op_ms.add({op.ms, dist}, op.ok);
    loop.undisturbed += op.ok && !dist ? 1 : 0;
    loop.iterations += op.iterations;
  }
  loop.exec = delta(e0, p.rt->team().exec_counters());
  const double steal = steal_share(ticks0, cpu_ticks());
  loop.op_ms.count_into(res);

  // solve_ms_p50 and rhs_per_s come from the operations that passed and
  // that the hypervisor left alone (all passed ones when fewer than three
  // were undisturbed; every attempted one when none passed).
  const std::vector<double> kept = undisturbed_or_all(loop.op_ms.basis());
  double kept_ms = 0;
  for (double t : kept) kept_ms += t;
  const double rhs_per_op = static_cast<double>(
      problems.size() * (w.kind == Kind::kKrylovBatched ? kBatch : 1));
  const double rhs_per_s =
      rhs_per_op * static_cast<double>(kept.size()) / (kept_ms / 1e3);
  const double ops = static_cast<double>(res.attempted);
  if (args.trace) {
    double precond_ms = 0;
    for (auto& t : timing) precond_ms += t->ms;
    double solve_ms = 0;
    for (const Tagged& t : loop.op_ms.attempted) solve_ms += t.value;
    L.iterations_per_op = loop.iterations / ops;
    L.precond_ms_per_op = precond_ms / ops;
    L.krylov_self_ms_per_op = (solve_ms - precond_ms) / ops;
    L.flag_publishes_per_op =
        static_cast<double>(loop.exec.flag_publishes) / ops;
    L.barrier_waits_per_op = static_cast<double>(loop.exec.barrier_waits) / ops;
    L.steals_per_op = static_cast<double>(loop.exec.steals) / ops;
    L.speedup_vs_seq = L.ref_op_ms / median(kept);
    std::cout << "traced solve_ms_p50 = " << median(kept)
              << " ms, traced rhs_per_s = " << rhs_per_s << " 1/s\n";
    {
      ScopedSpan s(rec, "probe.kernels");
      probe_kernels(problems, p, rec, L);
    }
    p = Production{};  // free the team before the service probe
    ScopedSpan s(rec, "probe.service");
    probe_service(problems, args.seed, rec, L, res);
    add_layers(L, res);
  } else {
    res.add("setup_s", median(undisturbed_or_all(setup_s)), "s");
    res.add("solve_ms_p50", median(kept), "ms");
    res.add("rhs_per_s", rhs_per_s, "1/s");
    res.add("peak_rss_mib", peak_rss_mib(), "MiB");
    print_tails(kept, "solve_ms");
    const auto [lo, hi] = std::minmax_element(kept.begin(), kept.end());
    std::cout << "operation ms: min " << *lo << ", max " << *hi
              << "; largest true relative residual " << loop.max_residual
              << "\n";
    std::cout << "host CPU stolen during the timed loop = " << 100 * steal
              << "%\n";
    std::cout << "undisturbed operations = " << loop.undisturbed << " of "
              << loop.op_ms.passed.size() << " passed\n";
    std::cout << "operations = " << loop.op_ms.attempted.size()
              << ", reference op = " << L.ref_op_ms << " ms, warm-up = "
              << L.warmup_s << " s\n";
  }
  return res;
}

RunResult run_service(const Args& args, const Workload& w, SpanRecorder& rec,
                      Layers& L) {
  RunResult res;
  const std::vector<Problem> problems = load_problems(w);
  std::vector<ServiceProblem> sps;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    sps.push_back(make_service_problem(
        problems[i], static_cast<std::uint32_t>(i), args.seed));
  }
  if (args.trace) {
    ScopedSpan s(rec, "probe.setup");
    probe_setup(problems, rec, L);
  }

  std::vector<Tagged> setup_s;
  std::unique_ptr<rtl::SolveService> svc;
  rtl::SolveService::SessionId session = 0;
  {
    ScopedSpan s(rec, "setup");
    for (int i = 0; i < (args.trace ? 1 : w.setups); ++i) {
      svc.reset();
      const CpuTicks c0 = cpu_ticks();
      const auto t0 = Clock::now();
      svc = std::make_unique<rtl::SolveService>();
      session = svc->open_session();
      L.open_workload_ms = open_workloads(*svc, session, problems);
      setup_s.push_back({seconds_since(t0), disturbed(c0, cpu_ticks())});
    }
  }
  {
    ScopedSpan s(rec, "warmup");
    const auto t0 = Clock::now();
    const ServiceRun warm =
        run_episodes(*svc, session, sps, mix(args.seed, 78), 0, 0, 1, rec);
    if (!warm.requests.failed_none()) res.correct = false;
    L.warmup_s = seconds_since(t0);
  }
  const rtl::ServiceMetrics m0 = svc->metrics();
  ServiceRun loop;
  const CpuTicks ticks0 = cpu_ticks();
  {
    ScopedSpan s(rec, "service.loop");
    loop = run_episodes(*svc, session, sps, mix(args.seed, 79), args.seconds,
                        w.min_ops, 0, rec);
  }
  const double steal = steal_share(ticks0, cpu_ticks());
  loop.requests.count_into(res);
  const rtl::ServiceMetrics m = svc->metrics();
  // solve_ms_p50 and rhs_per_s are medians over the episodes the
  // hypervisor left alone (all episodes when fewer than three were).
  const double latency_p50 = median(undisturbed_or_all(loop.latency_ms));
  const double rate = median(undisturbed_or_all(loop.rate));
  if (m.rejected != m0.rejected) {
    std::cerr << "service rejected " << (m.rejected - m0.rejected)
              << " requests\n";
  }

  if (args.trace) {
    std::cout << "traced solve_ms_p50 = " << latency_p50
              << " ms, traced rhs_per_s = " << rate << " 1/s\n";
    add_service_layers(m, L);
    svc.reset();  // free the service's threads before the Krylov probe
    ScopedSpan s(rec, "probe.krylov");
    probe_krylov(problems, args.seed, rec, L, res);
    add_layers(L, res);
  } else {
    res.add("setup_s", median(undisturbed_or_all(setup_s)), "s");
    res.add("solve_ms_p50", latency_p50, "ms");
    res.add("rhs_per_s", rate, "1/s");
    res.add("peak_rss_mib", peak_rss_mib(), "MiB");
    std::vector<double> all_latency;
    for (const Tagged& t : loop.requests.basis()) {
      all_latency.push_back(t.value);
    }
    print_tails(all_latency, "latency_ms");
    std::vector<double> ep_latency;
    for (const Tagged& t : loop.latency_ms) ep_latency.push_back(t.value);
    const auto [wlo, whi] =
        std::minmax_element(loop.width.begin(), loop.width.end());
    const auto [llo, lhi] =
        std::minmax_element(ep_latency.begin(), ep_latency.end());
    std::cout << "episodes = " << loop.rate.size() << ", undisturbed "
              << loop.undisturbed << "; per episode: mean batch width "
              << *wlo << " to " << *whi << " (median "
              << median(loop.width) << "), median latency " << *llo
              << " to " << *lhi << " ms\n";
    std::cout << "host CPU stolen during the timed loop = " << 100 * steal
              << "%\n";
    std::cout << "batch widths (1, 2, 3-4, 5-8, ...):";
    for (int b = 0; b < rtl::kBatchWidthBuckets; ++b) {
      std::cout << " " << m.batch_width_hist[b] - m0.batch_width_hist[b];
    }
    std::cout << "\nrequests = " << loop.requests.attempted.size()
              << ", mean batch width = "
              << static_cast<double>(m.completed - m0.completed) /
                     static_cast<double>(m.batches - m0.batches)
              << ", warm-up = " << L.warmup_s << " s\n";
  }
  return res;
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
      a.trace = v == "1";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    for (const char* var : kPinnedEnv) {
      if (std::getenv(var) != nullptr) {
        std::cerr << "perfbench: " << var
                  << " is set; unset it to measure the default build\n";
        return 2;
      }
    }
    const Args args = parse(argc, argv);
    const Workload w = workload_for(args.workload);
    std::cout << "workload " << args.workload << ", seed " << args.seed
              << ", " << nproc() << " threads, trace " << args.trace << "\n";
    SpanRecorder rec(args.trace);
    Layers layers;
    RunResult res = w.kind == Kind::kService
                        ? run_service(args, w, rec, layers)
                        : run_krylov(args, w, rec, layers);
    if (args.trace) {
      // Per span name: how many, total and self time (duration minus the
      // part covered by child spans).
      std::map<std::string, std::array<double, 3>> by_name;
      const std::vector<double> self = rec.self_ms();
      for (std::size_t i = 0; i < rec.spans().size(); ++i) {
        const Span& sp = rec.spans()[i];
        auto& agg = by_name[sp.name];
        agg[0] += 1;
        agg[1] += static_cast<double>(sp.end_ns - sp.start_ns) / 1e6;
        agg[2] += self[i];
      }
      for (const auto& [name, agg] : by_name) {
        std::cout << "span " << name << ": n=" << agg[0] << " total_ms="
                  << agg[1] << " self_ms=" << agg[2] << "\n";
      }
    }
    if (args.trace && !args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      rec.write_json(out);
      if (!out) throw std::runtime_error("cannot write " + args.trace_out);
    }
    for (const Metric& m : res.metrics) {
      std::cout << m.name << " = " << m.value << " " << m.unit << "\n";
    }
    std::cout << to_json(res) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
