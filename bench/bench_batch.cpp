// Batched multi-RHS triangular solves through the kernel layer.
//
// The plan amortizes the inspector across executions (§5.1.1); a batched
// kernel sweep amortizes the per-wavefront synchronization across
// right-hand sides: one barrier per phase (pre-scheduled) or one
// ready-flag publish per row (self-executing) regardless of the batch
// width k. This driver measures ms-per-rhs of the fused ILU(0) apply
// (L then U solve) for k in {1, 4, 16} against k sequential single-RHS
// kernel solves.
//
// Unlike the table benches this driver is NOT work-amplified: the point
// is the real synchronization-to-compute ratio of the raw numeric
// kernel, which is exactly what batching improves. (RTL_AMP is recorded
// in the JSON config but unused here.)
//
// The same batches also run through the barrier (pre-scheduled)
// executor, with the team's synchronization-event counters per width:
// `flag_publishes` and `barrier_waits` are deterministic (unit "count",
// exact-match gated by scripts/compare_bench.py) — on hosts too noisy for
// wall-clock deltas they are the accepted evidence for scheduler claims
// (docs/PERF.md).
//
// The SpMV kernel family gets its own `spmv_k*` sweep; the float32-storage
// apply (`batch_f32_k16_*`) and the column gather/scatter micro-records
// round out the set. Each kernel record carries its roofline
// bytes-touched model (`*_bytes`) and achieved bandwidth (`*_gbps`,
// informational units — not gated).
//
// The bind-time execution layout (kernel/layout.hpp) is timed in-binary:
// the un-prefixed records keep their historical meaning — gather
// dispatch — by pinning select_layout(false) on every timed solver;
// `layout_*` twins then time the packed schedule-order path in the same
// process, each pinned bit-for-bit against the gather result.
// `batch_layout_bytes` / `spmv_layout_bytes` record the packing footprint
// (unit "bytes", exact-match gated: they are deterministic functions of
// structure and processor count). The RTL_REORDER knob
// (none/rcm/wavefront) permutes the case matrices before factoring and is
// stamped into the JSON config so compared runs are always
// apples-to-apples.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/runtime.hpp"
#include "kernel/batch.hpp"
#include "kernel/layout.hpp"
#include "kernel/spmv_kernel.hpp"
#include "solver/parallel_triangular.hpp"
#include "sparse/reorder.hpp"

namespace {

using namespace rtl;
using namespace rtl::bench;

/// The RTL_REORDER knob, normalized to lower case ("none" when unset).
std::string reorder_mode() {
  const char* raw = std::getenv("RTL_REORDER");
  if (raw == nullptr || *raw == '\0') return "none";
  std::string v(raw);
  for (char& ch : v) ch = static_cast<char>(std::tolower(ch));
  return v;
}

/// Symmetrically permute a test problem in place: `mode` is "rcm" or
/// "wavefront" (see sparse/reorder.hpp). Row perm[k] of A becomes row k,
/// so the rhs is gathered through the same permutation.
TestProblem apply_reorder(TestProblem prob, const std::string& mode) {
  if (mode == "none") return prob;
  const Permutation perm = mode == "rcm"
                               ? reverse_cuthill_mckee(prob.system.a)
                               : wavefront_order(prob.system.a);
  CsrMatrix permuted = permute_symmetric(prob.system.a, perm);
  std::vector<real_t> rhs(prob.system.rhs.size());
  for (std::size_t i = 0; i < rhs.size(); ++i) {
    rhs[i] = prob.system.rhs[static_cast<std::size_t>(perm.perm[i])];
  }
  prob.system.a = std::move(permuted);
  prob.system.rhs = std::move(rhs);
  return prob;
}

}  // namespace

int main() {
  const int p = default_procs();
  const int reps = default_reps();
  const index_t widths[] = {1, 4, 16};

  Runtime rt(p);
  ThreadTeam& team = rt.team();
  Reporter report("bench_batch");
  report.add_config("amplified", "no");

  const std::string reorder = reorder_mode();
  if (reorder != "none" && reorder != "rcm" && reorder != "wavefront") {
    std::fprintf(stderr, "bench_batch: RTL_REORDER=%s (want none|rcm|wavefront)\n",
                 reorder.c_str());
    return 2;
  }
  report.add_config("reorder", reorder);

  std::printf("Batched multi-RHS ILU(0) apply, %d procs, %d reps\n", p,
              reps);
  std::printf("%-8s %12s | %10s %10s %10s  (ms per rhs)\n", "Problem",
              "kernel k=1", "k=1", "k=4", "k=16");

  std::vector<SolveCase> cases;
  cases.emplace_back(apply_reorder(make_5pt(), reorder));
  cases.emplace_back(apply_reorder(make_l5pt(), reorder));
  for (const auto& c : cases) {
    const index_t n = c.ilu.size();
    const std::size_t nz = static_cast<std::size_t>(n);
    ParallelTriangularSolver solver(rt, c.ilu);
    // The un-prefixed records below have always meant the gather dispatch;
    // pin it regardless of the RTL_LAYOUT bind default so the trend data
    // stays comparable, and time the layout path through its own twins.
    solver.kernel().select_layout(false);

    // Single-RHS solve through the bound kernel.
    std::vector<real_t> rhs(c.system.rhs);
    std::vector<real_t> tmp(nz), y_kernel(nz);
    const Stats kernel_ms = measure_ms(reps, [&] {
      solver.solve(team, rhs, tmp, y_kernel);
    });
    report.add(c.name, "kernel_single_ms", kernel_ms);
    // Kernel-level stats so plan_layout_bytes reflects the lower factor's
    // bind-time packing, not the bare plan's zero.
    report.add_plan_stats(c.name, solver.kernel().lower().stats());
    report.add_scalar(c.name, "batch_layout_bytes",
                      static_cast<double>(solver.kernel().layout_bytes()),
                      "bytes");

    std::printf("%-8s %12.3f |", c.name.c_str(), kernel_ms.min);

    // Batched sweeps: per-rhs cost vs batch width, verified against k
    // sequential single-RHS solves.
    std::vector<double> gather_mins, layout_mins;
    for (const index_t k : widths) {
      BatchBuffer brhs(n, k), bx(n, k);
      for (index_t j = 0; j < k; ++j) {
        std::vector<real_t> col(rhs);
        for (auto& v : col) v *= 1.0 + 0.25 * static_cast<real_t>(j);
        brhs.set_column(j, col);
      }
      const Stats batch_ms = measure_ms(reps, [&] {
        solver.solve(team, brhs.view(), bx.view());
      });

      // k sequential single-RHS kernel solves of the same columns — the
      // amortization baseline and the bit-for-bit reference. Columns are
      // gathered outside the timed region so both sides time only the
      // solve paths.
      std::vector<std::vector<real_t>> cols(static_cast<std::size_t>(k));
      for (index_t j = 0; j < k; ++j) {
        cols[static_cast<std::size_t>(j)].resize(nz);
        brhs.get_column(j, cols[static_cast<std::size_t>(j)]);
      }
      std::vector<real_t> colx(nz);
      const Stats singles_ms = measure_ms(reps, [&] {
        for (index_t j = 0; j < k; ++j) {
          solver.solve(team, cols[static_cast<std::size_t>(j)], tmp, colx);
        }
      });
      bool identical = true;
      for (index_t j = 0; j < k && identical; ++j) {
        solver.solve(team, cols[static_cast<std::size_t>(j)], tmp, colx);
        for (index_t i = 0; i < n; ++i) {
          if (bx.view().at(i, j) != colx[static_cast<std::size_t>(i)]) {
            identical = false;
            break;
          }
        }
      }
      if (!identical) {
        std::fprintf(stderr,
                     "%s: batched k=%d diverged from single-RHS solves\n",
                     c.name.c_str(), k);
        return 1;
      }

      // Layout twin: the same batch re-solved through the bind-time
      // packed layout, pinned bit-for-bit against the gather result above.
      // The layout is built whenever it is compiled in (the env only picks
      // the bind default), so one binary carries the whole
      // gather-vs-layout A/B pair — the interleaved comparison docs/PERF.md
      // requires.
      BatchBuffer bx_layout(n, k);
      solver.kernel().select_layout(true);
      const Stats layout_ms = measure_ms(reps, [&] {
        solver.solve(team, brhs.view(), bx_layout.view());
      });
      solver.kernel().select_layout(false);
      for (index_t j = 0; j < k; ++j) {
        for (index_t i = 0; i < n; ++i) {
          if (bx.view().at(i, j) != bx_layout.view().at(i, j)) {
            std::fprintf(stderr,
                         "%s: layout k=%d diverged from gather dispatch\n",
                         c.name.c_str(), k);
            return 1;
          }
        }
      }

      const std::string kk = "batch_k" + std::to_string(k);
      report.add(c.name, kk + "_solve_ms", batch_ms);
      report.add_scalar(c.name, kk + "_ms_per_rhs",
                        batch_ms.mean / static_cast<double>(k),
                        "ms-derived");
      report.add_scalar(c.name, "singles_k" + std::to_string(k) +
                                    "_ms_per_rhs",
                        singles_ms.mean / static_cast<double>(k),
                        "ms-derived");
      report.add(c.name, "layout_" + kk + "_solve_ms", layout_ms);
      report.add_scalar(c.name, "layout_" + kk + "_ms_per_rhs",
                        layout_ms.mean / static_cast<double>(k),
                        "ms-derived");

      // Roofline traffic of the fused L+U apply at this width, and the
      // achieved bandwidth of the timed batched solve (informational:
      // unit is not gated). The layout twin reuses the same traffic model
      // so the two bandwidths compare like for like.
      const double bytes = static_cast<double>(
          solver.kernel().lower().bytes_per_solve(k) +
          solver.kernel().upper().bytes_per_solve(k));
      report.add_scalar(c.name, kk + "_bytes", bytes, "bytes");
      report.add_scalar(c.name, kk + "_gbps",
                        bytes / (batch_ms.min * 1e6), "GB/s");
      report.add_scalar(c.name, "layout_" + kk + "_gbps",
                        bytes / (layout_ms.min * 1e6), "GB/s");
      gather_mins.push_back(batch_ms.min);
      layout_mins.push_back(layout_ms.min);
      std::printf(" %10.4f", batch_ms.min / static_cast<double>(k));
    }

    // Float32-storage batched apply at the widest batch: same sweep,
    // half the per-lane traffic (double accumulation inside the rows).
    {
      const index_t k = 16;
      BatchBufferF frhs(n, k), fx(n, k);
      for (index_t j = 0; j < k; ++j) {
        std::vector<float> col(nz);
        for (index_t i = 0; i < n; ++i) {
          col[static_cast<std::size_t>(i)] = static_cast<float>(
              rhs[static_cast<std::size_t>(i)] *
              (1.0 + 0.25 * static_cast<real_t>(j)));
        }
        frhs.set_column(j, col);
      }
      const Stats f32_ms = measure_ms(reps, [&] {
        solver.solve(team, frhs.view(), fx.view());
      });
      const double fbytes = static_cast<double>(
          solver.kernel().lower().bytes_per_solve(k, sizeof(float)) +
          solver.kernel().upper().bytes_per_solve(k, sizeof(float)));
      report.add(c.name, "batch_f32_k16_solve_ms", f32_ms);
      report.add_scalar(c.name, "batch_f32_k16_ms_per_rhs",
                        f32_ms.mean / static_cast<double>(k), "ms-derived");
      report.add_scalar(c.name, "batch_f32_k16_bytes", fbytes, "bytes");
      report.add_scalar(c.name, "batch_f32_k16_gbps",
                        fbytes / (f32_ms.min * 1e6), "GB/s");
    }

    // Column gather/scatter micro-bench: the strided batch<->vector
    // round-trip the batched Krylov drivers ride per tick (GMRES per-column
    // post-processing). Vectorized strided loops in kernel/batch.hpp.
    {
      const index_t k = 16;
      BatchBuffer buf(n, k);
      std::vector<real_t> col(nz);
      const Stats gather_ms = measure_ms(reps, [&] {
        for (index_t j = 0; j < k; ++j) buf.get_column(j, col);
      });
      const Stats scatter_ms = measure_ms(reps, [&] {
        for (index_t j = 0; j < k; ++j) buf.set_column(j, col);
      });
      report.add(c.name, "column_gather16_ms", gather_ms);
      report.add(c.name, "column_scatter16_ms", scatter_ms);
    }
    std::printf("\n");
    std::printf("%-8s layout  k=1 %9.4f  k=4 %9.4f  k=16 %9.4f ms"
                "  (gather %9.4f %9.4f %9.4f)\n",
                c.name.c_str(), layout_mins[0], layout_mins[1],
                layout_mins[2], gather_mins[0], gather_mins[1],
                gather_mins[2]);

    // The barrier (pre-scheduled) executor on the same batches, pinned
    // bit-for-bit to the default executor's result, with the team's
    // synchronization counters from one clean solve per width.
    DoconsiderOptions barrier_opts;
    barrier_opts.execution = ExecutionPolicy::kPreScheduled;
    ParallelTriangularSolver barrier_solver(rt, c.ilu, barrier_opts);
    barrier_solver.kernel().select_layout(false);
    for (const index_t k : widths) {
      BatchBuffer brhs(n, k), bx(n, k), bx_bar(n, k);
      for (index_t j = 0; j < k; ++j) {
        std::vector<real_t> col(rhs);
        for (auto& v : col) v *= 1.0 + 0.25 * static_cast<real_t>(j);
        brhs.set_column(j, col);
      }
      const Stats bar_ms = measure_ms(reps, [&] {
        barrier_solver.solve(team, brhs.view(), bx_bar.view());
      });
      solver.solve(team, brhs.view(), bx.view());
      for (index_t j = 0; j < k; ++j) {
        for (index_t i = 0; i < n; ++i) {
          if (bx.view().at(i, j) != bx_bar.view().at(i, j)) {
            std::fprintf(stderr,
                         "%s: barrier k=%d diverged from default executor\n",
                         c.name.c_str(), k);
            return 1;
          }
        }
      }
      // One clean solve with zeroed counters: the timed reps above
      // already polluted the team's totals.
      team.reset_exec_counters();
      barrier_solver.solve(team, brhs.view(), bx_bar.view());
      const ExecCounters bar_c = team.exec_counters();
      const std::string bk = "barrier_k" + std::to_string(k);
      report.add(c.name, bk + "_solve_ms", bar_ms);
      report.add_scalar(c.name, bk + "_ms_per_rhs",
                        bar_ms.mean / static_cast<double>(k), "ms-derived");
      report.add_scalar(c.name, bk + "_flag_publishes",
                        static_cast<double>(bar_c.flag_publishes), "count");
      report.add_scalar(c.name, bk + "_barrier_waits",
                        static_cast<double>(bar_c.barrier_waits), "count");
      std::printf("%-8s k=%-2d barrier %9.4f ms (%llu waits)\n",
                  c.name.c_str(), k, bar_ms.min,
                  static_cast<unsigned long long>(bar_c.barrier_waits));
    }

    // The second kernel family: batched SpMV through the bound kernel,
    // with its layout twin and roofline records. Verified bit-for-bit
    // against k single applies.
    auto spmv = SpMVKernel::bind(c.system.a);
    spmv.select_layout(false);  // un-prefixed records stay gather
    report.add_scalar(c.name, "spmv_layout_bytes",
                      static_cast<double>(spmv.layout_bytes()), "bytes");
    for (const index_t k : widths) {
      BatchBuffer sx(n, k), sy(n, k), sy_layout(n, k);
      for (index_t j = 0; j < k; ++j) {
        std::vector<real_t> col(rhs);
        for (auto& v : col) v *= 1.0 + 0.25 * static_cast<real_t>(j);
        sx.set_column(j, col);
      }
      const Stats spmv_ms = measure_ms(reps, [&] {
        spmv.apply(team, sx.view(), sy.view());
      });

      // Layout twins for the SpMV family: compressed-index decode, same
      // accumulation order, pinned bit-for-bit below.
      spmv.select_layout(true);
      const Stats spmv_layout_ms = measure_ms(reps, [&] {
        spmv.apply(team, sx.view(), sy_layout.view());
      });
      spmv.select_layout(false);

      std::vector<real_t> colx(nz), coly(nz);
      for (index_t j = 0; j < k; ++j) {
        sx.get_column(j, colx);
        spmv.apply(team, colx, coly);
        for (index_t i = 0; i < n; ++i) {
          if (sy.view().at(i, j) != coly[static_cast<std::size_t>(i)] ||
              sy.view().at(i, j) != sy_layout.view().at(i, j)) {
            std::fprintf(stderr,
                         "%s: spmv k=%d diverged (batched vs single, or "
                         "layout vs gather)\n",
                         c.name.c_str(), k);
            return 1;
          }
        }
      }

      const std::string sk = "spmv_k" + std::to_string(k);
      const double sbytes = static_cast<double>(spmv.bytes_per_apply(k));
      report.add(c.name, sk + "_apply_ms", spmv_ms);
      report.add_scalar(c.name, sk + "_ms_per_rhs",
                        spmv_ms.mean / static_cast<double>(k), "ms-derived");
      report.add(c.name, "layout_" + sk + "_apply_ms", spmv_layout_ms);
      report.add_scalar(c.name, "layout_" + sk + "_ms_per_rhs",
                        spmv_layout_ms.mean / static_cast<double>(k),
                        "ms-derived");
      report.add_scalar(c.name, sk + "_bytes", sbytes, "bytes");
      report.add_scalar(c.name, sk + "_gbps",
                        sbytes / (spmv_ms.min * 1e6), "GB/s");
      report.add_scalar(c.name, "layout_" + sk + "_gbps",
                        sbytes / (spmv_layout_ms.min * 1e6), "GB/s");
      std::printf("%-8s spmv k=%-2d gather %9.4f ms | layout %9.4f ms\n",
                  c.name.c_str(), k, spmv_ms.min, spmv_layout_ms.min);
    }
  }
  report.add_config("layout_compiled", layout_compiled() ? "yes" : "no");
  report.add_config("layout_bound", layout_bind_default() ? "on" : "off");
  report.add_plan_cache(rt.plan_cache_counters());
  return 0;
}
