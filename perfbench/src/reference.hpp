#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "solver/preconditioner.hpp"
#include "sparse/csr.hpp"
#include "sparse/ilu.hpp"
#include "util.hpp"

/// The benchmark's own computations, made apart from the library's
/// executors and kernels: the sequential reference preconditioner, the
/// true residual, and the seeded inputs.
namespace perfbench {

using rtl::index_t;
using rtl::real_t;

/// z <- U^{-1} L^{-1} r by plain natural-order forward and back
/// substitution over the factors of an `IluFactorization` — the
/// single-threaded baseline the parallel executors are read against.
/// Ignores the team: every row is done by the calling thread.
class SeqIluPreconditioner : public rtl::Preconditioner {
 public:
  explicit SeqIluPreconditioner(const rtl::IluFactorization& ilu)
      : ilu_(ilu), tmp_(static_cast<std::size_t>(ilu.size())) {}

  void apply(rtl::ThreadTeam& team, std::span<const real_t> r,
             std::span<real_t> z) override;

  /// The substitution without a team, for callers that have none.
  void apply(std::span<const real_t> r, std::span<real_t> z);

 private:
  const rtl::IluFactorization& ilu_;
  std::vector<real_t> tmp_;
};

/// Decorator that forwards to a real preconditioner and adds the wall
/// time of every application to `ms` (and records it as a span when the
/// recorder is enabled), so a Krylov solve splits into preconditioner
/// time and everything else.
class TimingPreconditioner : public rtl::Preconditioner {
 public:
  TimingPreconditioner(rtl::Preconditioner& inner, SpanRecorder& rec)
      : inner_(inner), rec_(rec) {}

  void apply(rtl::ThreadTeam& team, std::span<const real_t> r,
             std::span<real_t> z) override;
  void apply_batch(rtl::ThreadTeam& team, rtl::ConstBatchView r,
                   rtl::BatchView z) override;

  /// Accumulated application time since the last reset.
  double ms = 0.0;
  /// Operation id stamped on recorded spans.
  std::int64_t op = -1;

 private:
  rtl::Preconditioner& inner_;
  SpanRecorder& rec_;
};

/// ||b - A x||_2 / ||b||_2 by the benchmark's own CSR loop.
[[nodiscard]] double true_relative_residual(const rtl::CsrMatrix& a,
                                            std::span<const real_t> b,
                                            std::span<const real_t> x);

/// max_i |x_i - y_i| / max_i |y_i|.
[[nodiscard]] double relative_difference(std::span<const real_t> x,
                                         std::span<const real_t> y);

/// Deterministic vector of `n` values uniform in [-1, 1) from `seed`.
[[nodiscard]] std::vector<real_t> seeded_vector(index_t n, std::uint64_t seed);

/// The generator's right-hand side `b0` with every entry scaled by
/// 1 + 0.1 u, u = seeded_vector(n, seed). A white-noise rhs (b = A x for a
/// random x) made GMRES iteration counts on 7pt:60 range over 62-73 from
/// seed to seed; around the generator's smooth rhs they stay at 98-99, so
/// the seed changes the inputs but not the amount of work.
[[nodiscard]] std::vector<real_t> perturbed_rhs(std::span<const real_t> b0,
                                                std::uint64_t seed);

}  // namespace perfbench
