#include "reference.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

namespace perfbench {

void SeqIluPreconditioner::apply(rtl::ThreadTeam&,
                                 std::span<const real_t> r,
                                 std::span<real_t> z) {
  apply(r, z);
}

void SeqIluPreconditioner::apply(std::span<const real_t> r,
                                 std::span<real_t> z) {
  const rtl::CsrMatrix& l = ilu_.lower();  // strict lower, unit diagonal
  const rtl::CsrMatrix& u = ilu_.upper();  // diagonal first in each row
  const index_t n = ilu_.size();
  const auto lp = l.row_ptr();
  const auto lc = l.col_idx();
  const auto lv = l.values();
  for (index_t i = 0; i < n; ++i) {
    real_t s = r[static_cast<std::size_t>(i)];
    for (index_t k = lp[static_cast<std::size_t>(i)];
         k < lp[static_cast<std::size_t>(i) + 1]; ++k) {
      s -= lv[static_cast<std::size_t>(k)] *
           tmp_[static_cast<std::size_t>(lc[static_cast<std::size_t>(k)])];
    }
    tmp_[static_cast<std::size_t>(i)] = s;
  }
  const auto up = u.row_ptr();
  const auto uc = u.col_idx();
  const auto uv = u.values();
  for (index_t i = n - 1; i >= 0; --i) {
    const index_t b = up[static_cast<std::size_t>(i)];
    const index_t e = up[static_cast<std::size_t>(i) + 1];
    real_t s = tmp_[static_cast<std::size_t>(i)];
    for (index_t k = b + 1; k < e; ++k) {
      s -= uv[static_cast<std::size_t>(k)] *
           z[static_cast<std::size_t>(uc[static_cast<std::size_t>(k)])];
    }
    z[static_cast<std::size_t>(i)] = s / uv[static_cast<std::size_t>(b)];
  }
}

void TimingPreconditioner::apply(rtl::ThreadTeam& team,
                                 std::span<const real_t> r,
                                 std::span<real_t> z) {
  const auto t0 = Clock::now();
  inner_.apply(team, r, z);
  const auto t1 = Clock::now();
  ms += ms_between(t0, t1);
  rec_.record("kernel.apply", t0, t1, op);
}

void TimingPreconditioner::apply_batch(rtl::ThreadTeam& team,
                                       rtl::ConstBatchView r,
                                       rtl::BatchView z) {
  const auto t0 = Clock::now();
  inner_.apply_batch(team, r, z);
  const auto t1 = Clock::now();
  ms += ms_between(t0, t1);
  rec_.record("kernel.apply_batch", t0, t1, op);
}

double true_relative_residual(const rtl::CsrMatrix& a,
                              std::span<const real_t> b,
                              std::span<const real_t> x) {
  const auto p = a.row_ptr();
  const auto c = a.col_idx();
  const auto v = a.values();
  double rr = 0.0;
  double bb = 0.0;
  for (index_t i = 0; i < a.rows(); ++i) {
    double s = b[static_cast<std::size_t>(i)];
    for (index_t k = p[static_cast<std::size_t>(i)];
         k < p[static_cast<std::size_t>(i) + 1]; ++k) {
      s -= v[static_cast<std::size_t>(k)] *
           x[static_cast<std::size_t>(c[static_cast<std::size_t>(k)])];
    }
    rr += s * s;
    bb += b[static_cast<std::size_t>(i)] * b[static_cast<std::size_t>(i)];
  }
  return std::sqrt(rr) / std::sqrt(bb);
}

double relative_difference(std::span<const real_t> x,
                           std::span<const real_t> y) {
  if (x.size() != y.size()) throw std::invalid_argument("size mismatch");
  double diff = 0.0;
  double scale = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    diff = std::max(diff, std::abs(x[i] - y[i]));
    scale = std::max(scale, std::abs(y[i]));
  }
  return scale > 0.0 ? diff / scale : diff;
}

std::vector<real_t> seeded_vector(index_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<real_t> d(-1.0, 1.0);
  std::vector<real_t> v(static_cast<std::size_t>(n));
  for (real_t& x : v) x = d(rng);
  return v;
}

std::vector<real_t> perturbed_rhs(std::span<const real_t> b0,
                                  std::uint64_t seed) {
  const std::vector<real_t> u =
      seeded_vector(static_cast<index_t>(b0.size()), seed);
  std::vector<real_t> b(b0.begin(), b0.end());
  for (std::size_t i = 0; i < b.size(); ++i) b[i] *= 1.0 + 0.1 * u[i];
  return b;
}

}  // namespace perfbench
