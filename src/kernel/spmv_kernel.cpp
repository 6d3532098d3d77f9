#include "kernel/spmv_kernel.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace rtl {

namespace {

[[noreturn]] void bind_fail(const std::string& what) {
  throw std::invalid_argument("SpMVKernel::bind: " + what);
}

// Chunked-lane row product, mirroring the bound-solve bodies: double
// accumulators regardless of the storage scalar T. Per lane the
// accumulation order is exactly the single-vector row sum (stored entries
// in order), so batched equals k singles bit-for-bit.
inline constexpr std::size_t kLaneChunk = 32;

template <typename T>
void spmv_rows(const index_t* row_ptr, const index_t* col, const real_t* val,
               const T* x, T* y, index_t k, index_t row_begin,
               index_t row_end) {
  const std::size_t w = static_cast<std::size_t>(k);
  real_t acc[kLaneChunk];
  for (index_t i = row_begin; i < row_end; ++i) {
    const std::size_t b = static_cast<std::size_t>(row_ptr[i]);
    const std::size_t e = static_cast<std::size_t>(row_ptr[i + 1]);
    T* yi = y + static_cast<std::size_t>(i) * w;
    for (std::size_t c = 0; c < w; c += kLaneChunk) {
      const std::size_t m = std::min(kLaneChunk, w - c);
      for (std::size_t jj = 0; jj < m; ++jj) acc[jj] = 0.0;
      for (std::size_t t = b; t < e; ++t) {
        const real_t v = val[t];
        const T* xd = x + static_cast<std::size_t>(col[t]) * w + c;
        for (std::size_t jj = 0; jj < m; ++jj) {
          acc[jj] += v * static_cast<real_t>(xd[jj]);
        }
      }
      for (std::size_t jj = 0; jj < m; ++jj) {
        yi[c + jj] = static_cast<T>(acc[jj]);
      }
    }
  }
}

// Layout flavor: SpMV already streams rows in storage order, so values
// come straight from the CSR (never stale); what changes is the column
// decode — per-slab u16 deltas when the slab's range allowed it — and an
// explicit prefetch of the next row's values. Identical accumulation
// order, so results are bit-for-bit equal to the gather rows.
template <typename T, typename Idx>
void spmv_row_lanes(const real_t* v, const Idx* ix, index_t base,
                    std::size_t len, const T* x, T* yi, std::size_t w) {
  real_t acc[kLaneChunk];
  for (std::size_t c = 0; c < w; c += kLaneChunk) {
    const std::size_t m = std::min(kLaneChunk, w - c);
    for (std::size_t jj = 0; jj < m; ++jj) acc[jj] = 0.0;
    for (std::size_t t = 0; t < len; ++t) {
      const real_t vv = v[t];
      const std::size_t cc =
          static_cast<std::size_t>(base) + static_cast<std::size_t>(ix[t]);
      const T* xd = x + cc * w + c;
      for (std::size_t jj = 0; jj < m; ++jj) {
        acc[jj] += vv * static_cast<real_t>(xd[jj]);
      }
    }
    for (std::size_t jj = 0; jj < m; ++jj) {
      yi[c + jj] = static_cast<T>(acc[jj]);
    }
  }
}

template <typename T>
void spmv_rows_layout(const index_t* row_ptr, const real_t* val,
                      const SpmvLayout& lo, const T* x, T* y, index_t k,
                      index_t row_begin, index_t row_end) {
  const std::size_t w = static_cast<std::size_t>(k);
  const SpmvLayout::Slab* slabs = lo.slabs();
  const std::uint16_t* i16 = lo.idx16();
  const index_t* i32 = lo.idx32();
  for (index_t i = row_begin; i < row_end; ++i) {
    const std::size_t b = static_cast<std::size_t>(row_ptr[i]);
    const std::size_t e = static_cast<std::size_t>(row_ptr[i + 1]);
    RTL_PREFETCH(val + e);
    const SpmvLayout::Slab sl = slabs[i >> SpmvLayout::kSlabShift];
    const std::size_t pos = static_cast<std::size_t>(sl.idx_off) +
                            (b - static_cast<std::size_t>(sl.src_base));
    T* yi = y + static_cast<std::size_t>(i) * w;
    if (sl.narrow) {
      spmv_row_lanes<T>(val + b, i16 + pos, sl.col_base, e - b, x, yi,
                              w);
    } else {
      spmv_row_lanes<T>(val + b, i32 + pos, sl.col_base, e - b, x, yi,
                              w);
    }
  }
}

}  // namespace

SpMVKernel SpMVKernel::bind(const CsrMatrix& a) {
  const auto rp = a.row_ptr();
  if (static_cast<index_t>(rp.size()) != a.rows() + 1) {
    bind_fail("row_ptr has " + std::to_string(rp.size()) +
              " entries for " + std::to_string(a.rows()) + " rows");
  }
  if (rp[0] != 0) bind_fail("row_ptr does not start at 0");
  for (index_t i = 0; i < a.rows(); ++i) {
    if (rp[static_cast<std::size_t>(i) + 1] < rp[static_cast<std::size_t>(i)]) {
      bind_fail("row_ptr decreases at row " + std::to_string(i));
    }
  }
  if (rp[static_cast<std::size_t>(a.rows())] != a.nnz()) {
    bind_fail("row_ptr covers " +
              std::to_string(rp[static_cast<std::size_t>(a.rows())]) +
              " entries but the matrix stores " + std::to_string(a.nnz()));
  }
  for (const index_t j : a.col_idx()) {
    if (j < 0 || j >= a.cols()) {
      bind_fail("column index " + std::to_string(j) +
                " out of range for " + std::to_string(a.cols()) + " columns");
    }
  }
  return SpMVKernel(a);
}

SpMVKernel::SpMVKernel(const CsrMatrix& a)
    : row_ptr_(a.row_ptr().data()),
      col_(a.col_idx().data()),
      val_(a.values().data()),
      rows_(a.rows()),
      cols_(a.cols()),
      nnz_(a.nnz()) {
  // Mirrors BoundKernel: the compressed-index layout is built whenever it
  // is compiled in, so select_layout() can flip an in-binary A/B pair;
  // the env-controlled bind default decides whether applies use it.
  if (layout_compiled()) {
    layout_ = std::make_shared<SpmvLayout>(a.row_ptr(), a.col_idx(), rows_);
    layout_on_ = layout_bind_default();
  }
}

void SpMVKernel::apply(ThreadTeam& team, std::span<const real_t> x,
                       std::span<real_t> y) const {
  assert(static_cast<index_t>(x.size()) == cols_);
  assert(static_cast<index_t>(y.size()) == rows_);
  // Single-vector row sums are gather-reductions: one body per data
  // layout.
  const index_t* row_ptr = row_ptr_;
  const real_t* val = val_;
  const real_t* xp = x.data();
  real_t* yp = y.data();
  if (layout_on_) {
    const SpmvLayout* lo = layout_.get();
    team.parallel_blocks(rows_, [=](int, index_t b, index_t e) {
      const SpmvLayout::Slab* slabs = lo->slabs();
      const std::uint16_t* i16 = lo->idx16();
      const index_t* i32 = lo->idx32();
      for (index_t i = b; i < e; ++i) {
        const std::size_t t0 = static_cast<std::size_t>(row_ptr[i]);
        const std::size_t t1 = static_cast<std::size_t>(row_ptr[i + 1]);
        RTL_PREFETCH(val + t1);
        const SpmvLayout::Slab sl = slabs[i >> SpmvLayout::kSlabShift];
        const std::size_t pos = static_cast<std::size_t>(sl.idx_off) +
                                (t0 - static_cast<std::size_t>(sl.src_base));
        real_t sum = 0.0;
        if (sl.narrow) {
          for (std::size_t t = t0; t < t1; ++t) {
            const std::size_t c =
                static_cast<std::size_t>(sl.col_base) +
                static_cast<std::size_t>(i16[pos + (t - t0)]);
            sum += val[t] * xp[c];
          }
        } else {
          for (std::size_t t = t0; t < t1; ++t) {
            const std::size_t c =
                static_cast<std::size_t>(i32[pos + (t - t0)]);
            sum += val[t] * xp[c];
          }
        }
        yp[static_cast<std::size_t>(i)] = sum;
      }
    });
    return;
  }
  const index_t* col = col_;
  team.parallel_blocks(rows_, [=](int, index_t b, index_t e) {
    for (index_t i = b; i < e; ++i) {
      const std::size_t t0 = static_cast<std::size_t>(row_ptr[i]);
      const std::size_t t1 = static_cast<std::size_t>(row_ptr[i + 1]);
      real_t sum = 0.0;
      for (std::size_t t = t0; t < t1; ++t) {
        sum += val[t] * xp[static_cast<std::size_t>(col[t])];
      }
      yp[static_cast<std::size_t>(i)] = sum;
    }
  });
}

template <typename T>
void SpMVKernel::apply_batch_impl(ThreadTeam& team,
                                  BasicConstBatchView<T> x,
                                  BasicBatchView<T> y) const {
  assert(x.rows() == cols_ && y.rows() == rows_);
  assert(x.width() == y.width());
  const index_t k = x.width();
  const index_t* row_ptr = row_ptr_;
  const index_t* col = col_;
  const real_t* val = val_;
  const T* xp = x.data();
  T* yp = y.data();
  if (layout_on_) {
    const SpmvLayout* lo = layout_.get();
    team.parallel_blocks(rows_, [=](int, index_t b, index_t e) {
      spmv_rows_layout<T>(row_ptr, val, *lo, xp, yp, k, b, e);
    });
    return;
  }
  team.parallel_blocks(rows_, [=](int, index_t b, index_t e) {
    spmv_rows<T>(row_ptr, col, val, xp, yp, k, b, e);
  });
}

void SpMVKernel::apply(ThreadTeam& team, ConstBatchView x, BatchView y) const {
  apply_batch_impl<real_t>(team, x, y);
}

void SpMVKernel::apply(ThreadTeam& team, ConstBatchViewF x,
                       BatchViewF y) const {
  apply_batch_impl<float>(team, x, y);
}

}  // namespace rtl
