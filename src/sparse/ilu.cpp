#include "sparse/ilu.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace rtl {

namespace {

/// Per-row symbolic state: a sorted singly-linked list of active columns
/// threaded through `next`, with fill levels in `lev` — the Appendix II
/// §2.3 merge structure ("columns ... kept sorted in increasing order in a
/// linked list").
struct SymbolicRow {
  explicit SymbolicRow(index_t n)
      : next(static_cast<std::size_t>(n) + 1, -1),
        lev(static_cast<std::size_t>(n),
            std::numeric_limits<index_t>::max()) {}

  // next[n] is the list head sentinel slot.
  std::vector<index_t> next;
  std::vector<index_t> lev;
  index_t head_sentinel() const { return static_cast<index_t>(lev.size()); }

  /// Load the original pattern of row i (level 0), forcing the diagonal.
  void load(const CsrMatrix& a, index_t i) {
    const index_t sentinel = head_sentinel();
    index_t prev = sentinel;
    bool diag_seen = false;
    for (const index_t c : a.row_cols(i)) {
      if (!diag_seen && c >= i) {
        if (c > i) {
          // Insert the structural diagonal before the first upper entry.
          next[static_cast<std::size_t>(prev)] = i;
          lev[static_cast<std::size_t>(i)] = 0;
          prev = i;
        }
        diag_seen = true;
      }
      next[static_cast<std::size_t>(prev)] = c;
      lev[static_cast<std::size_t>(c)] = 0;
      prev = c;
    }
    if (!diag_seen) {
      next[static_cast<std::size_t>(prev)] = i;
      lev[static_cast<std::size_t>(i)] = 0;
      prev = i;
    }
    next[static_cast<std::size_t>(prev)] = -1;
  }

  /// Merge fill generated by pivot row k: for every retained upper entry
  /// (k, j), j > k, propose level lev(i,k) + ulev(k,j) + 1.
  void merge(index_t k, std::span<const index_t> ucols,
             std::span<const index_t> ulevs) {
    const index_t base = lev[static_cast<std::size_t>(k)];
    // Resume-from cursor: both the row list and ucols are sorted, so a
    // single forward scan merges them in O(|row| + |ucols|).
    index_t prev = k;  // k is in the list and k < all j processed below.
    for (std::size_t t = 0; t < ucols.size(); ++t) {
      const index_t j = ucols[t];
      if (j <= k) continue;  // skip the diagonal entry of row k
      const index_t proposed = base + ulevs[t] + 1;
      // Advance prev until next[prev] >= j.
      index_t nxt = next[static_cast<std::size_t>(prev)];
      while (nxt != -1 && nxt < j) {
        prev = nxt;
        nxt = next[static_cast<std::size_t>(prev)];
      }
      if (nxt == j) {
        auto& l = lev[static_cast<std::size_t>(j)];
        l = std::min(l, proposed);
        prev = j;
      } else {
        next[static_cast<std::size_t>(prev)] = j;
        next[static_cast<std::size_t>(j)] = nxt;
        lev[static_cast<std::size_t>(j)] = proposed;
        prev = j;
      }
    }
  }
};

}  // namespace

IluFactorization::IluFactorization(const CsrMatrix& a, int level)
    : level_(level) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("IluFactorization: matrix must be square");
  }
  if (level < 0) {
    throw std::invalid_argument("IluFactorization: negative fill level");
  }
  const index_t n = a.rows();

  std::vector<index_t> lptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<index_t> lcol;
  std::vector<index_t> uptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<index_t> ucol;
  // Retained levels of the upper part of each factored row, needed when the
  // row later acts as a pivot.
  std::vector<index_t> ulev;

  SymbolicRow row(n);
  for (index_t i = 0; i < n; ++i) {
    row.load(a, i);
    // Walk retained lower entries in ascending column order; fill inserted
    // by merges lands *after* the current cursor only for columns > k, so a
    // single forward pass visits every eliminible column.
    for (index_t k = row.next[static_cast<std::size_t>(row.head_sentinel())];
         k != -1 && k < i; k = row.next[static_cast<std::size_t>(k)]) {
      if (row.lev[static_cast<std::size_t>(k)] > level) continue;  // dropped
      const auto ub = static_cast<std::size_t>(uptr[static_cast<std::size_t>(k)]);
      const auto ue =
          static_cast<std::size_t>(uptr[static_cast<std::size_t>(k) + 1]);
      row.merge(k,
                std::span<const index_t>(ucol.data() + ub, ucol.data() + ue),
                std::span<const index_t>(ulev.data() + ub, ulev.data() + ue));
    }
    // Harvest retained entries into L / U patterns.
    for (index_t c = row.next[static_cast<std::size_t>(row.head_sentinel())];
         c != -1; c = row.next[static_cast<std::size_t>(c)]) {
      if (row.lev[static_cast<std::size_t>(c)] > level) continue;
      if (c < i) {
        lcol.push_back(c);
      } else {
        ucol.push_back(c);
        ulev.push_back(row.lev[static_cast<std::size_t>(c)]);
      }
      // Reset level for the next row's pass.
    }
    // Clear levels touched by this row (walk the full list incl. dropped).
    for (index_t c = row.next[static_cast<std::size_t>(row.head_sentinel())];
         c != -1;) {
      const index_t nxt = row.next[static_cast<std::size_t>(c)];
      row.lev[static_cast<std::size_t>(c)] =
          std::numeric_limits<index_t>::max();
      c = nxt;
    }
    lptr[static_cast<std::size_t>(i) + 1] = static_cast<index_t>(lcol.size());
    uptr[static_cast<std::size_t>(i) + 1] = static_cast<index_t>(ucol.size());
  }

  // U rows store the diagonal first so pivots are O(1) to reach; the rest
  // of the row stays sorted. Reorder: (diag, then ascending) — the harvest
  // above produced fully ascending order with the diagonal first already,
  // because c >= i puts the diagonal at the front of the upper range.
  std::vector<real_t> lval(lcol.size(), 0.0);
  std::vector<real_t> uval(ucol.size(), 0.0);
  lower_ = CsrMatrix(n, n, std::move(lptr), std::move(lcol), std::move(lval));
  upper_ = CsrMatrix(n, n, std::move(uptr), std::move(ucol), std::move(uval));
}

DependenceGraph IluFactorization::row_dependences() const {
  const index_t n = lower_.rows();
  std::vector<index_t> ptr(lower_.row_ptr().begin(), lower_.row_ptr().end());
  std::vector<index_t> adj(lower_.col_idx().begin(), lower_.col_idx().end());
  return DependenceGraph(n, std::move(ptr), std::move(adj));
}

void IluFactorization::factor(const CsrMatrix& a) {
  Workspace ws(size());
  for (index_t i = 0; i < size(); ++i) {
    if (!factor_row(a, i, ws)) throw ZeroPivotError(i);
  }
}

bool IluFactorization::factor_row(const CsrMatrix& a, index_t i,
                                  Workspace& ws) noexcept {
  // Generation-stamped dense accumulator: stamp marks which columns belong
  // to this row's retained pattern.
  const index_t gen = ++ws.gen_;
  const auto lc = lower_.row_cols(i);
  const auto uc = upper_.row_cols(i);
  for (const index_t c : lc) {
    ws.stamp_[static_cast<std::size_t>(c)] = gen;
    ws.w_[static_cast<std::size_t>(c)] = 0.0;
  }
  for (const index_t c : uc) {
    ws.stamp_[static_cast<std::size_t>(c)] = gen;
    ws.w_[static_cast<std::size_t>(c)] = 0.0;
  }
  // Scatter original row values; entries of A outside the retained pattern
  // are dropped (they exceeded the fill level).
  {
    const auto cs = a.row_cols(i);
    const auto vs = a.row_vals(i);
    for (std::size_t k = 0; k < cs.size(); ++k) {
      if (ws.stamp_[static_cast<std::size_t>(cs[k])] == gen) {
        ws.w_[static_cast<std::size_t>(cs[k])] = vs[k];
      }
    }
  }
  // Eliminate with each stabilized pivot row k in ascending order.
  auto lv = lower_.row_vals(i);
  for (std::size_t t = 0; t < lc.size(); ++t) {
    const index_t k = lc[t];
    const auto pk = upper_.row_cols(k);
    const auto pv = upper_.row_vals(k);
    assert(!pk.empty() && pk.front() == k);
    const real_t pivot = pv.front();
    if (pivot == 0.0) return false;
    const real_t lik = ws.w_[static_cast<std::size_t>(k)] / pivot;
    ws.w_[static_cast<std::size_t>(k)] = lik;
    for (std::size_t s = 1; s < pk.size(); ++s) {
      const index_t j = pk[s];
      if (ws.stamp_[static_cast<std::size_t>(j)] == gen) {
        ws.w_[static_cast<std::size_t>(j)] -= lik * pv[s];
      }
    }
  }
  // Gather back into the factor value arrays.
  for (std::size_t t = 0; t < lc.size(); ++t) {
    lv[t] = ws.w_[static_cast<std::size_t>(lc[t])];
  }
  auto uv = upper_.row_vals(i);
  for (std::size_t t = 0; t < uc.size(); ++t) {
    uv[t] = ws.w_[static_cast<std::size_t>(uc[t])];
  }
  return !uv.empty() && uc.front() == i && uv.front() != 0.0;
}

}  // namespace rtl
