#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "graph/dependence_graph.hpp"
#include "runtime/types.hpp"
#include "sparse/csr.hpp"

/// Incomplete LU factorization (Appendix II).
///
/// PCGPAK's preconditioner is an approximate factorization Q = L U where
/// fill is suppressed by *indirectness*: fill created from original
/// nonzeros is level 1, fill created from level-l fill is level l+1, and
/// only fill up to a chosen level is retained (classic level-of-fill
/// ILU(k)). The computation splits into
///   1. a symbolic factorization that computes the retained pattern using
///      sorted linked-list row merges (Appendix II §2.3), and
///   2. a numeric factorization over that fixed pattern whose row-level
///      dependence DAG is the same shape as the triangular solve's —
///      row i needs every *stabilized* pivot row j < i in its L pattern
///      (Figure 13) — and is therefore parallelized with the same
///      inspector/executor machinery.
namespace rtl {

/// Thrown by a numeric factorization that met a zero pivot. `row()` is the
/// lowest-numbered row whose elimination failed, independent of the
/// processor count and schedule.
class ZeroPivotError : public std::runtime_error {
 public:
  explicit ZeroPivotError(index_t row)
      : std::runtime_error("IluFactorization: zero pivot in row " +
                           std::to_string(row)),
        row_(row) {}
  [[nodiscard]] index_t row() const noexcept { return row_; }

 private:
  index_t row_;
};

/// Pattern + values of an incomplete factorization A ~= L U with unit
/// lower-triangular L (strict part stored) and upper-triangular U
/// (diagonal first in each row).
class IluFactorization {
 public:
  /// Symbolic factorization: computes the retained sparsity pattern of
  /// L and U for fill level `level` (level 0 keeps exactly A's pattern).
  /// A missing diagonal entry is inserted structurally. Values are zero
  /// until `factor()` runs.
  IluFactorization(const CsrMatrix& a, int level);

  /// Strictly-lower factor structure/values (unit diagonal implied).
  [[nodiscard]] const CsrMatrix& lower() const noexcept { return lower_; }
  /// Upper factor including the diagonal (first entry of each row).
  [[nodiscard]] const CsrMatrix& upper() const noexcept { return upper_; }
  /// Fill level of the symbolic phase.
  [[nodiscard]] int level() const noexcept { return level_; }

  /// Dependence DAG of the numeric-factorization outer loop: row i depends
  /// on every pivot row in its L pattern. Identical to
  /// `lower_solve_dependences(lower())`.
  [[nodiscard]] DependenceGraph row_dependences() const;

  /// Scratch state for `factor_row`; one per thread when factoring rows
  /// concurrently.
  class Workspace {
   public:
    explicit Workspace(index_t n)
        : w_(static_cast<std::size_t>(n), 0.0),
          stamp_(static_cast<std::size_t>(n), 0) {}

   private:
    friend class IluFactorization;
    std::vector<real_t> w_;       // dense accumulator for the active row
    std::vector<index_t> stamp_;  // generation marks: stamp_[j]==gen_ <=> in row
    index_t gen_ = 0;
  };

  /// Sequential numeric factorization of `a` over the symbolic pattern.
  /// Throws `ZeroPivotError` on a zero pivot.
  void factor(const CsrMatrix& a);

  /// Numeric elimination of a single row (Figure 13's loop body). Safe to
  /// call concurrently for distinct rows provided every row in
  /// `row_dependences().deps(i)` has already been factored — exactly the
  /// contract the executors enforce. Returns false when row i's pivot, or
  /// that of a pivot row it eliminates with, is zero; the row's values
  /// are then unspecified. Never throws, so a failing row inside a
  /// flag-waiting executor region still completes and its successors are
  /// released: the caller raises the error after the region joins.
  [[nodiscard]] bool factor_row(const CsrMatrix& a, index_t i,
                                Workspace& ws) noexcept;

  /// Matrix dimension.
  [[nodiscard]] index_t size() const noexcept { return lower_.rows(); }

 private:
  int level_;
  CsrMatrix lower_;
  CsrMatrix upper_;
};

}  // namespace rtl
