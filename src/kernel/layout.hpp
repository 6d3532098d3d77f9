#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/plan.hpp"
#include "runtime/types.hpp"

/// Bind-time execution layout: schedule-order data packing for the kernel
/// layer.
///
/// The inspector already fixed the order every row will execute in — the
/// flat Schedule — but the gather bodies still walk the matrix in *problem*
/// order: every row visit chases `order[]` indirection into values laid out
/// by row number, through 32-bit absolute column indices. An
/// `ExecutionLayout` pays one extra pass at kernel-bind time to repack the
/// bound factor into *execution* order:
///
///   * each processor's phase rows become one contiguous **slab** — the
///     pre-scheduled executor's row loop walks the packed value stream as a
///     pointer bump, and every other executor reaches the same packed rows
///     through a 16-byte per-iteration descriptor;
///   * column indices are stored compressed per slab: when the slab's
///     column range fits 16 bits the indices become u16 offsets from the
///     slab's base column, otherwise they stay absolute 32-bit — chosen by
///     the measured range, never by guess;
///   * the hot loop issues an explicit prefetch of the next packed row, so
///     the (sequential) value stream is in flight while the current row's
///     dependency gathers resolve.
///
/// The repack permutes *loads only*: each packed row keeps its entries in
/// storage order and the kernel bodies perform the identical per-lane
/// operation sequence on them, so layout results are bit-for-bit equal to
/// the gather path under every executor policy (see
/// tests/property_test.cpp). Values are *copied* into the packed stream,
/// which makes re-factorization visible only after `refresh_values()` —
/// `IluPreconditioner::factor` calls it through the bound kernels, so the
/// "values may be rewritten in place" contract of BoundKernel still holds
/// for solver users.
///
/// Dispatch: `RTL_LAYOUT` CMake option → `layout_compiled()`,
/// `RTL_LAYOUT` environment override → `layout_bind_default()`, and
/// per-kernel `select_layout()` for the in-binary gather-vs-layout
/// control pairs in bench_batch. When the library is compiled with
/// layouts off, kernels never build one and `select_layout(true)` is a
/// no-op request.
namespace rtl {

/// True when the library was compiled with the layout path available
/// (`RTL_LAYOUT=ON`, the default).
constexpr bool layout_compiled() noexcept {
#if defined(RTL_LAYOUT_ENABLED)
  return true;
#else
  return false;
#endif
}

/// The bind-time dispatch default: layout execution when compiled in,
/// unless the `RTL_LAYOUT` environment variable is set to `0`, `off`, or
/// `false` (case-insensitive). Read once on first use; `select_layout()`
/// on a bound kernel overrides per kernel.
[[nodiscard]] bool layout_bind_default() noexcept;

/// Schedule-order packing of one bound triangular factor.
///
/// Built from an immutable Plan and the bound CSR spans; the CSR arrays
/// must stay stable for the layout's lifetime (the same stability contract
/// the binding kernel already imposes), because `refresh_values()`
/// re-gathers the packed values from them after a re-factorization.
class ExecutionLayout {
 public:
  /// Per-iteration descriptor, indexed by the *iteration* number the
  /// executors hand the body (for the upper solve that is n-1-row). All
  /// four fields in one 16-byte load:
  ///   val_off    — start of the row's packed values in `values()`
  ///   idx_off    — start of the row's indices in `idx16()`/`idx32()`
  ///   col_base   — base column subtracted by the slab's compression
  ///                (0 for wide slabs: idx32 entries are absolute)
  ///   len_narrow — (entry count << 1) | (1 if the slab is u16-compressed)
  struct Row {
    index_t val_off;
    index_t idx_off;
    index_t col_base;
    index_t len_narrow;
  };

  /// Pack the factor bound as (row_ptr, col, val) of dimension n into the
  /// schedule order of `plan`. `reversed_rows` bakes in the upper solve's
  /// iteration-to-row permutation (iteration it handles row n-1-it).
  ExecutionLayout(const Plan& plan, std::span<const index_t> row_ptr,
                  std::span<const index_t> col, std::span<const real_t> val,
                  bool reversed_rows);

  /// Re-gather the packed values from the bound CSR — the layout half of
  /// the "values may be rewritten in place between solves" contract. One
  /// linear pass; structure is fixed so only values move.
  void refresh_values() noexcept;

  [[nodiscard]] const Row* rows() const noexcept { return meta_.data(); }
  [[nodiscard]] const real_t* values() const noexcept { return vals_.data(); }
  [[nodiscard]] const std::uint16_t* idx16() const noexcept {
    return idx16_.data();
  }
  [[nodiscard]] const index_t* idx32() const noexcept { return idx32_.data(); }

  /// Bytes the layout adds to the executor's working set (packed values +
  /// compressed index streams + per-iteration descriptors).
  [[nodiscard]] std::size_t bytes() const noexcept {
    return vals_.size() * sizeof(real_t) +
           idx16_.size() * sizeof(std::uint16_t) +
           idx32_.size() * sizeof(index_t) + meta_.size() * sizeof(Row);
  }

  /// Slab accounting: one slab per (processor, phase) row group.
  [[nodiscard]] std::size_t num_slabs() const noexcept { return num_slabs_; }
  /// Slabs whose column range fit the u16 delta encoding.
  [[nodiscard]] std::size_t narrow_slabs() const noexcept {
    return narrow_slabs_;
  }

 private:
  std::vector<Row> meta_;
  std::vector<real_t> vals_;
  std::vector<std::uint16_t> idx16_;
  std::vector<index_t> idx32_;
  std::size_t num_slabs_ = 0;
  std::size_t narrow_slabs_ = 0;
  // Source CSR for refresh_values(): stable by the binding contract.
  const index_t* src_row_ptr_ = nullptr;
  const real_t* src_val_ = nullptr;
  index_t n_ = 0;
  bool reversed_ = false;
};

/// Compressed-index layout for the plan-free SpMV family.
///
/// SpMV already streams rows in storage order, so there is nothing to
/// repack — values are read straight from the bound CSR (and therefore
/// never go stale). What the layout adds is the per-slab index
/// compression: rows are grouped into fixed blocks of `kSlabRows` and each
/// block's column indices are stored as u16 deltas when the measured range
/// allows, absolute 32-bit otherwise.
class SpmvLayout {
 public:
  static constexpr index_t kSlabShift = 8;
  static constexpr index_t kSlabRows = index_t{1} << kSlabShift;

  /// Per-slab descriptor: rows [s*kSlabRows, min(n, (s+1)*kSlabRows)).
  ///   idx_off  — slab start in `idx16()`/`idx32()`
  ///   src_base — row_ptr value at the slab's first row (entry t of the
  ///              slab sits at idx_off + (t - src_base))
  ///   col_base — compression base column (0 for wide slabs)
  ///   narrow   — 1 when the slab is u16-compressed
  struct Slab {
    index_t idx_off;
    index_t src_base;
    index_t col_base;
    index_t narrow;
  };

  SpmvLayout(std::span<const index_t> row_ptr, std::span<const index_t> col,
             index_t rows);

  [[nodiscard]] const Slab* slabs() const noexcept { return slabs_.data(); }
  [[nodiscard]] const std::uint16_t* idx16() const noexcept {
    return idx16_.data();
  }
  [[nodiscard]] const index_t* idx32() const noexcept { return idx32_.data(); }

  [[nodiscard]] std::size_t bytes() const noexcept {
    return idx16_.size() * sizeof(std::uint16_t) +
           idx32_.size() * sizeof(index_t) + slabs_.size() * sizeof(Slab);
  }
  [[nodiscard]] std::size_t num_slabs() const noexcept {
    return slabs_.size();
  }
  [[nodiscard]] std::size_t narrow_slabs() const noexcept {
    return narrow_slabs_;
  }

 private:
  std::vector<Slab> slabs_;
  std::vector<std::uint16_t> idx16_;
  std::vector<index_t> idx32_;
  std::size_t narrow_slabs_ = 0;
};

}  // namespace rtl

/// Prefetch hint used by the layout kernel bodies: a pure performance
/// annotation with no observable effect, compiled away where unsupported.
#if defined(__GNUC__) || defined(__clang__)
#define RTL_PREFETCH(addr) __builtin_prefetch(addr)
#else
#define RTL_PREFETCH(addr) ((void)0)
#endif
