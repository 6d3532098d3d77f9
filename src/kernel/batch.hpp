#pragma once

#include <cassert>
#include <span>
#include <vector>

#include "runtime/types.hpp"

/// Batched right-hand-side views for the kernel layer.
///
/// A batch is k vectors of length n stored **row-major by matrix row**:
/// element (i, j) — row i of right-hand side j — lives at data[i*k + j].
/// That layout is what makes batched sweeps pay for themselves: when a
/// kernel body processes row i it touches one contiguous k-wide strip per
/// operand, so the k-sweep over a row is a unit-stride inner loop and the
/// matrix row (cols/vals) is read once for all k right-hand sides. The
/// per-wavefront synchronization — one barrier per phase, one ready-flag
/// publish per row — is paid once regardless of k.
///
/// The views are templated on the storage scalar: `BatchView` et al. are
/// the `real_t` (double) workhorses; the `float` aliases (`BatchViewF`,
/// ...) carry the mixed-precision storage path — float32 in memory,
/// double accumulation inside the kernel row sweeps (see
/// kernel/bound_kernel.cpp and docs/ARCHITECTURE.md "Kernel dispatch").
namespace rtl {

/// Read-only view of a row-major n×k batch with storage scalar T.
template <typename T>
class BasicConstBatchView {
 public:
  using value_type = T;

  BasicConstBatchView() = default;
  /// View `data` as n rows of k values; data must hold n*k elements.
  BasicConstBatchView(const T* data, index_t n, index_t k) noexcept
      : data_(data), n_(n), k_(k) {
    assert(n >= 0 && k >= 1);
  }
  /// A single vector is a batch of width 1.
  explicit BasicConstBatchView(std::span<const T> vec) noexcept
      : BasicConstBatchView(vec.data(), static_cast<index_t>(vec.size()), 1) {}

  [[nodiscard]] const T* data() const noexcept { return data_; }
  [[nodiscard]] index_t rows() const noexcept { return n_; }
  [[nodiscard]] index_t width() const noexcept { return k_; }
  /// The k-wide strip of row i (contiguous).
  [[nodiscard]] const T* row(index_t i) const noexcept {
    assert(i >= 0 && i < n_);
    return data_ + static_cast<std::size_t>(i) * static_cast<std::size_t>(k_);
  }
  [[nodiscard]] T at(index_t i, index_t j) const noexcept {
    assert(j >= 0 && j < k_);
    return row(i)[j];
  }

  /// Gather column j into `vec` (vec.size() must equal rows()). Hot on
  /// the batched Krylov path, where per-column state round-trips through
  /// batches.
  void get_column(index_t j, std::span<T> vec) const {
    assert(static_cast<index_t>(vec.size()) == n_ && j >= 0 && j < k_);
    const T* src = data_ + static_cast<std::size_t>(j);
    const std::size_t w = static_cast<std::size_t>(k_);
    T* dst = vec.data();
    for (index_t i = 0; i < n_; ++i) {
      dst[static_cast<std::size_t>(i)] = src[static_cast<std::size_t>(i) * w];
    }
  }

 private:
  const T* data_ = nullptr;
  index_t n_ = 0;
  index_t k_ = 1;
};

/// Mutable view of a row-major n×k batch with storage scalar T.
template <typename T>
class BasicBatchView {
 public:
  using value_type = T;

  BasicBatchView() = default;
  BasicBatchView(T* data, index_t n, index_t k) noexcept
      : data_(data), n_(n), k_(k) {
    assert(n >= 0 && k >= 1);
  }
  explicit BasicBatchView(std::span<T> vec) noexcept
      : BasicBatchView(vec.data(), static_cast<index_t>(vec.size()), 1) {}

  [[nodiscard]] T* data() const noexcept { return data_; }
  [[nodiscard]] index_t rows() const noexcept { return n_; }
  [[nodiscard]] index_t width() const noexcept { return k_; }
  [[nodiscard]] T* row(index_t i) const noexcept {
    assert(i >= 0 && i < n_);
    return data_ + static_cast<std::size_t>(i) * static_cast<std::size_t>(k_);
  }
  [[nodiscard]] T& at(index_t i, index_t j) const noexcept {
    assert(j >= 0 && j < k_);
    return row(i)[j];
  }

  /// Scatter `vec` into column j (vec.size() must equal rows()).
  void set_column(index_t j, std::span<const T> vec) const {
    assert(static_cast<index_t>(vec.size()) == n_ && j >= 0 && j < k_);
    T* dst = data_ + static_cast<std::size_t>(j);
    const std::size_t w = static_cast<std::size_t>(k_);
    const T* src = vec.data();
    for (index_t i = 0; i < n_; ++i) {
      dst[static_cast<std::size_t>(i) * w] = src[static_cast<std::size_t>(i)];
    }
  }

  /// Gather column j into `vec` (vec.size() must equal rows()).
  void get_column(index_t j, std::span<T> vec) const {
    BasicConstBatchView<T>(*this).get_column(j, vec);
  }

  /// Implicit read-only view of the same storage.
  operator BasicConstBatchView<T>() const noexcept {  // NOLINT(google-explicit-constructor)
    return {data_, n_, k_};
  }

 private:
  T* data_ = nullptr;
  index_t n_ = 0;
  index_t k_ = 1;
};

/// Owning row-major n×k batch storage with column gather/scatter helpers
/// for interoperating with plain per-vector code.
template <typename T>
class BasicBatchBuffer {
 public:
  using value_type = T;

  BasicBatchBuffer() = default;
  BasicBatchBuffer(index_t n, index_t k) { resize(n, k); }

  /// Resize to n rows × k columns (contents unspecified afterwards).
  void resize(index_t n, index_t k) {
    assert(n >= 0 && k >= 1);
    n_ = n;
    k_ = k;
    data_.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(k));
  }

  [[nodiscard]] index_t rows() const noexcept { return n_; }
  [[nodiscard]] index_t width() const noexcept { return k_; }
  [[nodiscard]] BasicBatchView<T> view() noexcept {
    return {data_.data(), n_, k_};
  }
  [[nodiscard]] BasicConstBatchView<T> view() const noexcept {
    return {data_.data(), n_, k_};
  }

  /// Copy vector `vec` into column j (vec.size() must equal rows()).
  void set_column(index_t j, std::span<const T> vec) {
    view().set_column(j, vec);
  }

  /// Copy column j out into `vec` (vec.size() must equal rows()).
  void get_column(index_t j, std::span<T> vec) const {
    view().get_column(j, vec);
  }

 private:
  index_t n_ = 0;
  index_t k_ = 1;
  std::vector<T> data_;
};

/// Double-precision working batch types (the default throughout).
using ConstBatchView = BasicConstBatchView<real_t>;
using BatchView = BasicBatchView<real_t>;
using BatchBuffer = BasicBatchBuffer<real_t>;

/// Float32-*storage* batch types for the mixed-precision path. Kernel
/// arithmetic on these still accumulates in double (see
/// kernel/bound_kernel.cpp); only what is stored between rows is float.
using ConstBatchViewF = BasicConstBatchView<float>;
using BatchViewF = BasicBatchView<float>;
using BatchBufferF = BasicBatchBuffer<float>;

/// Elementwise storage-precision conversion (round-to-nearest on demote).
/// Sequential; the team-parallel variants live in sparse/parallel_ops.hpp
/// (`par_demote` / `par_promote`) for the hot refinement path.
template <typename From, typename To>
void convert_batch(BasicConstBatchView<From> src, BasicBatchView<To> dst) {
  assert(src.rows() == dst.rows() && src.width() == dst.width());
  const std::size_t total = static_cast<std::size_t>(src.rows()) *
                            static_cast<std::size_t>(src.width());
  const From* s = src.data();
  To* d = dst.data();
  for (std::size_t t = 0; t < total; ++t) {
    d[t] = static_cast<To>(s[t]);
  }
}

}  // namespace rtl
