#include "solver/ilu_preconditioner.hpp"

#include <atomic>

#include "sparse/parallel_ops.hpp"

namespace rtl {

namespace {

/// The Figure 13 loop body as a named functor: one row elimination per
/// executor iteration, with the per-thread workspace selected by tid. A
/// failing row is recorded (lowest row wins), never thrown: peers may be
/// busy-waiting on its ready flag.
struct FactorRowBody {
  IluFactorization* ilu;
  const CsrMatrix* a;
  IluFactorization::Workspace* workspaces;
  std::atomic<index_t>* first_failed;

  void operator()(int tid, index_t i) const {
    if (ilu->factor_row(*a, i, workspaces[static_cast<std::size_t>(tid)])) {
      return;
    }
    index_t cur = first_failed->load(std::memory_order_relaxed);
    while (i < cur && !first_failed->compare_exchange_weak(
                          cur, i, std::memory_order_relaxed)) {
    }
  }
};

}  // namespace

IluPreconditioner::IluPreconditioner(Runtime& rt, const CsrMatrix& a,
                                     int level, DoconsiderOptions options)
    : ilu_(a, level) {
  factor_plan_ = rt.plan_for(ilu_.row_dependences(), options);
  solver_ = std::make_unique<ParallelTriangularSolver>(rt, ilu_, options);
  init_workspaces(rt.size());
}

IluPreconditioner::IluPreconditioner(ThreadTeam& team, const CsrMatrix& a,
                                     int level, DoconsiderOptions options)
    : ilu_(a, level) {
  factor_plan_ = std::make_shared<const Plan>(team, ilu_.row_dependences(),
                                              options);
  solver_ = std::make_unique<ParallelTriangularSolver>(team, ilu_, options);
  init_workspaces(team.size());
}

void IluPreconditioner::init_workspaces(int team_size) {
  workspaces_.reserve(static_cast<std::size_t>(team_size));
  for (int t = 0; t < team_size; ++t) workspaces_.emplace_back(ilu_.size());
}

void IluPreconditioner::factor(ThreadTeam& team, const CsrMatrix& a) {
  const index_t none = ilu_.size();
  std::atomic<index_t> first_failed{none};
  factor_plan_->execute(
      team, FactorRowBody{&ilu_, &a, workspaces_.data(), &first_failed});
  // The region has joined: every member's store is visible here.
  if (const index_t row = first_failed.load(std::memory_order_relaxed);
      row != none) {
    throw ZeroPivotError(row);
  }
  // The factorization rewrote L/U values in place; the solve kernels'
  // execution layouts hold packed *copies* of those values, so re-gather
  // them before the next apply (no-op on a gather-only build).
  solver_->kernel().refresh_layout();
}

void IluPreconditioner::apply(ThreadTeam& team, std::span<const real_t> r,
                              std::span<real_t> z) {
  solver_->kernel().apply(team, r, z);
}

void IluPreconditioner::apply_batch(ThreadTeam& team, ConstBatchView r,
                                    BatchView z) {
  solver_->solve(team, r, z);
}

void IluPreconditioner::apply_batch_mixed(ThreadTeam& team, ConstBatchView r,
                                          BatchView z) {
  const index_t n = r.rows();
  const index_t k = r.width();
  if (mixed_r_.rows() != n || mixed_r_.width() < k) {
    mixed_r_.resize(n, k);
    mixed_z_.resize(n, k);
  }
  BatchViewF rf{mixed_r_.view().data(), n, k};
  BatchViewF zf{mixed_z_.view().data(), n, k};
  par_demote(team, r, rf);
  solver_->solve(team, static_cast<ConstBatchViewF>(rf), zf);
  par_promote(team, static_cast<ConstBatchViewF>(zf), z);
}

}  // namespace rtl
