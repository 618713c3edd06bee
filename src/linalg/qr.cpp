#include "hylo/linalg/qr.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "hylo/tensor/gemm_packed.hpp"

namespace hylo {

PivotedQr pivoted_qr(const Matrix& a, index_t max_rank) {
  const index_t m = a.rows(), n = a.cols();
  index_t kmax = std::min(m, n);
  if (max_rank >= 0) kmax = std::min(kmax, max_rank);

  Matrix work = a;
  PivotedQr f;
  f.piv.resize(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j) f.piv[static_cast<std::size_t>(j)] = j;
  f.reflectors.resize(m, kmax);
  f.tau.assign(static_cast<std::size_t>(kmax), 0.0);

  // Squared column norms of the trailing submatrix, downdated per step.
  std::vector<real_t> colnorm(static_cast<std::size_t>(n), 0.0);
  // Per-step scratch: the scaled reflector dots of the trailing columns and
  // the [j0, j1) runs of them that are nonzero.
  std::vector<real_t> d(static_cast<std::size_t>(n), 0.0);
  std::vector<std::pair<index_t, index_t>> runs;
  for (index_t i = 0; i < m; ++i) {
    const real_t* wi = work.row_ptr(i);
    for (index_t j = 0; j < n; ++j)
      colnorm[static_cast<std::size_t>(j)] += wi[j] * wi[j];
  }

  for (index_t k = 0; k < kmax; ++k) {
    // Pivot: remaining column with the largest norm. Periodically recompute
    // norms exactly — downdating loses accuracy after heavy cancellation.
    index_t p = k;
    real_t best = colnorm[static_cast<std::size_t>(k)];
    for (index_t j = k + 1; j < n; ++j) {
      if (colnorm[static_cast<std::size_t>(j)] > best) {
        best = colnorm[static_cast<std::size_t>(j)];
        p = j;
      }
    }
    if (p != k) {
      for (index_t i = 0; i < m; ++i) std::swap(work(i, k), work(i, p));
      std::swap(colnorm[static_cast<std::size_t>(k)],
                colnorm[static_cast<std::size_t>(p)]);
      std::swap(f.piv[static_cast<std::size_t>(k)],
                f.piv[static_cast<std::size_t>(p)]);
    }

    // Householder vector for work[k:m, k].
    real_t norm_sq = 0.0;
    for (index_t i = k; i < m; ++i) norm_sq += work(i, k) * work(i, k);
    const real_t norm_x = std::sqrt(norm_sq);
    if (norm_x <= 1e-300) {
      f.tau[static_cast<std::size_t>(k)] = 0.0;
      f.rank = k;  // exact rank deficiency: stop early
      // Trim reflector storage bookkeeping: remaining taus stay zero.
      for (index_t kk = k; kk < kmax; ++kk)
        f.tau[static_cast<std::size_t>(kk)] = 0.0;
      kmax = k;
      break;
    }
    const real_t x0 = work(k, k);
    const real_t alpha = (x0 >= 0.0) ? -norm_x : norm_x;
    // v = x - alpha e1 (stored in reflectors column k).
    real_t vnorm_sq = 0.0;
    for (index_t i = k; i < m; ++i) {
      real_t v = work(i, k);
      if (i == k) v -= alpha;
      f.reflectors(i, k) = v;
      vnorm_sq += v * v;
    }
    const real_t tau = vnorm_sq > 0.0 ? 2.0 / vnorm_sq : 0.0;
    f.tau[static_cast<std::size_t>(k)] = tau;
    work(k, k) = alpha;
    for (index_t i = k + 1; i < m; ++i) work(i, k) = 0.0;

    // Apply H = I - tau v vᵀ to the trailing columns, sweeping rows so every
    // pass is a contiguous kern::vaxpy: d = tau · vᵀW accumulates each
    // column's dot in ascending i, then W -= v dᵀ row by row. A column whose
    // d is exactly zero is left untouched, so the update runs over the
    // maximal zero-free runs of d.
    const index_t nt = n - k - 1;
    if (nt > 0) {
      real_t* dt = d.data() + k + 1;
      std::fill(dt, dt + nt, 0.0);
      for (index_t i = k; i < m; ++i)
        kern::vaxpy(dt, work.row_ptr(i) + k + 1, f.reflectors(i, k), nt);
      kern::vscale(dt, dt, tau, nt);
      runs.clear();
      for (index_t j = 0; j < nt; ++j) {
        if (dt[j] == 0.0) continue;
        if (runs.empty() || runs.back().second != j) runs.emplace_back(j, j);
        runs.back().second = j + 1;
      }
      for (index_t i = k; i < m; ++i) {
        real_t* wi = work.row_ptr(i) + k + 1;
        const real_t vi = f.reflectors(i, k);
        for (const auto& [j0, j1] : runs)
          kern::vaxpy(wi + j0, dt + j0, -vi, j1 - j0);
      }
      // Downdate the column norms (clamp at zero against roundoff).
      const real_t* wk = work.row_ptr(k);
      for (index_t j = k + 1; j < n; ++j) {
        real_t& cn = colnorm[static_cast<std::size_t>(j)];
        cn -= wk[j] * wk[j];
        if (cn < 0.0) cn = 0.0;
      }
    }
    f.rank = k + 1;
  }

  // R = leading kmax rows of the transformed matrix.
  f.r.resize(f.rank, n);
  for (index_t i = 0; i < f.rank; ++i)
    for (index_t j = 0; j < n; ++j) f.r(i, j) = work(i, j);
  return f;
}

Matrix apply_qt(const PivotedQr& f, const Matrix& b) {
  const index_t m = f.reflectors.rows();
  HYLO_CHECK(b.rows() == m, "apply_qt rows");
  Matrix x = b;
  const index_t k = f.rank, cols = b.cols();
  for (index_t j = 0; j < k; ++j) {
    const real_t tau = f.tau[static_cast<std::size_t>(j)];
    if (tau == 0.0) continue;
    for (index_t c = 0; c < cols; ++c) {
      real_t dotv = 0.0;
      for (index_t i = j; i < m; ++i) dotv += f.reflectors(i, j) * x(i, c);
      dotv *= tau;
      if (dotv != 0.0)
        for (index_t i = j; i < m; ++i) x(i, c) -= dotv * f.reflectors(i, j);
    }
  }
  return x;
}

Matrix solve_r11(const PivotedQr& f, const Matrix& b) {
  const index_t r = f.rank;
  HYLO_CHECK(b.rows() == r, "solve_r11 rows");
  Matrix x = b;
  const index_t cols = b.cols();
  for (index_t i = r - 1; i >= 0; --i) {
    const real_t rii = f.r(i, i);
    HYLO_CHECK(std::abs(rii) > 1e-300, "singular R11 at " << i);
    real_t* xi = x.row_ptr(i);
    for (index_t k = i + 1; k < r; ++k) {
      const real_t rik = f.r(i, k);
      if (rik == 0.0) continue;
      const real_t* xk = x.row_ptr(k);
      for (index_t c = 0; c < cols; ++c) xi[c] -= rik * xk[c];
    }
    const real_t inv = 1.0 / rii;
    for (index_t c = 0; c < cols; ++c) xi[c] *= inv;
  }
  return x;
}

}  // namespace hylo
