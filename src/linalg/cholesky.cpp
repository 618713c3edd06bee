#include "hylo/linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>

#include "hylo/tensor/gemm_packed.hpp"
#include "hylo/tensor/kernel_dispatch.hpp"
#include "hylo/tensor/ops.hpp"

namespace hylo {

namespace {

// Block size of the right-looking Cholesky in the SIMD tiers. Fixed: the
// unblocked diagonal blocks (NB³/6 latency-bound FMAs each) and the panel
// solve stay small next to the packed trailing update.
constexpr index_t kNB = 64;

// The unblocked Cholesky loop, in place on the diagonal block [j0, j1) of
// w: reads the block's lower triangle (columns left of j0 already
// eliminated) and overwrites it with its factor. With j0 = 0, j1 = n this
// is the whole factorization, in the seed's exact operation order.
bool factor_diagonal_block(Matrix& w, index_t j0, index_t j1) {
  for (index_t j = j0; j < j1; ++j) {
    real_t diag = w(j, j);
    const real_t* lj = w.row_ptr(j);
    for (index_t k = j0; k < j; ++k) diag -= lj[k] * lj[k];
    if (!(diag > 0.0) || !std::isfinite(diag)) return false;
    const real_t ljj = std::sqrt(diag);
    w(j, j) = ljj;
    const real_t inv = 1.0 / ljj;
    for (index_t i = j + 1; i < j1; ++i) {
      real_t v = w(i, j);
      const real_t* li = w.row_ptr(i);
      for (index_t k = j0; k < j; ++k) v -= li[k] * lj[k];
      w(i, j) = v * inv;
    }
  }
  return true;
}

}  // namespace

bool try_cholesky(const Matrix& a, Matrix& l) {
  HYLO_CHECK(a.rows() == a.cols(), "cholesky needs square");
  const index_t n = a.rows();
  l.resize(n, n);
  // Only a's lower triangle is read. The blocked path keeps the trailing
  // matrix in l's upper triangle, so it starts as the mirror of the lower.
  const bool blocked = n > kNB && kern::active() != kern::Tier::kScalar;
  for (index_t i = 0; i < n; ++i) {
    const real_t* ai = a.row_ptr(i);
    std::copy(ai, ai + i + 1, l.row_ptr(i));
    if (blocked)
      for (index_t j = 0; j < i; ++j) l(j, i) = ai[j];
  }
  if (!blocked) return factor_diagonal_block(l, 0, n);

  for (index_t kb = 0; kb < n; kb += kNB) {
    const index_t e = std::min(kb + kNB, n);
    // Trailing updates refresh only the upper triangle: bring the diagonal
    // block's lower triangle up to date before factoring it.
    for (index_t i = kb + 1; i < e; ++i)
      for (index_t j = kb; j < i; ++j) l(i, j) = l(j, i);
    if (!factor_diagonal_block(l, kb, e)) return false;
    if (e == n) break;
    // Panel: L21ᵀ = L11⁻¹·W12, a forward row sweep in place over the block
    // row's upper part, then transposed into the lower triangle.
    const index_t nt = n - e;
    for (index_t r = kb; r < e; ++r) {
      const real_t* lr = l.row_ptr(r);
      real_t* pr = l.row_ptr(r) + e;
      for (index_t q = kb; q < r; ++q)
        kern::vaxpy(pr, l.row_ptr(q) + e, -lr[q], nt);
      kern::vscale(pr, pr, 1.0 / lr[r], nt);
    }
    for (index_t i = e; i < n; ++i)
      for (index_t r = kb; r < e; ++r) l(i, r) = l(r, i);
    // Trailing update W22 -= L21·L21ᵀ through the packed symmetric driver.
    kern::packed_syrk_update(l, e, kb, e);
  }
  for (index_t i = 0; i < n; ++i)
    std::fill(l.row_ptr(i) + i + 1, l.row_ptr(i) + n, 0.0);
  return true;
}

Matrix cholesky(const Matrix& a) {
  Matrix l;
  HYLO_CHECK(try_cholesky(a, l), "matrix not positive definite (n="
                                     << a.rows() << ")");
  return l;
}

void cholesky_solve_inplace(const Matrix& l, std::vector<real_t>& b) {
  const index_t n = l.rows();
  HYLO_CHECK(static_cast<index_t>(b.size()) == n, "rhs size");
  // Forward: L y = b.
  for (index_t i = 0; i < n; ++i) {
    real_t v = b[static_cast<std::size_t>(i)];
    const real_t* li = l.row_ptr(i);
    for (index_t k = 0; k < i; ++k) v -= li[k] * b[static_cast<std::size_t>(k)];
    b[static_cast<std::size_t>(i)] = v / li[i];
  }
  // Backward: Lᵀ x = y.
  for (index_t i = n - 1; i >= 0; --i) {
    real_t v = b[static_cast<std::size_t>(i)];
    for (index_t k = i + 1; k < n; ++k)
      v -= l(k, i) * b[static_cast<std::size_t>(k)];
    b[static_cast<std::size_t>(i)] = v / l(i, i);
  }
}

Matrix cholesky_solve(const Matrix& l, const Matrix& b) {
  const index_t n = l.rows(), k = b.cols();
  HYLO_CHECK(b.rows() == n, "rhs rows");
  Matrix x = b;
  // Forward substitution on all columns at once (row sweep keeps locality).
  for (index_t i = 0; i < n; ++i) {
    const real_t* li = l.row_ptr(i);
    real_t* xi = x.row_ptr(i);
    for (index_t kk = 0; kk < i; ++kk) {
      const real_t lik = li[kk];
      if (lik == 0.0) continue;
      const real_t* xk = x.row_ptr(kk);
      for (index_t c = 0; c < k; ++c) xi[c] -= lik * xk[c];
    }
    const real_t inv = 1.0 / li[i];
    for (index_t c = 0; c < k; ++c) xi[c] *= inv;
  }
  // Backward substitution with Lᵀ.
  for (index_t i = n - 1; i >= 0; --i) {
    real_t* xi = x.row_ptr(i);
    for (index_t kk = i + 1; kk < n; ++kk) {
      const real_t lki = l(kk, i);
      if (lki == 0.0) continue;
      const real_t* xk = x.row_ptr(kk);
      for (index_t c = 0; c < k; ++c) xi[c] -= lki * xk[c];
    }
    const real_t inv = 1.0 / l(i, i);
    for (index_t c = 0; c < k; ++c) xi[c] *= inv;
  }
  return x;
}

Matrix cholesky_inverse(const Matrix& l) {
  const index_t n = l.rows();
  if (kern::active() == kern::Tier::kScalar)
    return cholesky_solve(l, Matrix::identity(n));
  // LAPACK potri: X = L⁻¹ by a forward row sweep over the lower triangle
  // (row q of X is zero right of q, n³/6 FMAs), then A⁻¹ = Xᵀ·X.
  Matrix x(n, n);
  for (index_t i = 0; i < n; ++i) {
    const real_t* li = l.row_ptr(i);
    real_t* xi = x.row_ptr(i);
    xi[i] = 1.0;
    for (index_t q = 0; q < i; ++q)
      kern::vaxpy(xi, x.row_ptr(q), -li[q], q + 1);
    kern::vscale(xi, xi, 1.0 / li[i], i + 1);
  }
  return gram_tn(x);
}

Matrix spd_inverse(const Matrix& a) { return cholesky_inverse(cholesky(a)); }

Matrix spd_solve(const Matrix& a, const Matrix& b) {
  const Matrix l = cholesky(a);
  return cholesky_solve(l, b);
}

}  // namespace hylo
