#include "hylo/linalg/lu.hpp"

#include <cmath>
#include <utility>

#include "hylo/tensor/gemm_packed.hpp"

namespace hylo {

LuFactor lu_factor(const Matrix& a) {
  HYLO_CHECK(a.rows() == a.cols(), "lu needs square");
  const index_t n = a.rows();
  LuFactor f{a, std::vector<index_t>(static_cast<std::size_t>(n))};
  Matrix& m = f.lu;
  for (index_t k = 0; k < n; ++k) {
    // Partial pivot: largest magnitude in column k at/below the diagonal.
    index_t p = k;
    real_t best = std::abs(m(k, k));
    for (index_t i = k + 1; i < n; ++i) {
      const real_t v = std::abs(m(i, k));
      if (v > best) {
        best = v;
        p = i;
      }
    }
    HYLO_CHECK(best > 0.0 && std::isfinite(best),
               "singular matrix in lu_factor at k=" << k);
    f.piv[static_cast<std::size_t>(k)] = p;
    if (p != k)
      for (index_t j = 0; j < n; ++j) std::swap(m(k, j), m(p, j));
    const real_t inv = 1.0 / m(k, k);
    for (index_t i = k + 1; i < n; ++i) {
      const real_t lik = m(i, k) * inv;
      m(i, k) = lik;
      if (lik == 0.0) continue;
      kern::vaxpy(m.row_ptr(i) + k + 1, m.row_ptr(k) + k + 1, -lik,
                  n - k - 1);
    }
  }
  return f;
}

std::vector<real_t> lu_solve(const LuFactor& f, const std::vector<real_t>& b) {
  const index_t n = f.lu.rows();
  HYLO_CHECK(static_cast<index_t>(b.size()) == n, "rhs size");
  std::vector<real_t> x = b;
  for (index_t k = 0; k < n; ++k)
    std::swap(x[static_cast<std::size_t>(k)],
              x[static_cast<std::size_t>(f.piv[static_cast<std::size_t>(k)])]);
  for (index_t i = 0; i < n; ++i) {
    const real_t* li = f.lu.row_ptr(i);
    real_t v = x[static_cast<std::size_t>(i)];
    for (index_t k = 0; k < i; ++k) v -= li[k] * x[static_cast<std::size_t>(k)];
    x[static_cast<std::size_t>(i)] = v;
  }
  for (index_t i = n - 1; i >= 0; --i) {
    const real_t* ui = f.lu.row_ptr(i);
    real_t v = x[static_cast<std::size_t>(i)];
    for (index_t k = i + 1; k < n; ++k) v -= ui[k] * x[static_cast<std::size_t>(k)];
    x[static_cast<std::size_t>(i)] = v / ui[i];
  }
  return x;
}

Matrix lu_solve(const LuFactor& f, const Matrix& b) {
  const index_t n = f.lu.rows(), k = b.cols();
  HYLO_CHECK(b.rows() == n, "rhs rows");
  Matrix x = b;
  for (index_t r = 0; r < n; ++r) {
    const index_t p = f.piv[static_cast<std::size_t>(r)];
    if (p != r)
      for (index_t c = 0; c < k; ++c) std::swap(x(r, c), x(p, c));
  }
  for (index_t i = 0; i < n; ++i) {
    const real_t* li = f.lu.row_ptr(i);
    real_t* xi = x.row_ptr(i);
    for (index_t kk = 0; kk < i; ++kk) {
      const real_t v = li[kk];
      if (v == 0.0) continue;
      const real_t* xk = x.row_ptr(kk);
      for (index_t c = 0; c < k; ++c) xi[c] -= v * xk[c];
    }
  }
  for (index_t i = n - 1; i >= 0; --i) {
    const real_t* ui = f.lu.row_ptr(i);
    real_t* xi = x.row_ptr(i);
    for (index_t kk = i + 1; kk < n; ++kk) {
      const real_t v = ui[kk];
      if (v == 0.0) continue;
      const real_t* xk = x.row_ptr(kk);
      for (index_t c = 0; c < k; ++c) xi[c] -= v * xk[c];
    }
    const real_t inv = 1.0 / ui[i];
    for (index_t c = 0; c < k; ++c) xi[c] *= inv;
  }
  return x;
}

Matrix lu_inverse(const Matrix& a) {
  return lu_solve(lu_factor(a), Matrix::identity(a.rows()));
}

void add_block_diag_inverse(Matrix& m, const std::vector<Matrix>& blocks) {
  HYLO_CHECK(!blocks.empty(), "block inverse of nothing");
  index_t n = 0;
  for (const Matrix& b : blocks) n += b.rows();
  HYLO_CHECK(m.rows() == n && m.cols() == n, "block inverse shape");
  index_t off = 0;
  for (const Matrix& b : blocks) {
    const index_t nb = b.rows();
    // Columns [0, nb) solve for the block's inverse; column nb is the zero
    // right-hand side every column outside the block reduces to.
    Matrix rhs(nb, nb + 1);
    for (index_t i = 0; i < nb; ++i) rhs(i, i) = 1.0;
    const Matrix x = lu_solve(lu_factor(b), rhs);
    for (index_t i = 0; i < nb; ++i) {
      real_t* mi = m.row_ptr(off + i);
      const real_t* xi = x.row_ptr(i);
      const real_t z = xi[nb];
      for (index_t j = 0; j < off; ++j) mi[j] += z;
      for (index_t j = 0; j < nb; ++j) mi[off + j] += xi[j];
      for (index_t j = off + nb; j < n; ++j) mi[j] += z;
    }
    off += nb;
  }
}

Matrix general_solve(const Matrix& a, const Matrix& b) {
  return lu_solve(lu_factor(a), b);
}

}  // namespace hylo
