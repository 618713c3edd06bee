#include "hylo/tensor/ops.hpp"

#include <algorithm>
#include <cmath>

#include "hylo/par/thread_pool.hpp"
#include "hylo/tensor/gemm_packed.hpp"

namespace hylo {

namespace {
// Shared prologue of the GEMM variants: shape the output and fold in beta.
// C(i,j) += alpha * (A·B)(i,j) afterwards is bitwise equal to the
// single-pass "alpha*acc + beta*c" epilogue because the addition commutes.
void prepare_c(Matrix& c, index_t m, index_t n, real_t beta,
               const char* kernel) {
  if (c.rows() != m || c.cols() != n) {
    HYLO_CHECK(beta == 0.0, "beta != 0 with mismatched C in " << kernel);
    c.resize(m, n);
  }
  if (beta == 0.0)
    c.zero();
  else if (beta != 1.0)  // hylo-lint: allow(float_compare: exactly 1.0 means skip the scale; a tolerance would corrupt C)
    c *= beta;
}
}  // namespace

void gemm(const Matrix& a, const Matrix& b, Matrix& c, real_t alpha,
          real_t beta) {
  const index_t m = a.rows(), k = a.cols(), n = b.cols();
  HYLO_CHECK(b.rows() == k, "gemm inner dim " << b.rows() << " != " << k);
  prepare_c(c, m, n, beta, "gemm");
  kern::packed_gemm_nn(a, b, c, alpha);
}

void gemm_tn(const Matrix& a, const Matrix& b, Matrix& c, real_t alpha,
             real_t beta) {
  // C = alpha * A^T B + beta * C, A: k x m, B: k x n. The A pack reads A
  // column-wise in place, so no transposed copy is made.
  const index_t k = a.rows(), m = a.cols(), n = b.cols();
  HYLO_CHECK(b.rows() == k, "gemm_tn inner dim " << b.rows() << " != " << k);
  prepare_c(c, m, n, beta, "gemm_tn");
  kern::packed_gemm_tn(a, nullptr, b, c, alpha);
}

void gemm_tn_diag(const Matrix& a, const Matrix& s, const Matrix& b, Matrix& c,
                  real_t alpha, real_t beta) {
  // C = alpha * A^T diag(s) B + beta * C. The scale folds into the A pack,
  // so no scaled copy of A is ever materialized.
  const index_t k = a.rows();
  HYLO_CHECK(b.rows() == k, "gemm_tn_diag inner dim " << b.rows() << " != " << k);
  HYLO_CHECK(s.size() == k, "gemm_tn_diag scale length " << s.size()
                                                         << " != " << k);
  prepare_c(c, a.cols(), b.cols(), beta, "gemm_tn_diag");
  kern::packed_gemm_tn(a, s.data(), b, c, alpha);
}

void gemm_nt(const Matrix& a, const Matrix& b, Matrix& c, real_t alpha,
             real_t beta) {
  // C = alpha * A B^T + beta * C, A: m x k, B: n x k.
  const index_t m = a.rows(), k = a.cols(), n = b.rows();
  HYLO_CHECK(b.cols() == k, "gemm_nt inner dim " << b.cols() << " != " << k);
  prepare_c(c, m, n, beta, "gemm_nt");
  kern::packed_gemm_nt(a, b, c, alpha);
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c;
  gemm(a, b, c);
  return c;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  Matrix c;
  gemm_tn(a, b, c);
  return c;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  Matrix c;
  gemm_nt(a, b, c);
  return c;
}

Matrix gram_nt(const Matrix& a) {
  const index_t m = a.rows();
  Matrix c(m, m);
  kern::packed_gram_nt(a, c);
  return c;
}

Matrix gram_tn(const Matrix& a) {
  const index_t k = a.cols();
  Matrix c(k, k);
  kern::packed_gram_tn(a, c);
  return c;
}

void matvec(const Matrix& a, const std::vector<real_t>& x,
            std::vector<real_t>& y) {
  HYLO_CHECK(static_cast<index_t>(x.size()) == a.cols(), "matvec dim");
  y.assign(static_cast<std::size_t>(a.rows()), 0.0);
  for (index_t i = 0; i < a.rows(); ++i) {
    const real_t* ai = a.row_ptr(i);
    real_t acc = 0.0;
    for (index_t j = 0; j < a.cols(); ++j) acc += ai[j] * x[static_cast<std::size_t>(j)];
    y[static_cast<std::size_t>(i)] = acc;
  }
}

void matvec_t(const Matrix& a, const std::vector<real_t>& x,
              std::vector<real_t>& y) {
  HYLO_CHECK(static_cast<index_t>(x.size()) == a.rows(), "matvec_t dim");
  y.assign(static_cast<std::size_t>(a.cols()), 0.0);
  for (index_t i = 0; i < a.rows(); ++i) {
    const real_t xi = x[static_cast<std::size_t>(i)];
    if (xi == 0.0) continue;
    const real_t* ai = a.row_ptr(i);
    for (index_t j = 0; j < a.cols(); ++j) y[static_cast<std::size_t>(j)] += xi * ai[j];
  }
}

Matrix hadamard(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  hadamard_inplace(out, b);
  return out;
}

void hadamard_inplace(Matrix& a, const Matrix& b) {
  HYLO_CHECK(a.rows() == b.rows() && a.cols() == b.cols(), "hadamard shape");
  real_t* pa = a.data();
  const real_t* pb = b.data();
  par::parallel_for(
      0, a.size(), 1 << 14,
      [&](index_t i0, index_t i1) { kern::vmul(pa + i0, pb + i0, i1 - i0); },
      "tensor/hadamard", audit::elem_block(pa));
}

void axpy(Matrix& a, const Matrix& b, real_t alpha) {
  HYLO_CHECK(a.rows() == b.rows() && a.cols() == b.cols(), "axpy shape");
  real_t* pa = a.data();
  const real_t* pb = b.data();
  for (index_t i = 0; i < a.size(); ++i) pa[i] += alpha * pb[i];
}

void add_diagonal(Matrix& a, real_t alpha) {
  const index_t n = std::min(a.rows(), a.cols());
  for (index_t i = 0; i < n; ++i) a(i, i) += alpha;
}

real_t frobenius_norm_sq(const Matrix& a) {
  const real_t* p = a.data();
  real_t acc = 0.0;
  for (index_t i = 0; i < a.size(); ++i) acc += p[i] * p[i];
  return acc;
}

real_t frobenius_norm(const Matrix& a) { return std::sqrt(frobenius_norm_sq(a)); }

real_t dot(const Matrix& a, const Matrix& b) {
  HYLO_CHECK(a.size() == b.size(), "dot size");
  const real_t* pa = a.data();
  const real_t* pb = b.data();
  real_t acc = 0.0;
  for (index_t i = 0; i < a.size(); ++i) acc += pa[i] * pb[i];
  return acc;
}

std::vector<real_t> row_norms(const Matrix& a) {
  std::vector<real_t> out(static_cast<std::size_t>(a.rows()));
  for (index_t i = 0; i < a.rows(); ++i) {
    const real_t* ai = a.row_ptr(i);
    real_t acc = 0.0;
    for (index_t j = 0; j < a.cols(); ++j) acc += ai[j] * ai[j];
    out[static_cast<std::size_t>(i)] = std::sqrt(acc);
  }
  return out;
}

real_t max_abs(const Matrix& a) {
  real_t best = 0.0;
  const real_t* p = a.data();
  for (index_t i = 0; i < a.size(); ++i) best = std::max(best, std::abs(p[i]));
  return best;
}

real_t trace(const Matrix& a) {
  HYLO_CHECK(a.rows() == a.cols(), "trace needs square");
  real_t acc = 0.0;
  for (index_t i = 0; i < a.rows(); ++i) acc += a(i, i);
  return acc;
}

Matrix vstack(const std::vector<Matrix>& parts) {
  HYLO_CHECK(!parts.empty(), "vstack of nothing");
  const index_t cols = parts.front().cols();
  index_t rows = 0;
  for (const auto& p : parts) {
    HYLO_CHECK(p.cols() == cols, "vstack column mismatch");
    rows += p.rows();
  }
  Matrix out(rows, cols);
  index_t r = 0;
  for (const auto& p : parts) {
    std::copy(p.data(), p.data() + p.size(), out.row_ptr(r));
    r += p.rows();
  }
  return out;
}

Matrix block_diag(const std::vector<Matrix>& blocks) {
  HYLO_CHECK(!blocks.empty(), "block_diag of nothing");
  index_t n = 0;
  for (const auto& b : blocks) {
    HYLO_CHECK(b.rows() == b.cols(), "block_diag needs square blocks");
    n += b.rows();
  }
  Matrix out(n, n);
  index_t off = 0;
  for (const auto& b : blocks) {
    for (index_t i = 0; i < b.rows(); ++i)
      for (index_t j = 0; j < b.cols(); ++j) out(off + i, off + j) = b(i, j);
    off += b.rows();
  }
  return out;
}

real_t max_abs_diff(const Matrix& a, const Matrix& b) {
  HYLO_CHECK(a.rows() == b.rows() && a.cols() == b.cols(), "shape");
  real_t best = 0.0;
  const real_t* pa = a.data();
  const real_t* pb = b.data();
  for (index_t i = 0; i < a.size(); ++i)
    best = std::max(best, std::abs(pa[i] - pb[i]));
  return best;
}

}  // namespace hylo
