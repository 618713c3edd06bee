#pragma once
/// \file cholesky.hpp
/// Cholesky factorization and SPD solves. Used for every symmetric
/// positive-definite inversion in the library: damped kernel matrices
/// (K + αI), Kronecker factors (AᵀA + γI), and the KID residual shift.

#include <vector>

#include "hylo/tensor/matrix.hpp"

namespace hylo {

/// Lower-triangular Cholesky factor L with A = L Lᵀ. Throws hylo::Error if A
/// is not (numerically) positive definite.
Matrix cholesky(const Matrix& a);

/// Attempt factorization; returns false instead of throwing on a
/// non-positive or non-finite pivot (caller typically increases damping and
/// retries). Reads only A's lower triangle. SIMD tiers factor n > 64 as a
/// blocked right-looking Cholesky whose trailing update runs on the packed
/// symmetric driver; the scalar tier and n <= 64 run the unblocked loop.
bool try_cholesky(const Matrix& a, Matrix& l);

/// Solve L Lᵀ x = b in place for one right-hand side (b.size() == n).
void cholesky_solve_inplace(const Matrix& l, std::vector<real_t>& b);

/// Solve L Lᵀ X = B for a matrix of right-hand sides (B: n x k).
Matrix cholesky_solve(const Matrix& l, const Matrix& b);

/// A⁻¹ from A's Cholesky factor L. SIMD tiers follow LAPACK potri: L⁻¹ by a
/// row sweep, then A⁻¹ = gram_tn(L⁻¹), exactly symmetric. The scalar tier
/// keeps the seed's cholesky_solve(L, I).
Matrix cholesky_inverse(const Matrix& l);

/// Inverse of an SPD matrix via Cholesky.
Matrix spd_inverse(const Matrix& a);

/// X = A⁻¹ B for SPD A.
Matrix spd_solve(const Matrix& a, const Matrix& b);

}  // namespace hylo
