#pragma once
/// \file lu.hpp
/// LU factorization with partial pivoting for general square systems. The
/// KID middle matrix (K̂⁻¹ + Y) and the residual shift (R + αI) are not
/// symmetric, so they are solved here rather than via Cholesky.

#include <vector>

#include "hylo/tensor/matrix.hpp"

namespace hylo {

/// Packed LU factorization: `lu` holds L (unit diagonal, below) and U (on and
/// above the diagonal); `piv` is the row-permutation record.
struct LuFactor {
  Matrix lu;
  std::vector<index_t> piv;
};

/// Factor a square matrix. Throws hylo::Error on exact singularity.
LuFactor lu_factor(const Matrix& a);

/// Solve A x = b for one right-hand side.
std::vector<real_t> lu_solve(const LuFactor& f, const std::vector<real_t>& b);

/// Solve A X = B for a matrix of right-hand sides.
Matrix lu_solve(const LuFactor& f, const Matrix& b);

/// General inverse via LU.
Matrix lu_inverse(const Matrix& a);

/// M += block_diag(blocks)⁻¹, one LU per block. Bitwise equal to
/// `m += lu_inverse(block_diag(blocks))`: lu_factor/lu_solve skip the zero
/// couplings between blocks, so the full inverse computes each diagonal block
/// with exactly the block's own operations, and its off-block entries of a
/// block's rows are that block's solve of a zero right-hand side (±0). Both
/// are added here. Throws hylo::Error on a singular block.
void add_block_diag_inverse(Matrix& m, const std::vector<Matrix>& blocks);

/// X = A⁻¹ B for general square A.
Matrix general_solve(const Matrix& a, const Matrix& b);

}  // namespace hylo
