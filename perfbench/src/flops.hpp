#pragma once
/// \file flops.hpp
/// Analytic FLOP counts for nn.gflops and linalg.gflops. Network FLOPs walk
/// the preconditionable layers' geometry: a conv layer costs
/// 2·Cout·Cin·k²·Ho·Wo per sample, a linear layer 2·d_in·d_out, and each is
/// counted three times in training (forward, dgrad and wgrad). BatchNorm,
/// activations, pooling and the loss are not counted.

#include <vector>

#include "hylo/optim/optimizer.hpp"

namespace perfbench {

/// One preconditionable layer's geometry.
struct LayerGeometry {
  hylo::index_t d_in = 0;       ///< Cin·k² for conv, input width for linear
  hylo::index_t d_out = 0;      ///< Cout, or output width
  hylo::index_t positions = 0;  ///< Ho·Wo for conv, 1 for linear
};

/// Geometry of every block, read from a capture of those blocks: the
/// augmentation column of a captured A row holds the layer's number of
/// output positions (1 for linear layers).
std::vector<LayerGeometry> layer_geometry(
    const std::vector<hylo::ParamBlock*>& blocks,
    const hylo::CaptureSet& capture);

/// Forward + dgrad + wgrad FLOPs of one training sample.
double train_flops_per_sample(const std::vector<LayerGeometry>& layers);

/// Dense-equivalent FLOPs of the linear-algebra kernels the linalg replay
/// times. gram: an (rows x inner) matrix times its transpose.
double gram_flops(double rows, double inner);
/// Column-pivoted Householder QR of an (m x n) matrix stopped at rank r.
double truncated_qr_flops(double m, double n, double r);
/// LU factorization plus an n-column solve (lu_inverse).
double lu_inverse_flops(double n);
/// Cholesky factorization plus an n-column solve (spd inverse).
double spd_inverse_flops(double n);

}  // namespace perfbench
