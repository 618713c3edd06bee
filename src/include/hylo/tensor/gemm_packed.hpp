#pragma once
/// \file gemm_packed.hpp
/// Packed, cache-blocked GEMM — the one DESIGN.md §13 path behind
/// hylo::gemm/gemm_tn/gemm_nt, gram_nt and gram_tn, the blocked Cholesky's
/// trailing update (and through it the potri-style SPD inverse), and the
/// fused-im2col convolution, in every kernel tier. Layout (BLIS-style):
///
///   * B is packed once per call into KC-deep blocks of NR-wide column
///     panels (`bpack[q][kk*NR + c]`), A is packed per (MC, KC) block into
///     MR-tall row panels (`apack[p][kk*MR + r]`), alpha folded into A.
///   * An MRxNR microkernel, selected by hylo::kern::active(), accumulates
///     C-tile += Apanel · Bpanel with the k loop innermost: a portable
///     plain-C++ 8x4 tile in the scalar tier, register-tiled 8x4 AVX2 /
///     8x8 AVX-512 / 8x4 NEON kernels in the SIMD tiers.
///   * Edge tiles (m % MR, n % NR, and the symmetric driver's diagonal
///     straddle) run the same microkernel on a copy-in/copy-out scratch
///     tile, so every element sees the identical multiply-add chain
///     regardless of tiling.
///
/// Determinism: for each C element the accumulation is strictly ascending in
/// k (KC blocks outermost, kk inside the microkernel), independent of the
/// thread partition, tile alignment, or edge handling — results are bitwise
/// identical at any thread count within a tier. Packed entry points
/// partition output rows through hylo::par with an MR-aligned grain. The
/// scalar tier's microkernel adds `a * b` onto each element exactly as the
/// seed loop nests did, so where their per-element order was one running
/// sum from C in k-ascending order (gemm, gemm_tn, gemm_tn_diag, gram_nt,
/// gram_tn, gemm_nt at alpha = 1) it reproduces them bit for bit.
///
/// All packed_gemm_* entry points accumulate alpha * op(A)·op(B) onto an
/// already beta-prepared C.

#include <vector>

#include "hylo/tensor/kernel_dispatch.hpp"
#include "hylo/tensor/matrix.hpp"
#include "hylo/tensor/tensor4.hpp"

namespace hylo::kern {

/// C += alpha * A·B (A: m x k, B: k x n).
void packed_gemm_nn(const Matrix& a, const Matrix& b, Matrix& c, real_t alpha);

/// C += alpha * Aᵀ·diag(s)·B (A: k x m, s: k or nullptr for identity).
void packed_gemm_tn(const Matrix& a, const real_t* s, const Matrix& b,
                    Matrix& c, real_t alpha);

/// C += alpha * A·Bᵀ (A: m x k, B: n x k).
void packed_gemm_nt(const Matrix& a, const Matrix& b, Matrix& c, real_t alpha);

/// C = A·Aᵀ, exact-symmetric: the upper triangle is computed through the
/// packed kernel (tiles fully below the diagonal are skipped, straddling
/// tiles write only j >= i) and mirrored once per row block, so
/// C(i,j) and C(j,i) are the same double. C must be m x m, zeroed.
void packed_gram_nt(const Matrix& a, Matrix& c);

/// C = Aᵀ·A (A: k x m, C: m x m, zeroed), exact-symmetric through the same
/// driver as packed_gram_nt. Both packs read A column-wise in place, so no
/// transposed copy is made.
void packed_gram_tn(const Matrix& a, Matrix& c);

/// Blocked-Cholesky trailing update on a square W: the upper triangle
/// (j >= i) of W(r0:, r0:) -= P·Pᵀ with P = W(r0:, k0:k1), k1 <= r0. Reads
/// only the panel, writes only the block's upper triangle (no mirror).
void packed_syrk_update(Matrix& w, index_t r0, index_t k0, index_t k1);

// ---- Tier-dispatched vector helpers -----------------------------------
// These dispatch on kern::active() internally; the scalar tier runs the
// plain ascending loop (bitwise identical to the seed kernels). vmul,
// vscale and vadd_where_positive are elementwise and therefore bitwise
// identical across tiers; vdot uses lane-partial accumulators in SIMD tiers
// (fixed, deterministic reduction order within a tier, reassociated
// relative to scalar) and vaxpy fuses its multiply-add there. The scalar
// loops are plain C++, so the compiler decides their rounding: GCC's
// default -ffp-contract=fast contracts `y += s * x` into one fused
// multiply-add wherever the target has FMA (the Release build's
// -march=native on an FMA host), and rounds twice where it does not.

/// a[i] *= b[i].
void vmul(real_t* a, const real_t* b, index_t n);
/// dst[i] = s * src[i].
void vscale(real_t* dst, const real_t* src, real_t s, index_t n);
/// Dot product of two contiguous vectors.
real_t vdot(const real_t* a, const real_t* b, index_t n);
/// y[i] += s * x[i]. The SIMD tiers fuse the multiply-add (one rounding,
/// tail included), so results are bitwise within a tier whatever n or the
/// alignment. The scalar tier's loop is contracted to the same fused
/// multiply-add on an FMA build (then every tier agrees bit for bit) and
/// rounds twice otherwise.
void vaxpy(real_t* y, const real_t* x, real_t s, index_t n);
/// a[i] += b[i] where x[i] > 0, a[i] untouched elsewhere (ReLU backward).
/// Elementwise and branch-free in the SIMD tiers: bitwise across tiers.
void vadd_where_positive(real_t* a, const real_t* b, const real_t* x,
                         index_t n);

// ---- Per-thread scratch arenas -----------------------------------------

/// Scratch slots, chosen so that buffers alive at the same time on one
/// thread never alias.
enum ScratchSlot : int {
  kScratchGemmB = 0,      ///< caller-side B pack of the packed_gemm_* drivers
  kScratchGemmA = 1,      ///< chunk-side A pack of the packed_gemm_* drivers
  kScratchConvB = 2,      ///< fused-conv B pack
  kScratchConvA = 3,      ///< fused-conv A pack
  kScratchConvPlane = 4,  ///< zero-bordered sample plane (ConvPlan::pad)
};

/// This thread's scratch buffer for `slot`. The conv slots are used inside
/// conv's parallel chunks, which never run a packed_gemm_* of their own.
std::vector<real_t>& tl_scratch(int slot);

// ---- Fused-im2col convolution ------------------------------------------
// The conv GEMM consumes im2col patches straight from the sample: each call
// copies it into a zero-bordered kScratchConvPlane plane and pack_b reads
// patch elements through the layer's ConvPlan offset tables, so no
// per-sample patch matrix is ever materialized. These functions are serial
// by design — Conv2d parallelizes over samples (forward/dgrad) and output
// channels (wgrad) around them. In the scalar tier the output, the data
// gradient and the weight gradient's kernel columns equal the seed's
// materialized-im2col loops bit for bit; the bias column (summed into gw
// per position, not per sample first) and the forward capture (summed per
// NR panel) are reassociated.

/// Prepacked conv weight operand. `data` holds MR (A-side) or NR (B-side)
/// interleaved panels of W_main per KC block; `bias` is w(:, patch)
/// (forward packs only).
struct PackedW {
  Tier tier = Tier::kScalar;
  index_t rows = 0;  ///< logical row count of the packed operand
  index_t cols = 0;  ///< logical column count of the packed operand
  std::vector<real_t> data;
  std::vector<real_t> bias;
};

/// A-side pack of W_main (c_out x patch) for the forward GEMM
/// out_plane = W_main · colsᵀ; also captures the bias column.
PackedW pack_conv_forward_w(const Matrix& w_aug);

/// B-side pack of W_main (k = c_out, n = patch) for the data-gradient GEMM
/// dcols = goutᵀ · W_main.
PackedW pack_conv_dgrad_w(const Matrix& w_aug);

/// out_plane (c_out x s, NCHW plane of one sample) = W_main · cols(x)ᵀ +
/// bias, patches fused. capture_row != nullptr receives the spatial-sum
/// capture Σ_p cols(p, j) for j in [0, patch) (caller owns the bias slot).
void packed_conv_forward(const PackedW& pw, const real_t* x,
                         const ConvPlan& plan, real_t* out_plane,
                         real_t* capture_row);

/// gw rows [o0, o1) += gout_plane[o0:o1, :] · [cols(x) | 1] for one sample
/// (the augmented ones column accumulates the bias gradient).
void packed_conv_wgrad(const real_t* gout_plane, const real_t* x,
                       const ConvPlan& plan, Matrix& gw, index_t o0,
                       index_t o1);

/// dcols (s x patch, pre-zeroed) += gout_planeᵀ · W_main for one sample.
void packed_conv_dcols(const real_t* gout_plane, const PackedW& pw,
                       const ConvGeometry& g, Matrix& dcols);

}  // namespace hylo::kern
