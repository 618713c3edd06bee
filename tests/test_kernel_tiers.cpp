// DESIGN.md §13 kernel-tier contract. Three layers are pinned here:
// (1) dispatch — HYLO_KERNEL-style name parsing with loud rejection of
// unknown/unavailable tiers, native resolving to best(); (2) per-tier
// determinism — every GEMM-family kernel and the conv passes are bitwise
// identical at 1/2/7 threads *within* each available tier; (3) cross-tier
// accuracy — SIMD tiers reassociate the k-accumulation, so scalar-vs-SIMD
// drift is bounded with norm-relative tolerances on random and adversarial
// (large exponent spread) inputs. Copies of the replaced seed loops (GEMM
// family, materialized-im2col conv, factor and KID kernels) pin which
// results each tier still reproduces bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "hylo/common/check.hpp"
#include "hylo/linalg/cholesky.hpp"
#include "hylo/linalg/id.hpp"
#include "hylo/linalg/lu.hpp"
#include "hylo/linalg/qr.hpp"
#include "hylo/linalg/kernels.hpp"
#include "hylo/nn/layers.hpp"
#include "hylo/nn/loss.hpp"
#include "hylo/nn/network.hpp"
#include "hylo/obs/health.hpp"
#include "hylo/optim/second_order.hpp"
#include "hylo/par/thread_pool.hpp"
#include "hylo/tensor/gemm_packed.hpp"
#include "hylo/tensor/kernel_dispatch.hpp"
#include "hylo/tensor/ops.hpp"
#include "test_util.hpp"

namespace hylo {
namespace {

using kern::Tier;

// Every test restores the ambient tier and thread count so ordering between
// cases cannot leak a dispatch change into other suites.
class KernelTiers : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = kern::active(); }
  void TearDown() override {
    kern::set_tier(saved_);
    par::set_num_threads(0);
  }
  Tier saved_ = Tier::kScalar;
};

std::vector<Tier> simd_tiers() {
  std::vector<Tier> out;
  for (const Tier t : {Tier::kNeon, Tier::kAvx2, Tier::kAvx512})
    if (kern::available(t)) out.push_back(t);
  return out;
}

std::vector<Tier> all_tiers() {
  std::vector<Tier> out{Tier::kScalar};
  for (const Tier t : simd_tiers()) out.push_back(t);
  return out;
}

bool bitwise_equal(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(),
                     sizeof(real_t) * static_cast<std::size_t>(x.size())) == 0;
}

bool bitwise_equal(const Tensor4& x, const Tensor4& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(),
                     sizeof(real_t) * static_cast<std::size_t>(x.size())) == 0;
}

// Largest elementwise deviation, relative to the Frobenius scale of the
// reference — the natural bound for a reassociated sum (each element's
// error is O(k * eps) of its own accumulation magnitude).
real_t norm_rel_err(const Matrix& ref, const Matrix& got) {
  EXPECT_EQ(ref.rows(), got.rows());
  EXPECT_EQ(ref.cols(), got.cols());
  return max_abs_diff(ref, got) / (frobenius_norm(ref) + 1e-300);
}

// Adversarial accumulation input: normal values spread across ~16 orders of
// magnitude, so reassociated partial sums round very differently.
Matrix exponent_spread_matrix(Rng& rng, index_t rows, index_t cols) {
  Matrix m(rows, cols);
  for (index_t i = 0; i < m.size(); ++i)
    m[i] = std::ldexp(rng.normal(),
                      static_cast<int>(rng.uniform(-26.0, 26.0)));
  return m;
}

// ---- Dispatch ----------------------------------------------------------

TEST_F(KernelTiers, ParseAcceptsCanonicalNames) {
  EXPECT_EQ(kern::parse_tier("scalar"), Tier::kScalar);
  EXPECT_EQ(kern::parse_tier("neon"), Tier::kNeon);
  EXPECT_EQ(kern::parse_tier("avx2"), Tier::kAvx2);
  EXPECT_EQ(kern::parse_tier("avx512"), Tier::kAvx512);
  EXPECT_EQ(kern::parse_tier("native"), kern::best());
}

TEST_F(KernelTiers, ParseRejectsUnknownNames) {
  EXPECT_THROW(kern::parse_tier(""), Error);
  EXPECT_THROW(kern::parse_tier("AVX2"), Error);  // names are case-sensitive
  EXPECT_THROW(kern::parse_tier("sse"), Error);
  EXPECT_THROW(kern::parse_tier("scalar "), Error);
  EXPECT_THROW(kern::set_tier_by_name("fastest"), Error);
}

TEST_F(KernelTiers, SetTierRejectsUnavailableTiers) {
  bool found_unavailable = false;
  for (const Tier t : {Tier::kNeon, Tier::kAvx2, Tier::kAvx512})
    if (!kern::available(t)) {
      found_unavailable = true;
      EXPECT_THROW(kern::set_tier(t), Error);
    }
  if (!found_unavailable)
    GTEST_SKIP() << "every SIMD tier is available on this host";
}

TEST_F(KernelTiers, ScalarAlwaysAvailableAndBestIsAvailable) {
  EXPECT_TRUE(kern::available(Tier::kScalar));
  EXPECT_TRUE(kern::available(kern::best()));
  const Tier prev = kern::set_tier(Tier::kScalar);
  EXPECT_EQ(kern::active(), Tier::kScalar);
  kern::set_tier(prev);
}

// ---- Bitwise identity across thread counts, within each tier -----------

TEST_F(KernelTiers, GemmFamilyBitwiseAcrossThreadCountsWithinTier) {
  Rng rng(1234);
  // Odd shapes: not multiples of MR/NR or of any grain, so edge tiles and
  // straddled chunk boundaries are exercised.
  const Matrix a = testutil::random_matrix(rng, 37, 53);
  const Matrix b = testutil::random_matrix(rng, 53, 29);
  const Matrix at = testutil::random_matrix(rng, 53, 37);
  const Matrix bt = testutil::random_matrix(rng, 29, 53);
  Matrix y(53, 1);
  for (index_t i = 0; i < 53; ++i) y[i] = rng.normal();

  for (const Tier tier : all_tiers()) {
    kern::set_tier(tier);
    par::set_num_threads(1);
    const Matrix r_nn = matmul(a, b);
    const Matrix r_tn = matmul_tn(at, b);
    const Matrix r_nt = matmul_nt(a, bt);
    const Matrix r_gram = gram_nt(a);
    Matrix r_diag;
    gemm_tn_diag(at, y, b, r_diag);

    for (const int t : {2, 7}) {
      par::set_num_threads(t);
      EXPECT_TRUE(bitwise_equal(matmul(a, b), r_nn))
          << kern::tier_name(tier) << " gemm @" << t;
      EXPECT_TRUE(bitwise_equal(matmul_tn(at, b), r_tn))
          << kern::tier_name(tier) << " gemm_tn @" << t;
      EXPECT_TRUE(bitwise_equal(matmul_nt(a, bt), r_nt))
          << kern::tier_name(tier) << " gemm_nt @" << t;
      EXPECT_TRUE(bitwise_equal(gram_nt(a), r_gram))
          << kern::tier_name(tier) << " gram_nt @" << t;
      Matrix d;
      gemm_tn_diag(at, y, b, d);
      EXPECT_TRUE(bitwise_equal(d, r_diag))
          << kern::tier_name(tier) << " gemm_tn_diag @" << t;
    }
  }
}

TEST_F(KernelTiers, ConvPassesBitwiseAcrossThreadCountsWithinTier) {
  auto make_net = [] {
    Rng wrng(77);
    Network n("tier_conv");
    int x = n.add_input({2, 6, 6});
    x = n.add(std::make_unique<Conv2d>(3, 3, 1, 1, wrng), x);
    x = n.add(std::make_unique<ReLU>(), x);
    n.add(std::make_unique<Linear>(3, wrng), x);
    return n;
  };
  Rng rng(78);
  Tensor4 x(5, 2, 6, 6);
  for (index_t i = 0; i < x.size(); ++i) x[i] = rng.normal();
  const std::vector<int> labels = {0, 2, 1, 0, 2};
  const PassContext ctx{.training = true, .capture = true};

  auto run = [&](Tensor4& out, std::vector<Matrix>& state) {
    Network net = make_net();
    net.zero_grad();
    const Tensor4& logits = net.forward(x, ctx);
    out = logits;
    const LossResult lr = SoftmaxCrossEntropy().compute(logits, labels);
    net.backward(lr.grad, ctx);
    for (auto* pb : net.param_blocks()) {
      state.push_back(pb->gw);
      state.push_back(pb->a_samples);
      state.push_back(pb->g_samples);
    }
  };

  for (const Tier tier : all_tiers()) {
    kern::set_tier(tier);
    par::set_num_threads(1);
    Tensor4 out1;
    std::vector<Matrix> s1;
    run(out1, s1);
    for (const int t : {2, 7}) {
      par::set_num_threads(t);
      Tensor4 out;
      std::vector<Matrix> s;
      run(out, s);
      EXPECT_TRUE(bitwise_equal(out, out1)) << kern::tier_name(tier) << " @" << t;
      ASSERT_EQ(s.size(), s1.size());
      for (std::size_t i = 0; i < s.size(); ++i)
        EXPECT_TRUE(bitwise_equal(s[i], s1[i]))
            << kern::tier_name(tier) << " @" << t << " state " << i;
    }
  }
}

// ---- Scalar-vs-SIMD accuracy bounds ------------------------------------

TEST_F(KernelTiers, SimdMatchesScalarOnRandomMatrices) {
  Rng rng(99);
  const Matrix a = testutil::random_matrix(rng, 61, 83);
  const Matrix b = testutil::random_matrix(rng, 83, 47);
  const Matrix at = testutil::random_matrix(rng, 83, 61);
  const Matrix bt = testutil::random_matrix(rng, 47, 83);

  kern::set_tier(Tier::kScalar);
  const Matrix r_nn = matmul(a, b);
  const Matrix r_tn = matmul_tn(at, b);
  const Matrix r_nt = matmul_nt(a, bt);
  const Matrix r_gram = gram_nt(a);

  for (const Tier tier : simd_tiers()) {
    kern::set_tier(tier);
    EXPECT_LT(norm_rel_err(r_nn, matmul(a, b)), 1e-13) << kern::tier_name(tier);
    EXPECT_LT(norm_rel_err(r_tn, matmul_tn(at, b)), 1e-13)
        << kern::tier_name(tier);
    EXPECT_LT(norm_rel_err(r_nt, matmul_nt(a, bt)), 1e-13)
        << kern::tier_name(tier);
    EXPECT_LT(norm_rel_err(r_gram, gram_nt(a)), 1e-13) << kern::tier_name(tier);
  }
}

TEST_F(KernelTiers, SimdMatchesScalarOnExponentSpreadMatrices) {
  Rng rng(100);
  const Matrix a = exponent_spread_matrix(rng, 45, 67);
  const Matrix b = exponent_spread_matrix(rng, 67, 33);

  kern::set_tier(Tier::kScalar);
  const Matrix r_nn = matmul(a, b);
  const Matrix r_gram = gram_nt(a);
  // The drift bound must be relative to the accumulation magnitude, not the
  // (possibly cancelled) result: scale by |A|_F * |B|_F.
  const real_t scale_nn = frobenius_norm(a) * frobenius_norm(b);
  const real_t scale_gram = frobenius_norm(a) * frobenius_norm(a);

  for (const Tier tier : simd_tiers()) {
    kern::set_tier(tier);
    EXPECT_LT(max_abs_diff(r_nn, matmul(a, b)) / scale_nn, 1e-13)
        << kern::tier_name(tier);
    EXPECT_LT(max_abs_diff(r_gram, gram_nt(a)) / scale_gram, 1e-13)
        << kern::tier_name(tier);
  }
}

TEST_F(KernelTiers, AlphaBetaHandledIdenticallyAcrossTiers) {
  Rng rng(101);
  const Matrix a = testutil::random_matrix(rng, 19, 31);
  const Matrix b = testutil::random_matrix(rng, 31, 23);
  const Matrix c0 = testutil::random_matrix(rng, 19, 23);

  kern::set_tier(Tier::kScalar);
  Matrix ref = c0;
  gemm(a, b, ref, /*alpha=*/2.5, /*beta=*/-0.75);

  for (const Tier tier : simd_tiers()) {
    kern::set_tier(tier);
    Matrix c = c0;
    gemm(a, b, c, 2.5, -0.75);
    EXPECT_LT(norm_rel_err(ref, c), 1e-13) << kern::tier_name(tier);
    // beta == 0 with a mismatched C must still resize-and-overwrite.
    Matrix fresh;
    gemm(a, b, fresh, 2.5, 0.0);
    Matrix fresh_ref = Matrix(19, 23);
    kern::set_tier(Tier::kScalar);
    gemm(a, b, fresh_ref, 2.5, 0.0);
    kern::set_tier(tier);
    EXPECT_LT(norm_rel_err(fresh_ref, fresh), 1e-13) << kern::tier_name(tier);
  }
}

// ---- Gram symmetry -----------------------------------------------------

TEST_F(KernelTiers, GramIsExactlySymmetricInEveryTier) {
  Rng rng(102);
  const Matrix a = testutil::random_matrix(rng, 53, 21);
  for (const Tier tier : all_tiers()) {
    kern::set_tier(tier);
    const Matrix g = gram_nt(a);
    for (index_t i = 0; i < g.rows(); ++i)
      for (index_t j = 0; j < i; ++j) {
        const real_t lo = g(i, j), up = g(j, i);
        EXPECT_EQ(std::memcmp(&lo, &up, sizeof(real_t)), 0)
            << kern::tier_name(tier) << " (" << i << "," << j << ")";
      }
  }
}

// ---- Fused conv vs materialized im2col ---------------------------------

TEST_F(KernelTiers, FusedConvMatchesMaterializedIm2col) {
  if (simd_tiers().empty()) GTEST_SKIP() << "no SIMD tier on this host";
  auto make_net = [] {
    Rng wrng(55);
    Network n("fused_conv");
    int x = n.add_input({3, 7, 5});
    x = n.add(std::make_unique<Conv2d>(4, 3, 2, 1, wrng), x);  // stride 2
    x = n.add(std::make_unique<ReLU>(), x);
    x = n.add(std::make_unique<Conv2d>(5, 3, 1, 1, wrng), x);
    n.add(std::make_unique<Linear>(3, wrng), x);
    return n;
  };
  Rng rng(56);
  Tensor4 x(6, 3, 7, 5);
  for (index_t i = 0; i < x.size(); ++i) x[i] = rng.normal();
  const std::vector<int> labels = {0, 2, 1, 0, 2, 1};
  const PassContext ctx{.training = true, .capture = true};

  auto run = [&](Tensor4& out, std::vector<Matrix>& state) {
    Network net = make_net();
    net.zero_grad();
    const Tensor4& logits = net.forward(x, ctx);
    out = logits;
    const LossResult lr = SoftmaxCrossEntropy().compute(logits, labels);
    net.backward(lr.grad, ctx);
    for (auto* pb : net.param_blocks()) {
      state.push_back(pb->gw);
      state.push_back(pb->a_samples);
      state.push_back(pb->g_samples);
    }
  };

  // Scalar tier materializes per-sample im2col patch matrices; the SIMD
  // tiers generate patches inside the packed GEMM. Same math, different
  // association — norm-relative agreement is the contract.
  kern::set_tier(Tier::kScalar);
  Tensor4 out_ref;
  std::vector<Matrix> s_ref;
  run(out_ref, s_ref);

  for (const Tier tier : simd_tiers()) {
    kern::set_tier(tier);
    Tensor4 out;
    std::vector<Matrix> s;
    run(out, s);
    ASSERT_EQ(out.size(), out_ref.size());
    real_t worst = 0.0;
    for (index_t i = 0; i < out.size(); ++i)
      worst = std::max(worst, std::abs(out[i] - out_ref[i]));
    EXPECT_LT(worst, 1e-10) << kern::tier_name(tier);
    ASSERT_EQ(s.size(), s_ref.size());
    for (std::size_t i = 0; i < s.size(); ++i)
      EXPECT_LT(norm_rel_err(s_ref[i], s[i]), 1e-12)
          << kern::tier_name(tier) << " state " << i;
  }
}

// ---- Packed conv vs packed GEMM over a materialized im2col ---------------

TEST_F(KernelTiers, PackedConvBitwiseEqualsPackedGemmOverIm2col) {
  if (simd_tiers().empty()) GTEST_SKIP() << "no SIMD tier on this host";
  struct Case {
    index_t c, kernel, stride, pad;
  };
  // Every kernel x stride x pad on a non-square 7x5 input (output counts
  // such as 35 and 12 are not multiples of NR), plus a 12-channel 5x5
  // patch of 300 that crosses a KC=256 block.
  std::vector<Case> cases;
  for (const index_t k : {1, 3, 5})
    for (const index_t st : {1, 2})
      for (const index_t pd : {0, 1, 2}) cases.push_back({3, k, st, pd});
  cases.push_back({12, 5, 1, 2});

  const index_t c_out = 10;  // not a multiple of MR: edge row tiles
  for (const Tier tier : simd_tiers()) {
    kern::set_tier(tier);
    for (const Case& cs : cases) {
      const ConvGeometry g{.in_c = cs.c, .in_h = 7, .in_w = 5,
                           .kernel_h = cs.kernel, .kernel_w = cs.kernel,
                           .stride = cs.stride, .pad = cs.pad};
      const ConvPlan plan(g);
      const index_t patch = g.patch_size(), s = g.out_h() * g.out_w();
      SCOPED_TRACE(::testing::Message()
                   << kern::tier_name(tier) << " c=" << cs.c
                   << " k=" << cs.kernel << " stride=" << cs.stride
                   << " pad=" << cs.pad);
      Rng rng(static_cast<std::uint64_t>(
          600 + 31 * cs.c + 7 * cs.kernel + 3 * cs.stride + cs.pad));
      const Matrix w_aug = testutil::random_matrix(rng, c_out, patch + 1);
      const Matrix x = testutil::random_matrix(rng, 2, cs.c * 7 * 5);
      const Matrix gout = testutil::random_matrix(rng, 2, c_out * s);
      Matrix w_main(c_out, patch);
      for (index_t o = 0; o < c_out; ++o)
        for (index_t j = 0; j < patch; ++j) w_main(o, j) = w_aug(o, j);

      // Forward: out = W_main · colsᵀ onto C preloaded with the bias.
      const kern::PackedW pw = kern::pack_conv_forward_w(w_aug);
      Matrix out(c_out, s), ref(c_out, s), cols;
      std::vector<real_t> capture(static_cast<std::size_t>(patch));
      kern::packed_conv_forward(pw, x.row_ptr(0), plan, out.data(),
                                capture.data());
      im2col(x.row_ptr(0), g, cols);
      for (index_t o = 0; o < c_out; ++o)
        for (index_t p = 0; p < s; ++p) ref(o, p) = w_aug(o, patch);
      kern::packed_gemm_nt(w_main, cols, ref, 1.0);
      EXPECT_TRUE(bitwise_equal(out, ref));
      for (index_t j = 0; j < patch; ++j) {
        real_t sum = 0.0;
        for (index_t p = 0; p < s; ++p) sum += cols(p, j);
        EXPECT_NEAR(capture[static_cast<std::size_t>(j)], sum, 1e-12);
      }

      // Weight gradient over two samples: per sample a beta = 1 GEMM of
      // gout_i with [cols_i | 1]. The conv side splits its rows at an MR
      // boundary, as the channel-parallel caller may.
      Matrix gw(c_out, patch + 1), gw_ref(c_out, patch + 1);
      for (index_t i = 0; i < 2; ++i) {
        kern::packed_conv_wgrad(gout.row_ptr(i), x.row_ptr(i), plan, gw, 0, 8);
        kern::packed_conv_wgrad(gout.row_ptr(i), x.row_ptr(i), plan, gw, 8,
                                c_out);
        im2col(x.row_ptr(i), g, cols);
        Matrix cols_aug(s, patch + 1), gout_i(c_out, s);
        for (index_t p = 0; p < s; ++p) {
          for (index_t j = 0; j < patch; ++j) cols_aug(p, j) = cols(p, j);
          cols_aug(p, patch) = 1.0;
        }
        std::copy(gout.row_ptr(i), gout.row_ptr(i) + c_out * s,
                  gout_i.data());
        kern::packed_gemm_nn(gout_i, cols_aug, gw_ref, 1.0);
      }
      EXPECT_TRUE(bitwise_equal(gw, gw_ref));
    }
  }
}

// ---- Vector helpers ----------------------------------------------------

TEST_F(KernelTiers, ElementwiseHelpersBitwiseIdenticalAcrossTiers) {
  Rng rng(103);
  std::vector<real_t> a0(131), b(131);
  for (auto& v : a0) v = rng.normal();
  for (auto& v : b) v = rng.normal();

  kern::set_tier(Tier::kScalar);
  std::vector<real_t> mul_ref = a0, scale_ref(a0.size());
  kern::vmul(mul_ref.data(), b.data(), static_cast<index_t>(a0.size()));
  kern::vscale(scale_ref.data(), a0.data(), 1.7,
               static_cast<index_t>(a0.size()));
  const real_t dot_scalar =
      kern::vdot(a0.data(), b.data(), static_cast<index_t>(a0.size()));

  for (const Tier tier : simd_tiers()) {
    kern::set_tier(tier);
    std::vector<real_t> mul = a0, scale(a0.size());
    kern::vmul(mul.data(), b.data(), static_cast<index_t>(a0.size()));
    kern::vscale(scale.data(), a0.data(), 1.7,
                 static_cast<index_t>(a0.size()));
    // vmul/vscale are elementwise: bitwise identical across tiers.
    EXPECT_EQ(std::memcmp(mul.data(), mul_ref.data(),
                          sizeof(real_t) * mul.size()),
              0)
        << kern::tier_name(tier);
    EXPECT_EQ(std::memcmp(scale.data(), scale_ref.data(),
                          sizeof(real_t) * scale.size()),
              0)
        << kern::tier_name(tier);
    // vdot reassociates: bound, don't bit-compare.
    const real_t d =
        kern::vdot(a0.data(), b.data(), static_cast<index_t>(a0.size()));
    EXPECT_NEAR(d, dot_scalar, 1e-12 * std::abs(dot_scalar) + 1e-12)
        << kern::tier_name(tier);
  }
}

TEST_F(KernelTiers, MaskedAddBitwiseIdenticalAcrossTiers) {
  // Signed zeros and a NaN in the mask operand must leave a untouched; the
  // odd length exercises every tier's scalar tail.
  Rng rng(104);
  const index_t n = 131;
  std::vector<real_t> a0(n), b(n), x(n);
  for (auto& v : a0) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  for (auto& v : x) v = rng.normal();
  x[3] = 0.0;
  x[4] = -0.0;
  x[5] = std::nan("");
  a0[6] = -0.0;
  x[6] = -1.0;

  std::vector<real_t> ref = a0;
  for (index_t i = 0; i < n; ++i)
    if (x[static_cast<std::size_t>(i)] > 0.0)
      ref[static_cast<std::size_t>(i)] += b[static_cast<std::size_t>(i)];
  for (const Tier tier : all_tiers()) {
    kern::set_tier(tier);
    std::vector<real_t> a = a0;
    kern::vadd_where_positive(a.data(), b.data(), x.data(), n);
    EXPECT_EQ(std::memcmp(a.data(), ref.data(), sizeof(real_t) * a.size()), 0)
        << kern::tier_name(tier);
  }
}

TEST_F(KernelTiers, FusedAxpyIsElementwiseFmaInSimdTiers) {
  // Every length from empty to past two AVX-512 vectors, so each element
  // lands in a vector body in some calls and in the scalar tail in others.
  Rng rng(105);
  std::vector<real_t> y0(19), x(19);
  for (auto& v : y0) v = rng.normal();
  for (auto& v : x) v = rng.normal();
  const real_t s = -0.37;
  for (const Tier tier : simd_tiers()) {
    kern::set_tier(tier);
    for (index_t n = 0; n <= 19; ++n) {
      std::vector<real_t> y = y0;
      kern::vaxpy(y.data(), x.data(), s, n);
      for (index_t i = 0; i < 19; ++i) {
        const std::size_t u = static_cast<std::size_t>(i);
        const real_t want = i < n ? std::fma(s, x[u], y0[u]) : y0[u];
        EXPECT_EQ(std::memcmp(&y[u], &want, sizeof(real_t)), 0)
            << kern::tier_name(tier) << " n=" << n << " i=" << i;
      }
    }
  }
}

// ---- Symmetric factor kernels (KFAC refresh) -------------------------
// gram_tn, try_cholesky and the SPD inverse. The blocked Cholesky's block
// size is 64, so n = 64 runs the unblocked loop and 65 and 257 cross one
// or more block boundaries.

const index_t kFactorSizes[] = {7, 64, 65, 257};

// A damped covariance S = AᵀA/m + lambda·I over m = n + 43 samples: SPD,
// with eigenvalues in about [lambda, 4 + lambda].
Matrix damped_gram(Rng& rng, index_t n, real_t lambda) {
  const index_t m = n + 43;
  Matrix s = gram_tn(testutil::random_matrix(rng, m, n));
  s *= 1.0 / static_cast<real_t>(m);
  add_diagonal(s, lambda);
  return s;
}

bool exactly_symmetric(const Matrix& c) {
  for (index_t i = 0; i < c.rows(); ++i)
    for (index_t j = 0; j < i; ++j) {
      const real_t lo = c(i, j), up = c(j, i);
      if (std::memcmp(&lo, &up, sizeof(real_t)) != 0) return false;
    }
  return true;
}

TEST_F(KernelTiers, SymmetricFactorKernelsBitwiseAcrossThreadCountsWithinTier) {
  for (const index_t n : kFactorSizes) {
    Rng rng(300 + static_cast<std::uint64_t>(n));
    const Matrix a = testutil::random_matrix(rng, 2 * n + 3, n);
    for (const Tier tier : all_tiers()) {
      kern::set_tier(tier);
      par::set_num_threads(1);
      const Matrix s = damped_gram(rng, n, 0.1);
      const Matrix r_gram = gram_tn(a);
      Matrix r_chol;
      ASSERT_TRUE(try_cholesky(s, r_chol)) << kern::tier_name(tier) << " n=" << n;
      const Matrix r_inv = spd_inverse(s);
      for (const int t : {2, 7}) {
        par::set_num_threads(t);
        EXPECT_TRUE(bitwise_equal(gram_tn(a), r_gram))
            << kern::tier_name(tier) << " gram_tn n=" << n << " @" << t;
        Matrix l;
        ASSERT_TRUE(try_cholesky(s, l));
        EXPECT_TRUE(bitwise_equal(l, r_chol))
            << kern::tier_name(tier) << " try_cholesky n=" << n << " @" << t;
        EXPECT_TRUE(bitwise_equal(spd_inverse(s), r_inv))
            << kern::tier_name(tier) << " spd_inverse n=" << n << " @" << t;
      }
    }
  }
}

TEST_F(KernelTiers, SymmetricFactorKernelsSimdMatchScalar) {
  for (const index_t n : kFactorSizes) {
    Rng rng(400 + static_cast<std::uint64_t>(n));
    const Matrix a = testutil::random_matrix(rng, 2 * n + 3, n);
    kern::set_tier(Tier::kScalar);
    // lambda = 0.05 caps cond(S) near 4.05 / 0.05 = 81, far under 1e4.
    const Matrix s = damped_gram(rng, n, 0.05);
    const Matrix r_gram = gram_tn(a);
    const Matrix r_inv = spd_inverse(s);
    Matrix r_chol;
    ASSERT_TRUE(try_cholesky(s, r_chol));

    for (const Tier tier : simd_tiers()) {
      kern::set_tier(tier);
      EXPECT_LT(norm_rel_err(r_gram, gram_tn(a)), 1e-13)
          << kern::tier_name(tier) << " gram_tn n=" << n;
      Matrix l;
      ASSERT_TRUE(try_cholesky(s, l));
      EXPECT_LT(norm_rel_err(r_chol, l), 1e-12)
          << kern::tier_name(tier) << " try_cholesky n=" << n;
      for (index_t i = 0; i < n; ++i)
        for (index_t j = i + 1; j < n; ++j)
          ASSERT_EQ(l(i, j), 0.0) << kern::tier_name(tier) << " L upper";
      const Matrix x = spd_inverse(s);
      EXPECT_LT(norm_rel_err(r_inv, x), 1e-10)
          << kern::tier_name(tier) << " spd_inverse n=" << n;
      kern::set_tier(Tier::kScalar);
      Matrix resid = matmul(s, x);
      add_diagonal(resid, -1.0);
      EXPECT_LE(frobenius_norm(resid), 1e-10 * static_cast<real_t>(n))
          << kern::tier_name(tier) << " |S X - I| n=" << n;
    }
  }
}

TEST_F(KernelTiers, SymmetricFactorKernelsExactlySymmetric) {
  for (const index_t n : kFactorSizes) {
    Rng rng(500 + static_cast<std::uint64_t>(n));
    const Matrix a = testutil::random_matrix(rng, n + 5, n);
    const Matrix s = damped_gram(rng, n, 0.1);
    for (const Tier tier : all_tiers()) {
      kern::set_tier(tier);
      EXPECT_TRUE(exactly_symmetric(gram_tn(a)))
          << kern::tier_name(tier) << " gram_tn n=" << n;
      if (tier != Tier::kScalar) {
        EXPECT_TRUE(exactly_symmetric(spd_inverse(s)))
            << kern::tier_name(tier) << " spd_inverse n=" << n;
        EXPECT_TRUE(exactly_symmetric(damped_spd_inverse(s, 0.01)))
            << kern::tier_name(tier) << " damped_spd_inverse n=" << n;
      }
    }
  }
}

TEST_F(KernelTiers, BlockedCholeskyKeepsFailureContract) {
  const index_t n = 257;
  Rng rng(600);
  const Matrix spd = damped_gram(rng, n, 0.1);
  // Row 200 (inside the fourth block) is the first non-positive pivot: the
  // leading 200 x 200 block is untouched and still SPD.
  Matrix bad_pivot = spd;
  bad_pivot(200, 200) = -1.0;
  Matrix nan_entry = spd;
  nan_entry(230, 3) = std::nan("");
  // Exactly rank 2: every pivot past the second is rounding noise.
  const Matrix x2 = testutil::random_matrix(rng, n, 2);
  const Matrix rank2 = matmul_nt(x2, x2);
  Matrix leading(200, 200);
  for (index_t i = 0; i < 200; ++i)
    for (index_t j = 0; j < 200; ++j) leading(i, j) = spd(i, j);

  for (const Tier tier : all_tiers()) {
    kern::set_tier(tier);
    Matrix l;
    EXPECT_TRUE(try_cholesky(leading, l)) << kern::tier_name(tier);
    EXPECT_FALSE(try_cholesky(bad_pivot, l))
        << kern::tier_name(tier) << " pivot at row 200";
    EXPECT_FALSE(try_cholesky(nan_entry, l))
        << kern::tier_name(tier) << " NaN at (230, 3)";
    EXPECT_FALSE(try_cholesky(rank2, l)) << kern::tier_name(tier) << " rank 2";
    const Matrix ld = damped_cholesky(rank2, 0.0);
    EXPECT_EQ(obs::count_nonfinite(ld), 0) << kern::tier_name(tier);
    // The escalated factor reproduces the rank-2 Gram up to the small shift
    // damped_cholesky added to its diagonal.
    Matrix resid = matmul_nt(ld, ld);
    resid -= rank2;
    for (index_t i = 0; i < n; ++i) resid(i, i) = 0.0;
    EXPECT_LT(frobenius_norm(resid) / frobenius_norm(rank2), 1e-10)
        << kern::tier_name(tier);
  }
}

// Copies of the seed loops the scalar tier must keep bit for bit.
Matrix seed_gram_tn(const Matrix& a) {
  const index_t m = a.rows(), k = a.cols();
  Matrix c(k, k);
  for (index_t r = 0; r < m; ++r) {
    const real_t* ar = a.row_ptr(r);
    for (index_t i = 0; i < k; ++i) {
      const real_t v = ar[i];
      real_t* ci = c.row_ptr(i);
      for (index_t j = i; j < k; ++j) ci[j] += v * ar[j];
    }
  }
  for (index_t i = 0; i < k; ++i)
    for (index_t j = 0; j < i; ++j) c(i, j) = c(j, i);
  return c;
}

bool seed_try_cholesky(const Matrix& a, Matrix& l) {
  const index_t n = a.rows();
  l.resize(n, n);
  for (index_t j = 0; j < n; ++j) {
    real_t diag = a(j, j);
    const real_t* lj = l.row_ptr(j);
    for (index_t k = 0; k < j; ++k) diag -= lj[k] * lj[k];
    if (!(diag > 0.0) || !std::isfinite(diag)) return false;
    const real_t ljj = std::sqrt(diag);
    l(j, j) = ljj;
    const real_t inv = 1.0 / ljj;
    for (index_t i = j + 1; i < n; ++i) {
      real_t v = a(i, j);
      const real_t* li = l.row_ptr(i);
      for (index_t k = 0; k < j; ++k) v -= li[k] * lj[k];
      l(i, j) = v * inv;
    }
  }
  return true;
}

Matrix seed_damped_spd_inverse(const Matrix& c, real_t damping) {
  Matrix work = c;
  const real_t scale =
      1e-8 * (std::abs(trace(c)) / static_cast<real_t>(c.rows()) + 1.0);
  real_t added = 0.0;
  real_t next = damping;
  Matrix l;
  bool ok = false;
  for (int k = 0; k < 4 && !ok; ++k) {
    add_diagonal(work, next - added);
    added = next;
    ok = seed_try_cholesky(work, l);
    next = std::max(next * 10.0, scale);
  }
  EXPECT_TRUE(ok);
  // cholesky_solve(L, I): forward then backward substitution.
  const index_t n = l.rows();
  Matrix x = Matrix::identity(n);
  for (index_t i = 0; i < n; ++i) {
    const real_t* li = l.row_ptr(i);
    real_t* xi = x.row_ptr(i);
    for (index_t kk = 0; kk < i; ++kk) {
      const real_t lik = li[kk];
      if (lik == 0.0) continue;
      const real_t* xk = x.row_ptr(kk);
      for (index_t c2 = 0; c2 < n; ++c2) xi[c2] -= lik * xk[c2];
    }
    const real_t inv = 1.0 / li[i];
    for (index_t c2 = 0; c2 < n; ++c2) xi[c2] *= inv;
  }
  for (index_t i = n - 1; i >= 0; --i) {
    real_t* xi = x.row_ptr(i);
    for (index_t kk = i + 1; kk < n; ++kk) {
      const real_t lki = l(kk, i);
      if (lki == 0.0) continue;
      const real_t* xk = x.row_ptr(kk);
      for (index_t c2 = 0; c2 < n; ++c2) xi[c2] -= lki * xk[c2];
    }
    const real_t inv = 1.0 / l(i, i);
    for (index_t c2 = 0; c2 < n; ++c2) xi[c2] *= inv;
  }
  return x;
}

TEST_F(KernelTiers, ScalarTierFactorKernelsMatchSeedLoops) {
  kern::set_tier(Tier::kScalar);
  for (const index_t n : kFactorSizes) {
    Rng rng(700 + static_cast<std::uint64_t>(n));
    const Matrix a = testutil::random_matrix(rng, n + 9, n);
    const Matrix s = damped_gram(rng, n, 0.1);
    // Rank-deficient input: the first attempt fails and damping escalates.
    const Matrix x2 = testutil::random_matrix(rng, n, 2);
    const Matrix rank2 = matmul_nt(x2, x2);
    for (const int t : {1, 3}) {
      par::set_num_threads(t);
      EXPECT_TRUE(bitwise_equal(gram_tn(a), seed_gram_tn(a))) << "n=" << n;
      Matrix l, l_seed;
      ASSERT_EQ(try_cholesky(s, l), seed_try_cholesky(s, l_seed));
      EXPECT_TRUE(bitwise_equal(l, l_seed)) << "n=" << n;
      EXPECT_TRUE(bitwise_equal(damped_spd_inverse(s, 0.01),
                                seed_damped_spd_inverse(s, 0.01)))
          << "n=" << n;
      EXPECT_TRUE(bitwise_equal(damped_spd_inverse(rank2, 0.0),
                                seed_damped_spd_inverse(rank2, 0.0)))
          << "n=" << n << " escalated";
    }
  }
}

// ---- KID factorization kernels -----------------------------------------
// pivoted_qr, lu_factor and the row ID run their row updates through
// kern::vaxpy, in the operation order of the column loops they replaced
// (copied below). Each product-and-add there is one fused multiply-add
// wherever the build contracts `y -= a * b` (GCC's default
// -ffp-contract=fast under -march=native on an FMA host), so every tier
// must reproduce those loops bit for bit; without contraction only the
// scalar tier's plain vaxpy loop does.

real_t __attribute__((noinline)) contracted_sub(real_t y, real_t a, real_t b) {
  y -= a * b;
  return y;
}

// 1 - (1 + 2^-30)(1 - 2^-30) is -2^-60 fused and 0 when the product rounds.
bool build_contracts_fma() {
  volatile real_t a = 1.0 + 0x1p-30, b = 1.0 - 0x1p-30, y = 1.0;
  return contracted_sub(y, a, b) != 0.0;
}

std::vector<Tier> kid_bitwise_tiers() {
  return build_contracts_fma() ? all_tiers() : std::vector<Tier>{Tier::kScalar};
}

PivotedQr seed_pivoted_qr(const Matrix& a, index_t max_rank) {
  const index_t m = a.rows(), n = a.cols();
  index_t kmax = std::min(m, n);
  if (max_rank >= 0) kmax = std::min(kmax, max_rank);

  Matrix work = a;
  PivotedQr f;
  f.piv.resize(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j) f.piv[static_cast<std::size_t>(j)] = j;
  f.reflectors.resize(m, kmax);
  f.tau.assign(static_cast<std::size_t>(kmax), 0.0);

  std::vector<real_t> colnorm(static_cast<std::size_t>(n), 0.0);
  for (index_t i = 0; i < m; ++i) {
    const real_t* wi = work.row_ptr(i);
    for (index_t j = 0; j < n; ++j)
      colnorm[static_cast<std::size_t>(j)] += wi[j] * wi[j];
  }

  for (index_t k = 0; k < kmax; ++k) {
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

    real_t norm_sq = 0.0;
    for (index_t i = k; i < m; ++i) norm_sq += work(i, k) * work(i, k);
    const real_t norm_x = std::sqrt(norm_sq);
    if (norm_x <= 1e-300) {
      f.tau[static_cast<std::size_t>(k)] = 0.0;
      f.rank = k;
      for (index_t kk = k; kk < kmax; ++kk)
        f.tau[static_cast<std::size_t>(kk)] = 0.0;
      kmax = k;
      break;
    }
    const real_t x0 = work(k, k);
    const real_t alpha = (x0 >= 0.0) ? -norm_x : norm_x;
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

    for (index_t j = k + 1; j < n; ++j) {
      real_t dotv = 0.0;
      for (index_t i = k; i < m; ++i) dotv += f.reflectors(i, k) * work(i, j);
      dotv *= tau;
      if (dotv != 0.0)
        for (index_t i = k; i < m; ++i)
          work(i, j) -= dotv * f.reflectors(i, k);
      real_t& cn = colnorm[static_cast<std::size_t>(j)];
      cn -= work(k, j) * work(k, j);
      if (cn < 0.0) cn = 0.0;
    }
    f.rank = k + 1;
  }

  f.r.resize(f.rank, n);
  for (index_t i = 0; i < f.rank; ++i)
    for (index_t j = 0; j < n; ++j) f.r(i, j) = work(i, j);
  return f;
}

LuFactor seed_lu_factor(const Matrix& a) {
  HYLO_CHECK(a.rows() == a.cols(), "lu needs square");
  const index_t n = a.rows();
  LuFactor f{a, std::vector<index_t>(static_cast<std::size_t>(n))};
  Matrix& m = f.lu;
  for (index_t k = 0; k < n; ++k) {
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
      const real_t* mk = m.row_ptr(k);
      real_t* mi = m.row_ptr(i);
      for (index_t j = k + 1; j < n; ++j) mi[j] -= lik * mk[j];
    }
  }
  return f;
}

RowId seed_row_id(const Matrix& m, index_t r) {
  const index_t rows = m.rows();
  r = std::min({r, rows, m.cols()});
  const PivotedQr f = seed_pivoted_qr(m.transposed(), r);
  const index_t k = f.rank;

  RowId id;
  id.rank = k;
  id.rows.assign(f.piv.begin(), f.piv.begin() + static_cast<std::ptrdiff_t>(k));

  Matrix r12(k, rows - k);
  for (index_t i = 0; i < k; ++i)
    for (index_t j = 0; j < rows - k; ++j) r12(i, j) = f.r(i, k + j);
  const Matrix coeff = (rows - k) > 0 ? solve_r11(f, r12) : Matrix(k, 0);

  id.projection.resize(rows, k);
  for (index_t j = 0; j < k; ++j)
    id.projection(f.piv[static_cast<std::size_t>(j)], j) = 1.0;
  for (index_t j = k; j < rows; ++j) {
    const index_t orig = f.piv[static_cast<std::size_t>(j)];
    for (index_t i = 0; i < k; ++i)
      id.projection(orig, i) = coeff(i, j - k);
  }
  return id;
}

bool bitwise_equal(const std::vector<real_t>& x, const std::vector<real_t>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), sizeof(real_t) * x.size()) == 0;
}

bool same_qr(const PivotedQr& x, const PivotedQr& y) {
  return x.rank == y.rank && x.piv == y.piv && bitwise_equal(x.tau, y.tau) &&
         bitwise_equal(x.r, y.r) && bitwise_equal(x.reflectors, y.reflectors);
}

bool same_id(const RowId& x, const RowId& y) {
  return x.rank == y.rank && x.rows == y.rows &&
         bitwise_equal(x.projection, y.projection);
}

const index_t kKidSizes[] = {1, 7, 12, 128, 192, 257};

// Square, tall and wide inputs of side n.
std::vector<Matrix> kid_shapes(Rng& rng, index_t n) {
  return {testutil::random_matrix(rng, n, n),
          testutil::random_matrix(rng, n + 9, n),
          testutil::random_matrix(rng, n, n + 9)};
}

// Rank-3 input (rows x cols, cols >= 4) whose other columns are exactly
// -0.0: the QR stops early on exact rank deficiency, and every step meets
// trailing columns whose reflector dot is exactly zero.
Matrix zero_column_matrix(Rng& rng, index_t rows, index_t cols) {
  Matrix a(rows, cols);
  for (index_t i = 0; i < rows; ++i)
    for (index_t j = 0; j < cols; ++j)
      a(i, j) = (j == 1 || j == 2 || j == cols - 1) ? rng.normal() : -0.0;
  return a;
}

TEST_F(KernelTiers, PivotedQrMatchesSeedLoopsBitwise) {
  for (const index_t n : kKidSizes) {
    Rng rng(800 + static_cast<std::uint64_t>(n));
    std::vector<Matrix> inputs = kid_shapes(rng, n);
    if (n >= 4) inputs.push_back(zero_column_matrix(rng, n + 2, n));
    for (const Matrix& a : inputs) {
      for (const index_t max_rank : {index_t{1}, index_t{12}, index_t{-1}}) {
        const PivotedQr want = seed_pivoted_qr(a, max_rank);
        for (const Tier tier : kid_bitwise_tiers()) {
          kern::set_tier(tier);
          for (const int t : {1, 3}) {
            par::set_num_threads(t);
            EXPECT_TRUE(same_qr(pivoted_qr(a, max_rank), want))
                << kern::tier_name(tier) << " " << a.rows() << "x" << a.cols()
                << " max_rank=" << max_rank << " @" << t;
          }
        }
      }
    }
  }
}

TEST_F(KernelTiers, PivotedQrStopsEarlyOnExactRankDeficiency) {
  Rng rng(811);
  const Matrix a = zero_column_matrix(rng, 9, 7);
  for (const Tier tier : all_tiers()) {
    kern::set_tier(tier);
    const PivotedQr f = pivoted_qr(a, -1);
    EXPECT_EQ(f.rank, 3) << kern::tier_name(tier);
    EXPECT_EQ(f.r.rows(), 3) << kern::tier_name(tier);
  }
}

// Random rows, plus an exact-zero pattern (every third entry -0.0) so the
// elimination meets multipliers that are exactly zero.
Matrix sparse_square(Rng& rng, index_t n) {
  Matrix a = testutil::random_matrix(rng, n, n);
  for (index_t i = 0; i < a.size(); ++i)
    if (i % 3 == 1) a[i] = -0.0;
  for (index_t i = 0; i < n; ++i) a(i, i) += 4.0;
  return a;
}

TEST_F(KernelTiers, LuFactorMatchesSeedLoopsBitwise) {
  for (const index_t n : kKidSizes) {
    Rng rng(900 + static_cast<std::uint64_t>(n));
    for (const Matrix& a :
         {testutil::random_matrix(rng, n, n), sparse_square(rng, n)}) {
      const LuFactor want = seed_lu_factor(a);
      for (const Tier tier : kid_bitwise_tiers()) {
        kern::set_tier(tier);
        for (const int t : {1, 3}) {
          par::set_num_threads(t);
          const LuFactor got = lu_factor(a);
          EXPECT_TRUE(bitwise_equal(got.lu, want.lu) && got.piv == want.piv)
              << kern::tier_name(tier) << " n=" << n << " @" << t;
        }
      }
    }
  }
}

TEST_F(KernelTiers, LuFactorStillThrowsOnSingularInput) {
  for (const index_t n : {index_t{1}, index_t{7}, index_t{128}}) {
    Rng rng(950 + static_cast<std::uint64_t>(n));
    // Column n/2 exactly zero: elimination keeps it zero, so its pivot is 0.
    Matrix a = testutil::random_matrix(rng, n, n);
    for (index_t i = 0; i < n; ++i) a(i, n / 2) = 0.0;
    EXPECT_THROW(seed_lu_factor(a), Error) << "n=" << n;
    for (const Tier tier : all_tiers()) {
      kern::set_tier(tier);
      EXPECT_THROW(lu_factor(a), Error) << kern::tier_name(tier) << " n=" << n;
    }
  }
}

TEST_F(KernelTiers, RowIdMatchesSeedLoopsBitwise) {
  for (const index_t n : kKidSizes) {
    Rng rng(1000 + static_cast<std::uint64_t>(n));
    std::vector<Matrix> inputs = kid_shapes(rng, n);
    // A Gram-like symmetric input, as the KID refresh factors it.
    inputs.push_back(matmul_nt(inputs[0], inputs[0]));
    if (n >= 4) inputs.push_back(zero_column_matrix(rng, n, n + 2).transposed());
    for (const Matrix& q : inputs) {
      for (const index_t r : {index_t{1}, index_t{12}, n + 9}) {
        const RowId want = seed_row_id(q, r);
        for (const Tier tier : kid_bitwise_tiers()) {
          kern::set_tier(tier);
          for (const int t : {1, 3}) {
            par::set_num_threads(t);
            EXPECT_TRUE(same_id(row_interpolative_decomposition(q, r), want))
                << kern::tier_name(tier) << " " << q.rows() << "x" << q.cols()
                << " r=" << r << " @" << t;
          }
        }
      }
    }
  }
}

TEST_F(KernelTiers, BlockDiagInverseMatchesFullInverseBitwise) {
  Rng rng(1100);
  // Blocks of mixed size with negative entries (so pivots and zero signs
  // vary), one a 1x1 negative scalar.
  std::vector<Matrix> parts;
  for (const index_t nb : {index_t{12}, index_t{1}, index_t{7}, index_t{12}}) {
    Matrix b = testutil::random_matrix(rng, nb, nb);
    for (index_t i = 0; i < nb; ++i) b(i, i) += (i % 2 == 0 ? 3.0 : -3.0);
    parts.push_back(std::move(b));
  }
  parts[1](0, 0) = -2.5;
  const index_t n = 32;
  // Base with +0.0 and -0.0 entries: adding a ±0 inverse entry flips only
  // a -0.0, so the sign of every off-block zero is checked too.
  Matrix base = testutil::random_matrix(rng, n, n);
  for (index_t i = 0; i < base.size(); ++i) {
    if (i % 4 == 1) base[i] = -0.0;
    if (i % 4 == 3) base[i] = 0.0;
  }
  for (const Tier tier : all_tiers()) {
    kern::set_tier(tier);
    Matrix want = base;
    want += lu_inverse(block_diag(parts));
    Matrix got = base;
    add_block_diag_inverse(got, parts);
    EXPECT_TRUE(bitwise_equal(got, want)) << kern::tier_name(tier);
  }
  // A singular block still throws.
  parts[2] = Matrix(7, 7);
  Matrix m = base;
  EXPECT_THROW(add_block_diag_inverse(m, parts), Error);
}

// ---- One packed path: the GEMM family and the conv passes ---------------
// Every GEMM-family entry and both Conv2d passes run the packed driver in
// every tier; the scalar tier's portable microkernel adds `a * b` onto one
// running value per element, k ascending. Below are verbatim copies of the
// loop nests the scalar tier ran before (ops.cpp's blocked i-k-j gemm, the
// rank-1 gemm_tn, the row-dot gemm_nt and gram_nt, and Conv2d's
// materialized-im2col passes). Where their per-element order was one
// running sum from C, the packed path must reproduce them bit for bit.

constexpr index_t kSeedBlockI = 64;
constexpr index_t kSeedBlockK = 64;
constexpr index_t kSeedBlockJ = 256;

void seed_prepare_c(Matrix& c, index_t m, index_t n, real_t beta) {
  if (c.rows() != m || c.cols() != n) c.resize(m, n);
  if (beta == 0.0)
    c.zero();
  else
    c *= beta;
}

void seed_gemm(const Matrix& a, const Matrix& b, Matrix& c, real_t alpha,
               real_t beta) {
  const index_t m = a.rows(), k = a.cols(), n = b.cols();
  seed_prepare_c(c, m, n, beta);
  for (index_t ib = 0; ib < m; ib += kSeedBlockI)
    for (index_t kb = 0; kb < k; kb += kSeedBlockK)
      for (index_t jb = 0; jb < n; jb += kSeedBlockJ) {
        const index_t iend = std::min(ib + kSeedBlockI, m);
        const index_t kend = std::min(kb + kSeedBlockK, k);
        const index_t jend = std::min(jb + kSeedBlockJ, n);
        for (index_t i = ib; i < iend; ++i) {
          real_t* ci = c.row_ptr(i);
          const real_t* ai = a.row_ptr(i);
          for (index_t kk = kb; kk < kend; ++kk) {
            const real_t aik = alpha * ai[kk];
            const real_t* bk = b.row_ptr(kk);
            for (index_t j = jb; j < jend; ++j) ci[j] += aik * bk[j];
          }
        }
      }
}

// s == nullptr is gemm_tn, otherwise gemm_tn_diag.
void seed_gemm_tn(const Matrix& a, const real_t* s, const Matrix& b,
                  Matrix& c, real_t alpha, real_t beta) {
  const index_t k = a.rows(), m = a.cols(), n = b.cols();
  seed_prepare_c(c, m, n, beta);
  for (index_t kk = 0; kk < k; ++kk) {
    const real_t* ak = a.row_ptr(kk);
    const real_t* bk = b.row_ptr(kk);
    const real_t scale = s == nullptr ? alpha : alpha * s[kk];
    for (index_t i = 0; i < m; ++i) {
      const real_t aik = scale * ak[i];
      real_t* ci = c.row_ptr(i);
      for (index_t j = 0; j < n; ++j) ci[j] += aik * bk[j];
    }
  }
}

void seed_gemm_nt(const Matrix& a, const Matrix& b, Matrix& c, real_t alpha,
                  real_t beta) {
  const index_t m = a.rows(), k = a.cols(), n = b.rows();
  seed_prepare_c(c, m, n, beta);
  for (index_t i = 0; i < m; ++i) {
    const real_t* ai = a.row_ptr(i);
    real_t* ci = c.row_ptr(i);
    for (index_t j = 0; j < n; ++j) {
      const real_t* bj = b.row_ptr(j);
      real_t acc = 0.0;
      for (index_t kk = 0; kk < k; ++kk) acc += ai[kk] * bj[kk];
      ci[j] += alpha * acc;
    }
  }
}

Matrix seed_gram_nt(const Matrix& a) {
  const index_t m = a.rows(), k = a.cols();
  Matrix c(m, m);
  for (index_t i = 0; i < m; ++i) {
    const real_t* ai = a.row_ptr(i);
    for (index_t j = i; j < m; ++j) {
      const real_t* aj = a.row_ptr(j);
      real_t acc = 0.0;
      for (index_t kk = 0; kk < k; ++kk) acc += ai[kk] * aj[kk];
      c(i, j) = acc;
      c(j, i) = acc;
    }
  }
  return c;
}

TEST_F(KernelTiers, ScalarTierGemmFamilyMatchesSeedLoops) {
  kern::set_tier(Tier::kScalar);
  struct Dims {
    index_t m, k, n;
  };
  // Inner dimensions cross KC = 256 (261, 517) and the seed's 64-deep k
  // blocks; m = 70 crosses MC = 64; no edge is a multiple of MR or NR.
  const Dims dims[] = {{9, 5, 13}, {37, 261, 29}, {70, 517, 11}};
  struct AlphaBeta {
    real_t alpha, beta;
  };
  const AlphaBeta scales[] = {{1.0, 0.0}, {2.5, -0.75}, {-0.5, 0.0}, {1.0, 1.0}};
  for (const Dims& d : dims) {
    Rng rng(1200 + static_cast<std::uint64_t>(d.m * d.k + d.n));
    const Matrix a = testutil::random_matrix(rng, d.m, d.k);
    const Matrix b = testutil::random_matrix(rng, d.k, d.n);
    const Matrix at = testutil::random_matrix(rng, d.k, d.m);
    const Matrix bt = testutil::random_matrix(rng, d.n, d.k);
    const Matrix y = testutil::random_matrix(rng, d.k, 1);
    const Matrix c0 = testutil::random_matrix(rng, d.m, d.n);
    for (const int t : {1, 3}) {
      par::set_num_threads(t);
      SCOPED_TRACE(::testing::Message() << d.m << "x" << d.k << "x" << d.n
                                        << " @" << t);
      for (const AlphaBeta& ab : scales) {
        SCOPED_TRACE(::testing::Message()
                     << "alpha=" << ab.alpha << " beta=" << ab.beta);
        Matrix got = c0, want = c0;
        gemm(a, b, got, ab.alpha, ab.beta);
        seed_gemm(a, b, want, ab.alpha, ab.beta);
        EXPECT_TRUE(bitwise_equal(got, want)) << "gemm";

        got = c0;
        want = c0;
        gemm_tn(at, b, got, ab.alpha, ab.beta);
        seed_gemm_tn(at, nullptr, b, want, ab.alpha, ab.beta);
        EXPECT_TRUE(bitwise_equal(got, want)) << "gemm_tn";

        got = c0;
        want = c0;
        gemm_tn_diag(at, y, b, got, ab.alpha, ab.beta);
        seed_gemm_tn(at, y.data(), b, want, ab.alpha, ab.beta);
        EXPECT_TRUE(bitwise_equal(got, want)) << "gemm_tn_diag";

        // The packed gemm_nt folds alpha into A before the k sum, the seed
        // loop scaled the finished dot: equal bit for bit only at the
        // alpha = 1, beta = 0 shape the library calls.
        got = c0;
        want = c0;
        gemm_nt(a, bt, got, ab.alpha, ab.beta);
        seed_gemm_nt(a, bt, want, ab.alpha, ab.beta);
        if (ab.alpha == 1.0 && ab.beta == 0.0)
          EXPECT_TRUE(bitwise_equal(got, want)) << "gemm_nt";
        else
          EXPECT_LT(norm_rel_err(want, got), 1e-13) << "gemm_nt";
      }
      EXPECT_TRUE(bitwise_equal(gram_nt(a), seed_gram_nt(a))) << "gram_nt";
      EXPECT_TRUE(bitwise_equal(gram_tn(at), seed_gram_tn(at))) << "gram_tn";
    }
  }
}

struct SeedConvResult {
  Tensor4 out, gin;
  Matrix gw, a_samples, g_samples;
};

// Conv2d's materialized-im2col forward and backward loops, with the layer
// state passed in: w is W_aug (c_out x patch+1, bias last).
SeedConvResult seed_conv(const Matrix& w, const ConvPlan& plan,
                         const Tensor4& x, const Tensor4& gout) {
  const ConvGeometry& geom = plan.geom;
  const index_t out_channels = w.rows();
  const index_t n = x.n(), oh = geom.out_h(), ow = geom.out_w();
  const index_t s = oh * ow, patch = geom.patch_size();
  SeedConvResult r;
  r.out.resize(n, out_channels, oh, ow);
  r.a_samples.resize(n, patch + 1);
  std::vector<Matrix> cols_(static_cast<std::size_t>(n));

  Matrix y;  // s x c_out scratch
  for (index_t i = 0; i < n; ++i) {
    Matrix& cols = cols_[static_cast<std::size_t>(i)];
    im2col(x.sample_ptr(i), plan, cols);
    y.resize(s, out_channels);
    for (index_t p = 0; p < s; ++p) {
      const real_t* cp = cols.row_ptr(p);
      real_t* yp = y.row_ptr(p);
      for (index_t o = 0; o < out_channels; ++o) {
        const real_t* wo = w.row_ptr(o);
        real_t acc = wo[patch];  // bias
        for (index_t j = 0; j < patch; ++j) acc += wo[j] * cp[j];
        yp[o] = acc;
      }
    }
    real_t* dst = r.out.sample_ptr(i);
    for (index_t o = 0; o < out_channels; ++o)
      for (index_t p = 0; p < s; ++p) dst[o * s + p] = y(p, o);
    real_t* arow = r.a_samples.row_ptr(i);
    for (index_t j = 0; j < patch; ++j) {
      real_t acc = 0.0;
      for (index_t p = 0; p < s; ++p) acc += cols(p, j);
      arow[j] = acc;
    }
    arow[patch] = static_cast<real_t>(s);
  }

  r.gw.resize(out_channels, patch + 1);
  r.g_samples.resize(n, out_channels);
  for (index_t o = 0; o < out_channels; ++o) {
    real_t* go = r.gw.row_ptr(o);
    for (index_t i = 0; i < n; ++i) {
      const real_t* src = gout.sample_ptr(i) + o * s;
      const Matrix& cols = cols_[static_cast<std::size_t>(i)];
      real_t bias_acc = 0.0;
      for (index_t p = 0; p < s; ++p) {
        const real_t g = src[p];
        if (g == 0.0) continue;
        bias_acc += g;
        const real_t* cp = cols.row_ptr(p);
        for (index_t j = 0; j < patch; ++j) go[j] += g * cp[j];
      }
      go[patch] += bias_acc;
      r.g_samples(i, o) = bias_acc * static_cast<real_t>(n);
    }
  }

  r.gin.resize(n, geom.in_c, geom.in_h, geom.in_w);
  Matrix dcols;
  for (index_t i = 0; i < n; ++i) {
    const real_t* src = gout.sample_ptr(i);
    dcols.resize(s, patch);
    for (index_t p = 0; p < s; ++p) {
      real_t* dp = dcols.row_ptr(p);
      for (index_t o = 0; o < out_channels; ++o) {
        const real_t g = src[o * s + p];
        if (g == 0.0) continue;
        const real_t* wo = w.row_ptr(o);
        for (index_t j = 0; j < patch; ++j) dp[j] += g * wo[j];
      }
    }
    col2im_add(dcols, plan, r.gin.sample_ptr(i));
  }
  return r;
}

Matrix column(const Matrix& m, index_t j) {
  Matrix out(m.rows(), 1);
  for (index_t i = 0; i < m.rows(); ++i) out(i, 0) = m(i, j);
  return out;
}

TEST_F(KernelTiers, ConvMatchesSeedIm2colLoops) {
  struct Case {
    index_t c, h, w, kernel, stride, pad;
  };
  std::vector<Case> cases;
  for (const index_t st : {1, 2})
    for (const index_t pd : {0, 1, 2}) cases.push_back({3, 7, 5, 3, st, pd});
  cases.push_back({3, 7, 5, 1, 2, 0});
  cases.push_back({12, 6, 6, 5, 1, 2});  // patch 300 crosses KC = 256
  cases.push_back({2, 20, 15, 3, 1, 1});  // 300 positions cross KC and MC

  const index_t c_out = 10, n = 3;  // c_out not a multiple of MR
  const PassContext ctx{.training = true, .capture = true};
  for (const Case& cs : cases) {
    SCOPED_TRACE(::testing::Message()
                 << "c=" << cs.c << " " << cs.h << "x" << cs.w
                 << " k=" << cs.kernel << " stride=" << cs.stride
                 << " pad=" << cs.pad);
    Rng rng(static_cast<std::uint64_t>(1300 + 31 * cs.c + 7 * cs.kernel +
                                       3 * cs.stride + cs.pad + cs.h));
    Rng wrng(1);
    Conv2d conv(c_out, cs.kernel, cs.stride, cs.pad, wrng);
    const Shape out_shape = conv.infer_shape({Shape{cs.c, cs.h, cs.w}});
    const ConvPlan plan(ConvGeometry{.in_c = cs.c, .in_h = cs.h,
                                     .in_w = cs.w, .kernel_h = cs.kernel,
                                     .kernel_w = cs.kernel,
                                     .stride = cs.stride, .pad = cs.pad});
    const index_t patch = plan.geom.patch_size();
    const Matrix w = testutil::random_matrix(rng, c_out, patch + 1);
    Tensor4 x(n, cs.c, cs.h, cs.w);
    for (index_t i = 0; i < x.size(); ++i) x[i] = rng.normal();
    // Zeros of both signs in gout (the seed loops skip g == 0), including
    // one channel plane that is zero throughout.
    Tensor4 gout(n, c_out, out_shape.h, out_shape.w);
    for (index_t i = 0; i < gout.size(); ++i)
      gout[i] = i % 5 == 1 ? 0.0 : i % 7 == 3 ? -0.0 : rng.normal();
    const index_t s = out_shape.h * out_shape.w;
    std::fill(gout.sample_ptr(1) + 4 * s, gout.sample_ptr(1) + 5 * s, 0.0);

    const SeedConvResult want = seed_conv(w, plan, x, gout);
    // Every tier where the build contracts `acc += a * b` into an FMA (the
    // SIMD microkernels' chain), the scalar tier alone otherwise.
    for (const Tier tier : kid_bitwise_tiers()) {
      kern::set_tier(tier);
      for (const int t : {1, 3}) {
        par::set_num_threads(t);
        SCOPED_TRACE(::testing::Message() << kern::tier_name(tier) << " @" << t);
        ParamBlock& pb = *conv.param_block();
        pb.w = w;
        pb.gw.zero();
        Tensor4 out;
        conv.forward({&x}, out, ctx);
        Tensor4 gin(n, cs.c, cs.h, cs.w);
        conv.backward({&x}, out, gout, {&gin}, ctx);

        EXPECT_TRUE(bitwise_equal(out, want.out)) << "output";
        EXPECT_TRUE(bitwise_equal(gin, want.gin)) << "input gradient";
        bool main_cols = true;
        for (index_t o = 0; o < c_out; ++o)
          main_cols = main_cols &&
                      std::memcmp(pb.gw.row_ptr(o), want.gw.row_ptr(o),
                                  sizeof(real_t) *
                                      static_cast<std::size_t>(patch)) == 0;
        EXPECT_TRUE(main_cols) << "gw kernel columns";
        EXPECT_TRUE(bitwise_equal(pb.g_samples, want.g_samples)) << "g_samples";
        // Reassociated: the bias column sums g into gw per position rather
        // than per sample first, the capture sums per NR panel.
        EXPECT_LT(norm_rel_err(column(want.gw, patch), column(pb.gw, patch)),
                  1e-12)
            << "gw bias column";
        EXPECT_LT(norm_rel_err(want.a_samples, pb.a_samples), 1e-12)
            << "a_samples";
      }
    }
  }
}

}  // namespace
}  // namespace hylo
