// Tensor4 and the im2col/col2im pair: layout, a hand-checked example, and the
// adjoint property <im2col(x), C> == <x, col2im(C)> that conv backward
// correctness depends on.
#include <gtest/gtest.h>

#include <cstring>

#include "hylo/common/rng.hpp"
#include "hylo/tensor/tensor4.hpp"
#include "test_util.hpp"

namespace hylo {
namespace {

TEST(Tensor4, LayoutIsNCHW) {
  Tensor4 t(2, 3, 4, 5);
  t.at(1, 2, 3, 4) = 9.0;
  EXPECT_EQ(t[((1 * 3 + 2) * 4 + 3) * 5 + 4], 9.0);
  EXPECT_EQ(t.sample_size(), 60);
  EXPECT_EQ(t.size(), 120);
}

TEST(Tensor4, MatrixRoundTrip) {
  Rng rng(1);
  Tensor4 t(3, 2, 4, 4);
  for (index_t i = 0; i < t.size(); ++i) t[i] = rng.normal();
  const Matrix m = t.as_matrix();
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 32);
  const Tensor4 back = Tensor4::from_matrix(m, 2, 4, 4);
  for (index_t i = 0; i < t.size(); ++i) EXPECT_EQ(back[i], t[i]);
}

TEST(Tensor4, ConvGeometryDims) {
  ConvGeometry g{.in_c = 3, .in_h = 32, .in_w = 32, .kernel_h = 3,
                 .kernel_w = 3, .stride = 1, .pad = 1};
  EXPECT_EQ(g.out_h(), 32);
  EXPECT_EQ(g.out_w(), 32);
  EXPECT_EQ(g.patch_size(), 27);
  ConvGeometry s{.in_c = 1, .in_h = 8, .in_w = 8, .kernel_h = 2,
                 .kernel_w = 2, .stride = 2, .pad = 0};
  EXPECT_EQ(s.out_h(), 4);
  EXPECT_EQ(s.out_w(), 4);
}

TEST(Tensor4, Im2ColHandChecked) {
  // 1 channel, 3x3 input, 2x2 kernel, stride 1, no pad -> 4 patches.
  Tensor4 t(1, 1, 3, 3);
  for (index_t i = 0; i < 9; ++i) t[i] = static_cast<real_t>(i + 1);
  ConvGeometry g{.in_c = 1, .in_h = 3, .in_w = 3, .kernel_h = 2,
                 .kernel_w = 2, .stride = 1, .pad = 0};
  Matrix cols;
  im2col(t.sample_ptr(0), g, cols);
  ASSERT_EQ(cols.rows(), 4);
  ASSERT_EQ(cols.cols(), 4);
  // Patch at output (0,0): [1,2,4,5].
  EXPECT_EQ(cols(0, 0), 1.0);
  EXPECT_EQ(cols(0, 1), 2.0);
  EXPECT_EQ(cols(0, 2), 4.0);
  EXPECT_EQ(cols(0, 3), 5.0);
  // Patch at output (1,1): [5,6,8,9].
  EXPECT_EQ(cols(3, 0), 5.0);
  EXPECT_EQ(cols(3, 3), 9.0);
}

TEST(Tensor4, Im2ColZeroPadsBorders) {
  Tensor4 t(1, 1, 2, 2);
  t[0] = 1;
  t[1] = 2;
  t[2] = 3;
  t[3] = 4;
  ConvGeometry g{.in_c = 1, .in_h = 2, .in_w = 2, .kernel_h = 3,
                 .kernel_w = 3, .stride = 1, .pad = 1};
  Matrix cols;
  im2col(t.sample_ptr(0), g, cols);
  ASSERT_EQ(cols.rows(), 4);
  // Output (0,0): window centered on pixel (0,0); top row and left col pad.
  EXPECT_EQ(cols(0, 0), 0.0);
  EXPECT_EQ(cols(0, 4), 1.0);  // center = pixel (0,0)
  EXPECT_EQ(cols(0, 5), 2.0);
  EXPECT_EQ(cols(0, 8), 4.0);
}

class Im2ColAdjoint
    : public ::testing::TestWithParam<std::tuple<index_t, index_t, index_t>> {};

TEST_P(Im2ColAdjoint, DotProductIdentity) {
  const auto [kernel, stride, pad] = GetParam();
  Rng rng(7 * kernel + 3 * stride + pad);
  const index_t c = 2, h = 7, w = 6;
  ConvGeometry g{.in_c = c, .in_h = h, .in_w = w, .kernel_h = kernel,
                 .kernel_w = kernel, .stride = stride, .pad = pad};
  if (g.out_h() <= 0 || g.out_w() <= 0) GTEST_SKIP();

  Tensor4 x(1, c, h, w);
  for (index_t i = 0; i < x.size(); ++i) x[i] = rng.normal();
  Matrix cols;
  im2col(x.sample_ptr(0), g, cols);

  const Matrix cmat = testutil::random_matrix(rng, cols.rows(), cols.cols());
  Tensor4 back(1, c, h, w);
  col2im_add(cmat, g, back.sample_ptr(0));

  real_t lhs = 0.0;
  for (index_t i = 0; i < cols.size(); ++i)
    lhs += cols.data()[i] * cmat.data()[i];
  real_t rhs = 0.0;
  for (index_t i = 0; i < x.size(); ++i) rhs += x[i] * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Im2ColAdjoint,
    ::testing::Values(std::tuple<index_t, index_t, index_t>{3, 1, 1},
                      std::tuple<index_t, index_t, index_t>{3, 2, 1},
                      std::tuple<index_t, index_t, index_t>{1, 1, 0},
                      std::tuple<index_t, index_t, index_t>{2, 2, 0},
                      std::tuple<index_t, index_t, index_t>{5, 1, 2}));

TEST(Tensor4, Col2ImAccumulates) {
  ConvGeometry g{.in_c = 1, .in_h = 3, .in_w = 3, .kernel_h = 2,
                 .kernel_w = 2, .stride = 1, .pad = 0};
  Matrix ones(4, 4, 1.0);
  Tensor4 out(1, 1, 3, 3);
  col2im_add(ones, g, out.sample_ptr(0));
  // Center pixel (1,1) is covered by all four 2x2 windows.
  EXPECT_EQ(out.at(0, 0, 1, 1), 4.0);
  // Corner (0,0) by exactly one.
  EXPECT_EQ(out.at(0, 0, 0, 0), 1.0);
  // Calling again accumulates.
  col2im_add(ones, g, out.sample_ptr(0));
  EXPECT_EQ(out.at(0, 0, 1, 1), 8.0);
}

// col2im_add onto a sample that already holds values must equal a
// bounds-checked scatter that adds in (position, patch coordinate) order,
// bit for bit; im2col must equal the matching bounds-checked gather.
TEST(Tensor4, Col2ImOntoNonZeroSampleMatchesBoundsCheckedReference) {
  for (const index_t kernel : {1, 3, 5})
    for (const index_t stride : {1, 2})
      for (const index_t pad : {0, 1, 2}) {
        const index_t c = 2, h = 7, w = 5;
        const ConvGeometry g{.in_c = c, .in_h = h, .in_w = w,
                             .kernel_h = kernel, .kernel_w = kernel,
                             .stride = stride, .pad = pad};
        SCOPED_TRACE(::testing::Message() << "k=" << kernel << " stride="
                                          << stride << " pad=" << pad);
        const index_t oh = g.out_h(), ow = g.out_w();
        Rng rng(static_cast<std::uint64_t>(40 + 9 * kernel + 3 * stride + pad));
        const Matrix dcols =
            testutil::random_matrix(rng, oh * ow, g.patch_size());
        Tensor4 x(1, c, h, w);
        for (index_t i = 0; i < x.size(); ++i) x[i] = rng.normal();
        Tensor4 got = x, ref = x;

        Matrix cols;
        im2col(x.sample_ptr(0), g, cols);
        col2im_add(dcols, g, got.sample_ptr(0));
        for (index_t oy = 0; oy < oh; ++oy)
          for (index_t ox = 0; ox < ow; ++ox) {
            const index_t p = oy * ow + ox;
            index_t j = 0;
            for (index_t ch = 0; ch < c; ++ch)
              for (index_t ky = 0; ky < kernel; ++ky)
                for (index_t kx = 0; kx < kernel; ++kx, ++j) {
                  const index_t iy = oy * stride + ky - pad;
                  const index_t ix = ox * stride + kx - pad;
                  const bool inside = iy >= 0 && iy < h && ix >= 0 && ix < w;
                  const real_t want = inside ? x.at(0, ch, iy, ix) : 0.0;
                  EXPECT_EQ(std::memcmp(&cols(p, j), &want, sizeof(real_t)),
                            0);
                  if (inside) ref.at(0, ch, iy, ix) += dcols(p, j);
                }
          }
        EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                              sizeof(real_t) *
                                  static_cast<std::size_t>(got.size())),
                  0);
      }
}

}  // namespace
}  // namespace hylo
