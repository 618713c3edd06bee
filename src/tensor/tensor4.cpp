#include "hylo/tensor/tensor4.hpp"

#include <algorithm>

#include "hylo/tensor/gemm_packed.hpp"

namespace hylo {

Matrix Tensor4::as_matrix() const {
  Matrix m(n_, sample_size());
  std::copy(data_.begin(), data_.end(), m.data());
  return m;
}

Tensor4 Tensor4::from_matrix(const Matrix& m, index_t c, index_t h, index_t w) {
  HYLO_CHECK(m.cols() == c * h * w, "from_matrix shape");
  Tensor4 t(m.rows(), c, h, w);
  std::copy(m.data(), m.data() + m.size(), t.data());
  return t;
}

ConvPlan::ConvPlan(const ConvGeometry& g)
    : geom(g), hp(g.in_h + 2 * g.pad), wp(g.in_w + 2 * g.pad) {
  koff.reserve(static_cast<std::size_t>(g.patch_size()));
  for (index_t c = 0; c < g.in_c; ++c)
    for (index_t ky = 0; ky < g.kernel_h; ++ky)
      for (index_t kx = 0; kx < g.kernel_w; ++kx)
        koff.push_back((c * hp + ky) * wp + kx);
  const index_t oh = g.out_h(), ow = g.out_w();
  poff.reserve(static_cast<std::size_t>(oh * ow));
  for (index_t oy = 0; oy < oh; ++oy)
    for (index_t ox = 0; ox < ow; ++ox)
      poff.push_back(oy * g.stride * wp + ox * g.stride);
}

real_t* ConvPlan::pad(const real_t* sample, std::vector<real_t>& buf) const {
  buf.resize(static_cast<std::size_t>(padded_size()));
  const index_t pd = geom.pad, h = geom.in_h, w = geom.in_w;
  real_t* xp = buf.data();
  for (index_t c = 0; c < geom.in_c; ++c) {
    real_t* plane = xp + c * hp * wp;
    const real_t* src = sample + c * h * w;
    std::fill(plane, plane + pd * wp, 0.0);
    for (index_t y = 0; y < h; ++y) {
      real_t* row = plane + (y + pd) * wp;
      std::fill(row, row + pd, 0.0);
      std::copy(src + y * w, src + (y + 1) * w, row + pd);
      std::fill(row + pd + w, row + wp, 0.0);
    }
    std::fill(plane + (h + pd) * wp, plane + hp * wp, 0.0);
  }
  return xp;
}

void ConvPlan::unpad(const real_t* xp, real_t* sample) const {
  const index_t pd = geom.pad, h = geom.in_h, w = geom.in_w;
  for (index_t c = 0; c < geom.in_c; ++c)
    for (index_t y = 0; y < h; ++y) {
      const real_t* row = xp + (c * hp + y + pd) * wp + pd;
      std::copy(row, row + w, sample + (c * h + y) * w);
    }
}

void im2col(const real_t* sample, const ConvPlan& plan, Matrix& cols) {
  const index_t s = static_cast<index_t>(plan.poff.size());
  const index_t patch = static_cast<index_t>(plan.koff.size());
  if (cols.rows() != s || cols.cols() != patch) cols.resize(s, patch);
  const real_t* xp =
      plan.pad(sample, kern::tl_scratch(kern::kScratchConvPlane));
  const index_t* koff = plan.koff.data();
  for (index_t p = 0; p < s; ++p) {
    const real_t* base = xp + plan.poff[static_cast<std::size_t>(p)];
    real_t* dst = cols.row_ptr(p);
    for (index_t j = 0; j < patch; ++j) dst[j] = base[koff[j]];
  }
}

void im2col(const real_t* sample, const ConvGeometry& g, Matrix& cols) {
  im2col(sample, ConvPlan(g), cols);
}

void col2im_add(const Matrix& cols, const ConvPlan& plan, real_t* sample) {
  const index_t s = static_cast<index_t>(plan.poff.size());
  const index_t patch = static_cast<index_t>(plan.koff.size());
  HYLO_CHECK(cols.rows() == s && cols.cols() == patch, "col2im shape");
  // Accumulate on a padded copy of the sample: border cells absorb the
  // out-of-range taps and are dropped by unpad, interior cells see the same
  // (p, j)-ascending additions as a bounds-checked scatter.
  real_t* xp = plan.pad(sample, kern::tl_scratch(kern::kScratchConvPlane));
  const index_t* koff = plan.koff.data();
  for (index_t p = 0; p < s; ++p) {
    real_t* base = xp + plan.poff[static_cast<std::size_t>(p)];
    const real_t* src = cols.row_ptr(p);
    for (index_t j = 0; j < patch; ++j) base[koff[j]] += src[j];
  }
  plan.unpad(xp, sample);
}

void col2im_add(const Matrix& cols, const ConvGeometry& g, real_t* sample) {
  col2im_add(cols, ConvPlan(g), sample);
}

}  // namespace hylo
