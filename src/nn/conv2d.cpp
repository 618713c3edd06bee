#include <cmath>

#include "hylo/nn/layers.hpp"
#include "hylo/par/thread_pool.hpp"
#include "hylo/tensor/gemm_packed.hpp"

namespace hylo {

Conv2d::Conv2d(index_t out_channels, index_t kernel, index_t stride,
               index_t pad, Rng& rng, std::string name)
    : out_channels_(out_channels), kernel_(kernel), stride_(stride), pad_(pad),
      rng_(&rng) {
  HYLO_CHECK(out_channels > 0 && kernel > 0 && stride > 0 && pad >= 0,
             "bad Conv2d geometry");
  params_.name = std::move(name);
  params_.kind = ParamKind::kConv;
  params_.d_out = out_channels;
}

Shape Conv2d::infer_shape(const std::vector<Shape>& in) {
  HYLO_CHECK(in.size() == 1, "Conv2d takes one input");
  const ConvGeometry geom{.in_c = in[0].c, .in_h = in[0].h, .in_w = in[0].w,
                          .kernel_h = kernel_, .kernel_w = kernel_,
                          .stride = stride_, .pad = pad_};
  HYLO_CHECK(geom.out_h() > 0 && geom.out_w() > 0,
             "Conv2d output collapses: in " << in[0].h << "x" << in[0].w
                                            << " k=" << kernel_);
  plan_ = ConvPlan(geom);
  const index_t patch = geom.patch_size();
  params_.d_in = patch;
  params_.w.resize(out_channels_, patch + 1);
  params_.gw.resize(out_channels_, patch + 1);
  const real_t std = std::sqrt(2.0 / static_cast<real_t>(patch));
  for (index_t o = 0; o < out_channels_; ++o)
    for (index_t j = 0; j < patch; ++j) params_.w(o, j) = std * rng_->normal();
  return Shape{out_channels_, geom.out_h(), geom.out_w()};
}

void Conv2d::forward(const std::vector<const Tensor4*>& in, Tensor4& out,
                     const PassContext& ctx) {
  const Tensor4& x = *in[0];
  const ConvGeometry& geom = plan_.geom;
  const index_t n = x.n(), oh = geom.out_h(), ow = geom.out_w();
  const index_t s = oh * ow, patch = geom.patch_size();
  out.resize(n, out_channels_, oh, ow);
  if (ctx.capture) params_.a_samples.resize(n, patch + 1);

  // Fused im2col (DESIGN.md §13): the conv GEMM consumes patches straight
  // from the NCHW sample, so no per-sample patch matrix is ever
  // materialized; backward re-fuses from in[0]. Every sample writes
  // disjoint state (its output plane, its a_samples row), so any
  // partition is bitwise identical to the serial loop.
  const kern::PackedW pw = kern::pack_conv_forward_w(params_.w);
  par::parallel_for(
      0, n, 1,
      [&](index_t n0, index_t n1) {
        for (index_t i = n0; i < n1; ++i) {
          real_t* capture =
              ctx.capture ? params_.a_samples.row_ptr(i) : nullptr;
          kern::packed_conv_forward(pw, x.sample_ptr(i), plan_,
                                    out.sample_ptr(i), capture);
          // Sec. IV spatial sum: the augmentation column is S, so the bias
          // block of ĝ_i â_iᵀ matches Σ_p g_p [x_p; 1]ᵀ exactly.
          if (capture != nullptr) capture[patch] = static_cast<real_t>(s);
        }
      },
      "nn/conv2d_fwd",
      audit::Footprint([&](index_t n0, index_t n1, audit::WriteSet& ws) {
        ws.add_samples(out, n0, n1);
        if (ctx.capture) ws.add_rows(params_.a_samples, n0, n1);
      }));
}

void Conv2d::backward(const std::vector<const Tensor4*>& in,
                      const Tensor4& /*out*/, const Tensor4& gout,
                      const std::vector<Tensor4*>& grad_in,
                      const PassContext& ctx) {
  const ConvGeometry& geom = plan_.geom;
  const index_t n = gout.n(), oh = geom.out_h(), ow = geom.out_w();
  const index_t s = oh * ow, patch = geom.patch_size();
  Tensor4& gin = *grad_in[0];
  if (ctx.capture) params_.g_samples.resize(n, out_channels_);

  const Tensor4& x = *in[0];
  // Fused weight gradient: gw rows [o0, o1) accumulate
  // gout[i][o0:o1, :] · [cols(x_i) | 1] per sample through the packed
  // microkernel, patches regenerated on the fly. Grain 8 keeps chunk
  // boundaries aligned with the MR=8 row panels. Per gw element the
  // accumulation is sample-ascending then position-ascending regardless
  // of the channel partition — bitwise identical at any thread count
  // within the tier.
  par::parallel_for(
      0, out_channels_, 8,
      [&](index_t o0, index_t o1) {
        for (index_t i = 0; i < n; ++i)
          kern::packed_conv_wgrad(gout.sample_ptr(i), x.sample_ptr(i), plan_,
                                  params_.gw, o0, o1);
        if (ctx.capture) {
          for (index_t o = o0; o < o1; ++o)
            for (index_t i = 0; i < n; ++i) {
              const real_t* src = gout.sample_ptr(i) + o * s;
              real_t bias_acc = 0.0;
              for (index_t p = 0; p < s; ++p) bias_acc += src[p];
              params_.g_samples(i, o) = bias_acc * static_cast<real_t>(n);
            }
        }
      },
      "nn/conv2d_wgrad",
      audit::Footprint([&](index_t o0, index_t o1, audit::WriteSet& ws) {
        ws.add_rows(params_.gw, o0, o1);
        if (ctx.capture) ws.add_cols(params_.g_samples, o0, o1);
      }));

  // Fused input gradient: dcols = gout_planeᵀ · W_main against a weight
  // operand packed once per call, then col2im back into the sample plane.
  const kern::PackedW pwd = kern::pack_conv_dgrad_w(params_.w);
  par::parallel_for(
      0, n, 1,
      [&](index_t n0, index_t n1) {
        Matrix dcols;
        for (index_t i = n0; i < n1; ++i) {
          dcols.resize(s, patch);  // resize zero-fills
          kern::packed_conv_dcols(gout.sample_ptr(i), pwd, geom, dcols);
          col2im_add(dcols, plan_, gin.sample_ptr(i));
        }
      },
      "nn/conv2d_dgrad", audit::sample_block(gin));
}

}  // namespace hylo
