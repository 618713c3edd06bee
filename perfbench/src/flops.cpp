#include "flops.hpp"

#include <cmath>

#include "hylo/common/check.hpp"

namespace perfbench {

using hylo::index_t;

std::vector<LayerGeometry> layer_geometry(
    const std::vector<hylo::ParamBlock*>& blocks,
    const hylo::CaptureSet& capture) {
  HYLO_CHECK(capture.layers() == static_cast<index_t>(blocks.size()) &&
                 capture.world() > 0,
             "layer geometry needs a capture of every block");
  std::vector<LayerGeometry> out;
  out.reserve(blocks.size());
  for (std::size_t l = 0; l < blocks.size(); ++l) {
    const hylo::ParamBlock& pb = *blocks[l];
    const hylo::Matrix& a = capture.a[l].front();
    HYLO_CHECK(a.rows() > 0 && a.cols() == pb.d_in + 1,
               "capture of " << pb.name << " does not match the layer");
    LayerGeometry g;
    g.d_in = pb.d_in;
    g.d_out = pb.d_out;
    g.positions = static_cast<index_t>(std::llround(a(0, pb.d_in)));
    out.push_back(g);
  }
  return out;
}

double train_flops_per_sample(const std::vector<LayerGeometry>& layers) {
  double forward = 0.0;
  for (const auto& g : layers)
    forward += 2.0 * static_cast<double>(g.d_in) *
               static_cast<double>(g.d_out) *
               static_cast<double>(g.positions);
  return 3.0 * forward;
}

double gram_flops(double rows, double inner) {
  return 2.0 * rows * rows * inner;
}

double truncated_qr_flops(double m, double n, double r) {
  return 4.0 * m * n * r - 2.0 * r * r * (m + n) + 4.0 / 3.0 * r * r * r;
}

double lu_inverse_flops(double n) {
  return 2.0 / 3.0 * n * n * n + 2.0 * n * n * n;
}

double spd_inverse_flops(double n) {
  return 1.0 / 3.0 * n * n * n + 2.0 * n * n * n;
}

}  // namespace perfbench
