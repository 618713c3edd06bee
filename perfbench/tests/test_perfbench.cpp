// Tests for the benchmark's own statistics, its FLOP counter and its span
// recorder.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "flops.hpp"
#include "hylo/common/check.hpp"
#include "hylo/common/rng.hpp"
#include "hylo/models/zoo.hpp"
#include "hylo/nn/loss.hpp"
#include "stats.hpp"
#include "tracer.hpp"

namespace perfbench {
namespace {

std::vector<double> iota(std::size_t n) {  // 1, 2, ..., n shuffled
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  for (std::size_t i = 0; i < n; ++i) std::swap(v[i], v[(i * 7919) % n]);
  return v;
}

TEST(Stats, MedianOddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median(iota(101)), 51.0);
  EXPECT_TRUE(std::isnan(median({})));
}

TEST(Stats, TailIsHighestLadderPercentileWithTenBeyond) {
  // n = 1000: p99 is rank 990 with 10 beyond; p99.9 would leave 1.
  Tail t = tail(iota(1000));
  EXPECT_DOUBLE_EQ(t.percentile, 99.0);
  EXPECT_DOUBLE_EQ(t.value, 990.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.samples, 1000u);

  // n = 200: p99 leaves 2, p95 (rank 190) leaves exactly 10.
  t = tail(iota(200));
  EXPECT_DOUBLE_EQ(t.percentile, 95.0);
  EXPECT_DOUBLE_EQ(t.value, 190.0);
  EXPECT_EQ(t.beyond, 10u);

  // n = 199: p95 is rank ceil(189.05) = 190, leaving 9 — fall to p90.
  t = tail(iota(199));
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
  EXPECT_DOUBLE_EQ(t.value, 180.0);
  EXPECT_EQ(t.beyond, 19u);

  // n = 20: only the median leaves ten beyond.
  t = tail(iota(20));
  EXPECT_DOUBLE_EQ(t.percentile, 50.0);
  EXPECT_DOUBLE_EQ(t.value, 10.0);
  EXPECT_EQ(t.beyond, 10u);
}

TEST(Stats, TailFallsBackToMaximumBelowTwentySamples) {
  const Tail t = tail(iota(19));
  EXPECT_DOUBLE_EQ(t.percentile, 100.0);
  EXPECT_DOUBLE_EQ(t.value, 19.0);
  EXPECT_EQ(t.beyond, 0u);
  EXPECT_EQ(t.samples, 19u);
  const Tail empty = tail({});
  EXPECT_EQ(empty.samples, 0u);
  EXPECT_TRUE(std::isnan(empty.value));
}

TEST(Stats, RecordsCarrySampleCountsAndTailRank) {
  MetricSet m;
  m.add_p50("a_ms_p50", iota(50), "ms");
  m.add_tail("a_ms_tail", iota(50), "ms");
  m.add("count", 7.0, "count");

  const auto& p50 = m.detail.at("a_ms_p50");
  EXPECT_DOUBLE_EQ(p50.at("value").number(), 25.5);
  EXPECT_EQ(p50.at("unit").str(), "ms");
  EXPECT_DOUBLE_EQ(p50.at("samples").number(), 50.0);
  const auto& t = m.detail.at("a_ms_tail");
  EXPECT_DOUBLE_EQ(t.at("percentile").number(), 75.0);  // rank 38
  EXPECT_DOUBLE_EQ(t.at("value").number(), 38.0);
  EXPECT_DOUBLE_EQ(t.at("beyond").number(), 12.0);
  EXPECT_DOUBLE_EQ(t.at("samples").number(), 50.0);

  // The result line carries exactly value and unit.
  const auto& r = m.result.at("a_ms_tail");
  EXPECT_EQ(r.size(), 2u);
  EXPECT_DOUBLE_EQ(r.at("value").number(), 38.0);
  EXPECT_EQ(r.at("unit").str(), "ms");
  EXPECT_EQ(m.result.size(), 3u);
}

TEST(Stats, RejectsNonFiniteMetric) {
  MetricSet m;
  EXPECT_THROW(m.add_p50("empty", {}, "ms"), hylo::Error);
  EXPECT_EQ(m.result.size(), 0u);
}

/// One captured forward/backward of `m` random samples, returning the
/// network's layer geometry.
std::vector<LayerGeometry> captured_geometry(hylo::Network& net, hylo::Shape in,
                                             hylo::index_t m) {
  hylo::Rng rng(7);
  hylo::Tensor4 x(m, in.c, in.h, in.w);
  for (hylo::index_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal();
  std::vector<int> labels(static_cast<std::size_t>(m));
  for (std::size_t i = 0; i < labels.size(); ++i)
    labels[i] = static_cast<int>(i % 10);
  const hylo::PassContext ctx{.training = true, .capture = true};
  const hylo::LossResult lr =
      hylo::SoftmaxCrossEntropy().compute(net.forward(x, ctx), labels);
  net.backward(lr.grad, ctx);
  auto blocks = net.param_blocks();
  hylo::CaptureSet cap;
  for (auto* pb : blocks) {
    cap.a.push_back({pb->a_samples});
    cap.g.push_back({pb->g_samples});
  }
  return layer_geometry(blocks, cap);
}

TEST(Flops, ResNetProxyMatchesHandCount) {
  hylo::Network net = hylo::make_resnet({3, 16, 16}, 10, 2, 8, 1);
  const auto geo = captured_geometry(net, {3, 16, 16}, 16);
  // Forward MACs x2 per sample, by hand: stem 3->8 at 16x16 (110592);
  // stage 1, four 8->8 3x3 convs at 16x16 (4 x 294912); stage 2 at 8x8:
  // 8->16 3x3 (147456), three 16->16 3x3 (3 x 294912), 1x1 shortcut
  // (16384); stage 3 at 4x4: 16->32 (147456), three 32->32 (3 x 294912),
  // shortcut (16384); fc 32->10 (640). Total 3388032.
  const double forward = 3388032.0;
  EXPECT_DOUBLE_EQ(train_flops_per_sample(geo), 3.0 * forward);
  // 163 MFLOP per rank-step at m = 16.
  EXPECT_NEAR(16.0 * train_flops_per_sample(geo) / 1e6, 163.0, 0.5);
  EXPECT_EQ(geo.front().positions, 256);  // stem at 16x16
  EXPECT_EQ(geo.back().positions, 1);     // fc head
}

TEST(Flops, MlpMatchesHandCount) {
  hylo::Network net = hylo::make_mlp({1, 16, 16}, {256, 256}, 10, 1);
  const auto geo = captured_geometry(net, {1, 16, 16}, 4);
  // 2·(256·256 + 256·256 + 256·10) forward, x3 for training: ~0.8 MFLOP.
  EXPECT_DOUBLE_EQ(train_flops_per_sample(geo), 3.0 * 2.0 * 133632.0);
  EXPECT_NEAR(train_flops_per_sample(geo) / 1e6, 0.8, 0.01);
}

TEST(Flops, KernelCounts) {
  EXPECT_DOUBLE_EQ(gram_flops(4, 3), 96.0);
  EXPECT_DOUBLE_EQ(lu_inverse_flops(3), 72.0);
  EXPECT_DOUBLE_EQ(spd_inverse_flops(3), 63.0);
  // A full-rank QR of an n x n matrix costs 4n³/3.
  EXPECT_NEAR(truncated_qr_flops(6, 6, 6), 4.0 / 3.0 * 216.0, 1e-9);
}

TEST(Tracer, SpansNestWithParentsAndIterations) {
  Tracer tr;
  {
    Scope step(tr, "step", 3);
    { Scope inner(tr, "nn.forward", 3); }
    { Scope inner(tr, "nn.forward", 3); }
  }
  { Scope other(tr, "nn.eval", -1); }
  const auto& spans = tr.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[2].parent, spans[0].id);
  EXPECT_EQ(spans[3].parent, -1);
  EXPECT_EQ(spans[1].iter, 3);
  EXPECT_EQ(tr.durations_ms("nn.forward").size(), 2u);
  EXPECT_LE(tr.total_ms("nn.forward"), tr.total_ms("step"));
  for (const auto& s : spans) EXPECT_GE(s.end_us, s.start_us);
}

}  // namespace
}  // namespace perfbench
