#include "traced_run.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "cpu_timer.hpp"
#include "flops.hpp"
#include "hylo/ckpt/snapshot.hpp"
#include "hylo/common/check.hpp"
#include "hylo/linalg/id.hpp"
#include "hylo/linalg/kernels.hpp"
#include "hylo/linalg/lu.hpp"
#include "hylo/nn/loss.hpp"
#include "hylo/optim/hylo_optimizer.hpp"
#include "hylo/optim/second_order.hpp"
#include "hylo/tensor/ops.hpp"
#include "stats.hpp"

namespace perfbench {

using hylo::index_t;
using hylo::Matrix;
namespace fs = std::filesystem;

namespace {

constexpr int kReplayPasses = 12;

/// Trainer::evaluate(): test split in chunks of 256, eval-mode forward.
double evaluate(hylo::Network& net, const hylo::Dataset& test) {
  const hylo::PassContext ctx{.training = false, .capture = false};
  const hylo::SoftmaxCrossEntropy ce;
  const index_t n = test.size();
  const index_t chunk = 256;
  double metric_sum = 0.0;
  for (index_t start = 0; start < n; start += chunk) {
    const index_t cnt = std::min(chunk, n - start);
    hylo::Tensor4 x(cnt, test.images.c(), test.images.h(), test.images.w());
    std::copy(test.images.sample_ptr(start),
              test.images.sample_ptr(start) + cnt * test.images.sample_size(),
              x.data());
    const hylo::Tensor4& out = net.forward(x, ctx);
    const std::vector<int> labels(test.labels.begin() + start,
                                  test.labels.begin() + start + cnt);
    metric_sum += ce.evaluate(out, labels).second * static_cast<double>(cnt);
  }
  return metric_sum / static_cast<double>(n);
}

/// The trainer's snapshot payload that dominates its size — network and
/// optimizer state — written with the trainer's naming and rotation.
double write_snapshot(hylo::Network& net, hylo::Optimizer& opt,
                      const std::string& dir, index_t global_iter,
                      index_t keep) {
  hylo::ckpt::SnapshotWriter snap;
  net.serialize_state(snap.section("network"));
  opt.save_state(net, snap.section("optimizer"));
  fs::create_directories(dir);
  char name[40];
  std::snprintf(name, sizeof(name), "snapshot-%08lld.hysnp",
                static_cast<long long>(global_iter));
  const std::string path = (fs::path(dir) / name).string();
  snap.write(path);
  const double bytes = static_cast<double>(fs::file_size(path));
  hylo::ckpt::retain_last(dir, keep);
  return bytes;
}

}  // namespace

TracedJob run_traced(const WorkloadSpec& spec, Job& job, Tracer& tracer,
                     const std::string& ckpt_dir) {
  hylo::Network& net = *job.net;
  hylo::Optimizer& opt = *job.opt;
  const hylo::TrainConfig& tc = job.config;
  hylo::CommSim comm(tc.world, tc.interconnect);
  comm.set_wire_scalar_bytes(tc.wire_scalar_bytes);
  std::vector<hylo::DataLoader> loaders;
  for (index_t r = 0; r < tc.world; ++r)
    loaders.emplace_back(job.data->train, tc.batch_size, tc.data_seed, r,
                         tc.world);
  const hylo::SoftmaxCrossEntropy ce;
  const auto* hy = dynamic_cast<const hylo::HyloOptimizer*>(&opt);

  auto blocks = net.param_blocks();
  const auto layer_count = blocks.size();
  index_t grad_scalars = 0;
  for (auto* pb : blocks) grad_scalars += pb->gw.size();
  for (auto pp : net.plain_params())
    grad_scalars += static_cast<index_t>(pp.grad->size());

  TracedJob out;
  hylo::Batch batch;
  index_t global_iter = 0;
  for (index_t epoch = 0; epoch < tc.epochs; ++epoch) {
    hylo::WallTimer epoch_timer;
    CpuTimer epoch_cpu;
    {
      Scope s(tracer, "optim.begin_epoch", -1);
      opt.begin_epoch(epoch, false);
    }
    for (auto& loader : loaders) loader.start_epoch(epoch);
    const index_t iters = std::min(loaders.front().batches_per_epoch(),
                                   tc.max_iters_per_epoch);
    double loss_acc = 0.0;
    index_t rank_batches = 0;
    for (index_t it = 0; it < iters; ++it) {
      const std::int64_t g = global_iter;
      Scope step(tracer, "step", g);
      const bool capture = opt.needs_capture(global_iter);
      const hylo::PassContext ctx{.training = true, .capture = capture};
      {
        Scope s(tracer, "nn.zero_grad", g);
        net.zero_grad();
      }
      hylo::CaptureSet cap;
      if (capture) {
        cap.a.resize(layer_count);
        cap.g.resize(layer_count);
      }
      double iter_loss = 0.0;
      for (index_t rank = 0; rank < tc.world; ++rank) {
        Scope rs(tracer, "rank_pass", g);
        {
          Scope s(tracer, "data.next", g);
          HYLO_CHECK(loaders[static_cast<std::size_t>(rank)].next(batch),
                     "loader exhausted mid-epoch");
        }
        const hylo::Tensor4* logits = nullptr;
        {
          Scope s(tracer, "nn.forward", g);
          logits = &net.forward(batch.images, ctx);
        }
        hylo::LossResult lr;
        {
          Scope s(tracer, "nn.loss", g);
          lr = ce.compute(*logits, batch.labels);
        }
        iter_loss += lr.loss;
        {
          Scope s(tracer, capture ? "nn.backward_capture" : "nn.backward", g);
          net.backward(lr.grad, ctx);
        }
        if (capture) {
          for (std::size_t l = 0; l < layer_count; ++l) {
            cap.a[l].push_back(std::move(blocks[l]->a_samples));
            cap.g[l].push_back(std::move(blocks[l]->g_samples));
          }
        }
      }
      loss_acc += iter_loss;
      rank_batches += tc.world;
      if (!std::isfinite(iter_loss)) ++out.nonfinite_iterations;
      {
        Scope s(tracer, "dist.grad_average", g);
        const double inv_world = 1.0 / static_cast<double>(tc.world);
        if (tc.world > 1) {
          for (auto* pb : blocks) pb->gw *= inv_world;
          for (auto pp : net.plain_params())
            for (auto& v : *pp.grad) v *= inv_world;
        }
      }
      {
        Scope s(tracer, "dist.allreduce", g);
        comm.charge_allreduce(comm.wire_bytes(grad_scalars),
                              "comm/grad_allreduce",
                              hylo::FailMode::kRetryUntilSuccess);
      }
      if (capture) {
        {
          Scope s(tracer, "optim.refresh", g);
          opt.update_curvature(blocks, cap, &comm);
        }
        ++out.refreshes;
        if (hy != nullptr && hy->mode() == hylo::HyloMode::kKid)
          ++out.kid_refreshes;
        if (!out.capture) {
          out.train_flops_per_sample =
              train_flops_per_sample(layer_geometry(blocks, cap));
          out.capture = std::move(cap);
        }
      }
      {
        Scope s(tracer, "optim.accumulate", g);
        opt.accumulate_gradient(blocks);
      }
      {
        Scope s(tracer, "optim.step", g);
        opt.step(net, global_iter);
      }
      ++global_iter;
      if (spec.snapshot_every > 0 && global_iter % spec.snapshot_every == 0) {
        Scope s(tracer, "ckpt.write", g);
        out.snapshot_bytes.push_back(write_snapshot(
            net, opt, ckpt_dir, global_iter, tc.checkpoint.keep));
      }
    }
    out.epoch_train_loss.push_back(loss_acc /
                                   static_cast<double>(rank_batches));
    {
      Scope s(tracer, "nn.eval", -1);
      out.test_metric = evaluate(net, job.data->test);
    }
    out.epoch_s.push_back(epoch_timer.seconds());
    out.epoch_cpu_s.push_back(epoch_cpu.seconds());
  }
  out.iterations = global_iter;
  out.state_bytes = static_cast<double>(opt.state_bytes());
  out.wire_bytes = static_cast<double>(comm.total_wire_bytes());
  out.messages = static_cast<double>(comm.total_messages());
  if (hy != nullptr) out.rank_r = hy->last_rank();

  // Post-run replays (the job's results are final): measure layers the
  // workload's own loop does not exercise.
  if (tracer.durations_ms("nn.backward").empty()) {
    const hylo::PassContext ctx{.training = true, .capture = false};
    for (int i = 0; i < kReplayPasses; ++i) {
      net.zero_grad();
      const hylo::LossResult lr =
          ce.compute(net.forward(batch.images, ctx), batch.labels);
      Scope s(tracer, "nn.backward_replay", -1);
      net.backward(lr.grad, ctx);
    }
  }
  if (spec.snapshot_every == 0) {
    for (int i = 0; i < kReplayPasses; ++i) {
      Scope s(tracer, "ckpt.write", -1);
      out.snapshot_bytes.push_back(write_snapshot(
          net, opt, ckpt_dir, global_iter + i, tc.checkpoint.keep));
    }
  }
  return out;
}

LinalgReplay replay_linalg(const hylo::CaptureSet& capture,
                           const hylo::OptimConfig& config, int reps,
                           Tracer& tracer) {
  const auto layers = static_cast<std::size_t>(capture.layers());
  const auto world = static_cast<std::size_t>(capture.world());
  index_t global_m = 0;
  for (const auto& a : capture.a.front()) global_m += a.rows();
  const double inv_m = 1.0 / static_cast<double>(global_m);
  // HyLo's rank budget (hylo_optimizer.cpp): r = rank_ratio · P·m, split
  // evenly over the ranks.
  const index_t r = std::max<index_t>(
      1, static_cast<index_t>(config.rank_ratio *
                                  static_cast<double>(global_m) + 0.5));
  const index_t r_local = std::max<index_t>(1, r / capture.world());

  // Median over reps of one pass of `body` over every layer (and rank).
  // Each stage keeps its outputs as the next stage's inputs.
  auto time_stage = [&](const char* name, auto&& body) {
    std::vector<double> ms;
    for (int i = 0; i < reps; ++i) {
      const std::int64_t id = tracer.begin(name, -1);
      body();
      ms.push_back(tracer.end(id));
    }
    return median(ms);
  };

  LinalgReplay out;
  out.reps = reps;

  // HyLo (KID, Alg. 2): per-rank Gram, its row ID, then the r x r SMW core
  // of the gathered factors.
  std::vector<Matrix> grams(layers * world);
  out.gram_ms = time_stage("linalg.gram", [&] {
    for (std::size_t l = 0; l < layers; ++l)
      for (std::size_t k = 0; k < world; ++k)
        grams[l * world + k] =
            hylo::kernel_matrix(capture.a[l][k], capture.g[l][k]);
  });
  std::vector<hylo::RowId> ids(grams.size());
  out.id_ms = time_stage("linalg.id", [&] {
    for (std::size_t i = 0; i < grams.size(); ++i)
      ids[i] = hylo::row_interpolative_decomposition(
          grams[i], std::min(r_local, grams[i].rows()));
  });
  std::vector<Matrix> a_s(layers), g_s(layers);
  for (std::size_t l = 0; l < layers; ++l) {
    std::vector<Matrix> a_parts, g_parts;
    for (std::size_t k = 0; k < world; ++k) {
      a_parts.push_back(capture.a[l][k].select_rows(ids[l * world + k].rows));
      g_parts.push_back(capture.g[l][k].select_rows(ids[l * world + k].rows));
    }
    a_s[l] = hylo::vstack(a_parts);
    g_s[l] = hylo::vstack(g_parts);
  }
  out.smw_inverse_ms = time_stage("linalg.smw_inverse", [&] {
    for (std::size_t l = 0; l < layers; ++l) {
      Matrix k = hylo::kernel_matrix(a_s[l], g_s[l]);
      hylo::add_diagonal(k, config.damping);
      HYLO_CHECK(hylo::lu_inverse(k).rows() == k.rows(), "lu_inverse shape");
    }
  });

  // KFAC: d x d factor covariances over all ranks, then their damped
  // inverses.
  std::vector<Matrix> a_cov(layers), g_cov(layers);
  out.cov_ms = time_stage("linalg.cov", [&] {
    for (std::size_t l = 0; l < layers; ++l) {
      a_cov[l] = hylo::gram_tn(capture.a[l][0]);
      g_cov[l] = hylo::gram_tn(capture.g[l][0]);
      for (std::size_t k = 1; k < world; ++k) {
        a_cov[l] += hylo::gram_tn(capture.a[l][k]);
        g_cov[l] += hylo::gram_tn(capture.g[l][k]);
      }
      a_cov[l] *= inv_m;
      g_cov[l] *= inv_m;
    }
  });
  const double root = std::sqrt(config.damping);
  out.spd_inverse_ms = time_stage("linalg.spd_inverse", [&] {
    for (std::size_t l = 0; l < layers; ++l)
      HYLO_CHECK(hylo::damped_spd_inverse(a_cov[l], root).rows() ==
                         a_cov[l].rows() &&
                     hylo::damped_spd_inverse(g_cov[l], root).rows() ==
                         g_cov[l].rows(),
                 "damped_spd_inverse shape");
  });

  double flops = 0.0;
  for (std::size_t l = 0; l < layers; ++l) {
    for (std::size_t k = 0; k < world; ++k) {
      const double m = static_cast<double>(capture.a[l][k].rows());
      const double da = static_cast<double>(capture.a[l][k].cols());
      const double dg = static_cast<double>(capture.g[l][k].cols());
      flops += gram_flops(m, da) + gram_flops(m, dg) + m * m;  // kernel
      flops += truncated_qr_flops(m, m, static_cast<double>(
                                            ids[l * world + k].rank));
      flops += gram_flops(da, m) + gram_flops(dg, m);  // covariances
    }
    const double rr = static_cast<double>(a_s[l].rows());
    flops += gram_flops(rr, static_cast<double>(a_s[l].cols())) +
             gram_flops(rr, static_cast<double>(g_s[l].cols())) + rr * rr +
             lu_inverse_flops(rr);
    flops += spd_inverse_flops(static_cast<double>(a_cov[l].rows())) +
             spd_inverse_flops(static_cast<double>(g_cov[l].rows()));
  }
  const double total_ms = out.gram_ms + out.id_ms + out.smw_inverse_ms +
                          out.cov_ms + out.spd_inverse_ms;
  out.gflops = flops / (total_ms * 1e-3) / 1e9;
  return out;
}

}  // namespace perfbench
