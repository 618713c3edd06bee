#pragma once
/// \file workloads.hpp
/// The benchmark's training workloads. Each is one fixed training job —
/// model, synthetic dataset, optimizer and simulated cluster — whose inputs
/// (dataset draw, label noise, loader shuffle, initial weights) come from
/// the workload seed alone. The load is a closed loop: one job per process
/// at a time, iterations back to back. The MLP jobs run two epochs, both
/// inside HyLo's KID warmup, so every seed does the same refresh work.

#include <memory>
#include <string>
#include <vector>

#include "hylo/core/trainer.hpp"
#include "hylo/data/datasets.hpp"
#include "hylo/nn/network.hpp"
#include "hylo/optim/optimizer.hpp"

namespace perfbench {

/// Every workload classifies into ten classes.
inline constexpr hylo::index_t kClasses = 10;

struct WorkloadSpec {
  std::string name;
  bool resnet = false;       ///< ResNet proxy on textures, else MLP on images
  std::string optimizer;     ///< make_optimizer() name
  hylo::index_t world = 1;   ///< P
  hylo::index_t batch = 1;   ///< per-rank m
  hylo::index_t update_freq = 1;
  hylo::index_t epochs = 1;
  hylo::index_t iters_per_epoch = 1;
  hylo::index_t n_test = 0;
  hylo::index_t snapshot_every = 0;  ///< 0 = no snapshots
  double kl_clip = 0.01;  ///< KAISA-style trust region (OptimConfig)

  hylo::index_t samples_per_iter() const { return world * batch; }
  hylo::index_t iterations() const { return epochs * iters_per_epoch; }
};

/// The workload called `name`; throws hylo::Error on an unknown name.
const WorkloadSpec& find_workload(const std::string& name);

/// Optimizer hyper-parameters of the workload's method.
hylo::OptimConfig optim_config(const WorkloadSpec& spec);

/// Everything a job's set-up builds. Heap-held so the Trainer's references
/// stay valid when the Job moves.
struct Job {
  std::unique_ptr<hylo::DataSplit> data;
  std::unique_ptr<hylo::Network> net;
  std::unique_ptr<hylo::Optimizer> opt;
  hylo::TrainConfig config;
};

/// Generate the dataset, build the model and the optimizer, and fill the
/// train config. Every environment-overridable subsystem (comm mode,
/// faults, snapshots, health probes, recovery) is pinned in the config so
/// the job runs the same whatever the environment. `ckpt_dir` receives the
/// snapshots of workloads that take them.
Job make_job(const WorkloadSpec& spec, std::uint64_t seed,
             const std::string& ckpt_dir);

}  // namespace perfbench
