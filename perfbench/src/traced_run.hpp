#pragma once
/// \file traced_run.hpp
/// The traced run: the trainer's lockstep iteration (core/trainer.cpp,
/// run_epoch with faults, probes and recovery off) re-driven through each
/// layer's public functions, with a span around every call. With the same
/// job it performs the same arithmetic in the same order, so its per-epoch
/// train loss equals the untraced Trainer::run() bit for bit — the
/// benchmark checks that.
///
/// Span names, by layer: data.next; nn.zero_grad, nn.forward, nn.loss,
/// nn.backward (no capture), nn.backward_capture, nn.eval; dist.grad_average,
/// dist.allreduce; optim.begin_epoch, optim.refresh (update_curvature),
/// optim.accumulate, optim.step; ckpt.write (network + optimizer state +
/// SnapshotWriter::write). `step` encloses one iteration and `rank_pass`
/// one simulated rank's batch within it.

#include <optional>
#include <string>
#include <vector>

#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

struct TracedJob {
  std::vector<double> epoch_train_loss;  ///< as EpochStats::train_loss
  double test_metric = 0.0;              ///< after the last epoch
  /// Wall seconds of each epoch incl. evaluation, as in Trainer::run().
  std::vector<double> epoch_s;
  /// CPU seconds of the same epochs.
  std::vector<double> epoch_cpu_s;
  hylo::index_t iterations = 0;
  hylo::index_t nonfinite_iterations = 0;
  hylo::index_t refreshes = 0;
  hylo::index_t kid_refreshes = 0;  ///< HyLo refreshes in KID mode
  hylo::index_t rank_r = 0;         ///< HyLo global rank r (0 otherwise)
  double state_bytes = 0.0;         ///< Optimizer::state_bytes() at the end
  double wire_bytes = 0.0;          ///< CommSim::total_wire_bytes()
  double messages = 0.0;            ///< CommSim::total_messages()
  double train_flops_per_sample = 0.0;
  std::vector<double> snapshot_bytes;
  /// The first refresh's capture (moved out after update_curvature).
  std::optional<hylo::CaptureSet> capture;
};

/// Run `job` with spans recorded into `tracer`. Snapshots (workloads with a
/// cadence) go to `ckpt_dir`. A workload that never runs a capture-free
/// backward, or never snapshots, gets a few post-run passes of each so
/// every layer metric is measured (spans nn.backward_replay, ckpt.write).
TracedJob run_traced(const WorkloadSpec& spec, Job& job, Tracer& tracer,
                     const std::string& ckpt_dir);

struct LinalgReplay {
  double gram_ms = 0.0;         ///< kernel_matrix, per-rank m x m (HyLo)
  double id_ms = 0.0;           ///< row_interpolative_decomposition (KID)
  double smw_inverse_ms = 0.0;  ///< r x r kernel + lu_inverse (HyLo SMW)
  double cov_ms = 0.0;          ///< gram_tn factor covariances (KFAC)
  double spd_inverse_ms = 0.0;  ///< damped_spd_inverse of d x d (KFAC)
  double gflops = 0.0;          ///< analytic FLOPs / time over all five
  int reps = 0;
};

/// Time the public kernels HyLo and KFAC call on one refresh's capture,
/// summed over layers (and ranks), median of `reps` repetitions each.
LinalgReplay replay_linalg(const hylo::CaptureSet& capture,
                           const hylo::OptimConfig& config, int reps,
                           Tracer& tracer);

}  // namespace perfbench
