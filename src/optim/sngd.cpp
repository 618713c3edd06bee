#include "hylo/optim/sngd.hpp"

#include "hylo/ckpt/snapshot.hpp"
#include "hylo/linalg/kernels.hpp"
#include "hylo/obs/health.hpp"
#include "hylo/par/thread_pool.hpp"
#include "hylo/tensor/ops.hpp"

namespace hylo {

Sngd::Sngd(OptimConfig cfg)
    : CurvatureOptimizer(cfg),
      txn_(
          "sngd", cfg.guard_gates,
          [this](index_t l, const LayerState& c) -> GuardPairs {
            const LayerState& st = layers_[static_cast<std::size_t>(l)];
            return {{&c.a_glob, &st.a_glob},
                    {&c.g_glob, &st.g_glob},
                    {&c.kernel_chol, &st.kernel_chol}};
          },
          [this](index_t l, LayerState&& c) {
            layers_[static_cast<std::size_t>(l)] = std::move(c);
          }) {
  bind_refresh(txn_);
}

void Sngd::update_curvature(const std::vector<ParamBlock*>& blocks,
                            const CaptureSet& capture, CommSim* comm) {
  const index_t layers = capture.layers();
  HYLO_CHECK(layers == static_cast<index_t>(blocks.size()),
             "capture/block count mismatch");
  if (static_cast<index_t>(layers_.size()) != layers)
    layers_.resize(static_cast<std::size_t>(layers));
  txn_.resize(layers);
  txn_.begin(comm);

  // Stage 1 (parallel across layers): assemble the global factors — bitwise
  // equal to the modeled allgather result — and invert each layer's kernel.
  // Pure compute on disjoint per-layer *candidate* state; the comm model is
  // charged afterwards, serially, so its trace is unchanged by threading,
  // and candidates commit only once their collectives landed.
  // hylo-scratch-begin(sngd_update)
  std::vector<LayerState> cand(static_cast<std::size_t>(layers));
  std::vector<double> inv_s(static_cast<std::size_t>(layers), 0.0);
  par::parallel_for(
      0, layers, 1,
      [&](index_t l0, index_t l1) {
        for (index_t l = l0; l < l1; ++l) {
          LayerState& st = cand[static_cast<std::size_t>(l)];
          const auto& a_ranks = capture.a[static_cast<std::size_t>(l)];
          const auto& g_ranks = capture.g[static_cast<std::size_t>(l)];
          st.a_glob = vstack(a_ranks);
          st.g_glob = vstack(g_ranks);

          // Kernel inversion at global-batch dimension (step 3).
          WallTimer timer;
          const Matrix k = kernel_matrix(st.a_glob, st.g_glob);
          st.kernel_chol = damped_cholesky(k, cfg_.damping);
          inv_s[static_cast<std::size_t>(l)] = timer.seconds();
        }
      },
      "optim/sngd/layers",
      audit::Footprint([&](index_t l0, index_t l1, audit::WriteSet& ws) {
        ws.add_range(cand.data(), l0, l1);
        ws.add_range(inv_s.data(), l0, l1);
      }));

  // Stage 2 (serial, layer order): gathers of the raw per-sample matrices
  // (step 2 of Fig. 1) and broadcast of each inverted kernel (step 4) —
  // the exact charge sequence of the serial implementation. Lockstep
  // settles each layer as soon as its links are charged; a layer whose
  // gather or broadcast is lost keeps its previous factors.
  double inv_total = 0.0, inv_max = 0.0;
  for (index_t l = 0; l < layers; ++l) {
    const double sec = inv_s[static_cast<std::size_t>(l)];
    LayerState& c = txn_.open(l, std::move(cand[static_cast<std::size_t>(l)]));
    if (txn_.allgather(comm, capture.a[static_cast<std::size_t>(l)],
                       {&c.a_glob}) &&
        txn_.allgather(comm, capture.g[static_cast<std::size_t>(l)],
                       {&c.g_glob})) {
      // The kernel inversion is booked once its gathers landed (async:
      // once they were issued).
      if (comm != nullptr) {
        inv_total += sec;
        inv_max = std::max(inv_max, sec);
        comm->profiler().registry().histogram("optim/sngd/inversion_seconds")
            .observe(sec);
      }
      // Broadcast of the inverted kernel (step 4): (P·m)² scalars.
      txn_.broadcast(comm, c.a_glob.rows() * c.a_glob.rows(),
                     {&c.kernel_chol});
    }
    txn_.close(comm);
    // hylo-commit-begin(sngd_update)
    txn_.settle(comm);
    // hylo-commit-end(sngd_update)
  }
  if (comm != nullptr) {
    comm->profiler().add("comp/inversion", inv_total);
    comm->profiler().add("comp/inversion_critical", inv_max);
  }
  // hylo-scratch-end(sngd_update)

  // Health probes over the committed (served) state. The exact SNGD kernel
  // has no rank truncation, so energy_fraction stays NaN (not applicable).
  probe_layers([&](index_t l, obs::LayerHealth& h) {
    const LayerState& st = layers_[static_cast<std::size_t>(l)];
    h.cond = obs::cond_from_cholesky(st.kernel_chol);
    h.nonfinite = obs::count_nonfinite(st.a_glob) +
                  obs::count_nonfinite(st.g_glob) +
                  obs::count_nonfinite(st.kernel_chol);
  });
}

Matrix Sngd::preconditioned(const Matrix& grad, index_t layer) const {
  HYLO_CHECK(layer >= 0 && layer < static_cast<index_t>(layers_.size()),
             "SNGD layer " << layer << " unknown");
  const LayerState& st = layers_[static_cast<std::size_t>(layer)];
  HYLO_CHECK(layer_ready(layer),
             "SNGD layer " << layer << " has no curvature yet");
  const Matrix uv = apply_jacobian(st.a_glob, st.g_glob, grad);
  const Matrix y = cholesky_solve(st.kernel_chol, uv);
  Matrix out = grad - apply_jacobian_t(st.a_glob, st.g_glob, y);
  out *= 1.0 / cfg_.damping;
  return out;
}

void Sngd::precondition_block(ParamBlock& pb, index_t layer) {
  pb.gw = preconditioned(pb.gw, layer);
}

index_t Sngd::state_bytes() const {
  index_t scalars = 0;
  for (const auto& st : layers_)
    scalars += st.a_glob.size() + st.g_glob.size() + st.kernel_chol.size();
  return scalars * static_cast<index_t>(sizeof(real_t)) + momentum_bytes();
}

void Sngd::LayerState::save(ckpt::ByteWriter& w) const {
  w.matrix(a_glob);
  w.matrix(g_glob);
  w.matrix(kernel_chol);
}

void Sngd::LayerState::load(ckpt::ByteReader& r) {
  a_glob = r.matrix();
  g_glob = r.matrix();
  kernel_chol = r.matrix();
}

void Sngd::save_state(Network& net, ckpt::ByteWriter& w) const {
  Optimizer::save_state(net, w);
  save_layers(w, layers_);
  txn_.save(w);
}

void Sngd::load_state(Network& net, ckpt::ByteReader& r) {
  Optimizer::load_state(net, r);
  load_layers(r, layers_);
  txn_.load(r);
}

}  // namespace hylo
