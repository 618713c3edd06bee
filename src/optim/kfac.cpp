#include "hylo/optim/kfac.hpp"

#include <cmath>

#include "hylo/ckpt/snapshot.hpp"
#include "hylo/linalg/eigh.hpp"
#include "hylo/obs/health.hpp"
#include "hylo/tensor/ops.hpp"

namespace hylo {

namespace {
// π-corrected Tikhonov split of the damping between the two Kronecker
// factors (Martens & Grosse §6.3): π = sqrt((tr A / dim A)/(tr G / dim G)).
real_t pi_correction(const Matrix& a, const Matrix& g) {
  const real_t ta = trace(a) / static_cast<real_t>(a.rows());
  const real_t tg = trace(g) / static_cast<real_t>(g.rows());
  if (!(ta > 0.0) || !(tg > 0.0)) return 1.0;
  return std::sqrt(ta / tg);
}

// Mean per-sample Gram matrix Σ_r X_rᵀX_r / Σ_r m_r over the ranks' rows.
Matrix mean_gram(const std::vector<Matrix>& ranks) {
  index_t m_total = 0;
  Matrix f;
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    m_total += ranks[r].rows();
    if (r == 0)
      f = gram_tn(ranks[r]);
    else
      f += gram_tn(ranks[r]);
  }
  HYLO_CHECK(m_total > 0, "empty capture");
  f *= 1.0 / static_cast<real_t>(m_total);
  return f;
}

// Stat-decay blend of a fresh estimate into a running one:
// decay·prev + (1−decay)·fresh, or `fresh` while nothing is committed yet.
Matrix blend(const Matrix& prev, Matrix fresh, real_t decay) {
  if (prev.empty()) return fresh;
  Matrix run = prev;
  run *= decay;
  axpy(run, fresh, 1.0 - decay);
  return run;
}
}  // namespace

KFac::KFac(OptimConfig cfg, const char* method)
    : CurvatureOptimizer(cfg),
      txn_(
          method, cfg.guard_gates,
          [this](index_t l, const LayerState& c) -> GuardPairs {
            const LayerState& st = layers_[static_cast<std::size_t>(l)];
            return {{&c.a_factor, &st.a_factor}, {&c.g_factor, &st.g_factor},
                    {&c.a_inv, &st.a_inv},       {&c.g_inv, &st.g_inv},
                    {&c.v_a, &st.v_a},           {&c.v_g, &st.v_g},
                    {&c.scaling, &st.scaling}};
          },
          [this](index_t l, LayerState&& c) {
            LayerState& st = layers_[static_cast<std::size_t>(l)];
            // Lockstep candidates carry no factors: refresh_factors
            // already committed the ones that landed.
            if (!c.a_factor.empty()) {
              st.a_factor = std::move(c.a_factor);
              st.g_factor = std::move(c.g_factor);
            }
            st.a_inv = std::move(c.a_inv);
            st.g_inv = std::move(c.g_inv);
            st.v_a = std::move(c.v_a);
            st.v_g = std::move(c.v_g);
            st.scaling = std::move(c.scaling);
          }) {
  bind_refresh(txn_);
}

std::vector<std::pair<Matrix, Matrix>> KFac::factor_candidates(
    const std::vector<ParamBlock*>& blocks, const CaptureSet& capture,
    CommSim* comm) {
  const index_t layers = capture.layers();
  HYLO_CHECK(layers == static_cast<index_t>(blocks.size()),
             "capture/block count mismatch");
  if (static_cast<index_t>(layers_.size()) != layers) layers_.resize(static_cast<std::size_t>(layers));

  WallTimer timer;
  std::vector<std::pair<Matrix, Matrix>> cand(static_cast<std::size_t>(layers));
  for (std::size_t l = 0; l < cand.size(); ++l) {
    cand[l].first = blend(layers_[l].a_factor, mean_gram(capture.a[l]),
                          cfg_.stat_decay);
    cand[l].second = blend(layers_[l].g_factor, mean_gram(capture.g[l]),
                           cfg_.stat_decay);
  }
  if (comm != nullptr)
    comm->profiler().add("comp/factorization", timer.seconds());
  return cand;
}

std::vector<char> KFac::refresh_factors(const std::vector<ParamBlock*>& blocks,
                                        const CaptureSet& capture,
                                        CommSim* comm) {
  // Compute the merged running factors into candidates first; each layer's
  // candidate replaces the running state only once its factor allreduce
  // landed, so a lost collective keeps the previous statistics.
  // hylo-scratch-begin(kfac_factors)
  std::vector<std::pair<Matrix, Matrix>> cand =
      factor_candidates(blocks, capture, comm);
  std::vector<char> lost(cand.size(), 0);
  for (std::size_t l = 0; comm != nullptr && l < cand.size(); ++l) {
    auto& [a_new, g_new] = cand[l];
    lost[l] = !RefreshTxnBase::charge(
                  *comm, LinkKind::kAllreduce,
                  {comm->wire_bytes(a_new.size() + g_new.size())},
                  {&a_new, &g_new}) ||
              !refresh().guard(*comm, static_cast<index_t>(l),
                               {{&a_new, &layers_[l].a_factor},
                                {&g_new, &layers_[l].g_factor}});
  }
  // hylo-commit-begin(kfac_factors)
  for (std::size_t l = 0; l < cand.size(); ++l) {
    if (lost[l]) continue;
    layers_[l].a_factor = std::move(cand[l].first);
    layers_[l].g_factor = std::move(cand[l].second);
  }
  // hylo-commit-end(kfac_factors)
  // hylo-scratch-end(kfac_factors)
  return lost;
}

void KFac::update_curvature(const std::vector<ParamBlock*>& blocks,
                            const CaptureSet& capture, CommSim* comm) {
  const bool async = comm != nullptr && comm->async();
  txn_.begin(comm);
  txn_.resize(capture.layers());
  // Lockstep charges phase-major: refresh_factors lands every factor
  // allreduce first, then each layer builds its basis from its *committed*
  // factors and broadcasts it. Async builds the basis from the candidate
  // factors and issues one allreduce→broadcast chain per layer, so a lost
  // chain keeps the old factors *and* the old basis (never half-new).
  // Per-layer timing: the total is the cluster-wide inversion work (layers
  // are distributed over owners), the max single layer is the critical path
  // when P exceeds the layer count.
  // hylo-scratch-begin(kfac_update)
  std::vector<std::pair<Matrix, Matrix>> factors;
  std::vector<char> lost(static_cast<std::size_t>(capture.layers()), 0);
  if (async)
    factors = factor_candidates(blocks, capture, comm);
  else
    lost = refresh_factors(blocks, capture, comm);
  const std::string histogram =
      std::string("optim/") + txn_.method() + "/inversion_seconds";
  double inv_total = 0.0, inv_max = 0.0;
  std::vector<LayerState> cand(layers_.size());
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    LayerState& c = cand[l];
    if (async) {
      c.a_factor = std::move(factors[l].first);
      c.g_factor = std::move(factors[l].second);
    }
    const LayerState& src = async ? c : layers_[l];
    WallTimer timer;
    if (!build_basis(static_cast<index_t>(l), src.a_factor, src.g_factor,
                     capture, c)) {
      lost[l] = 1;
      continue;
    }
    const double sec = timer.seconds();
    inv_total += sec;
    inv_max = std::max(inv_max, sec);
    if (comm != nullptr)
      comm->profiler().registry().histogram(histogram).observe(sec);
  }
  if (comm != nullptr) {
    comm->profiler().add("comp/inversion", inv_total);
    comm->profiler().add("comp/inversion_critical", inv_max);
  }
  for (std::size_t l = 0; l < cand.size(); ++l) {
    LayerState& c = txn_.open(static_cast<index_t>(l), std::move(cand[l]),
                              lost[l] != 0);
    if (async)
      txn_.allreduce(comm, c.a_factor.size() + c.g_factor.size(),
                     {&c.a_factor, &c.g_factor});
    // Only the method's own basis matrices are non-empty.
    txn_.broadcast(comm,
                   c.a_inv.size() + c.g_inv.size() + c.v_a.size() +
                       c.v_g.size() + c.scaling.size(),
                   {&c.a_inv, &c.g_inv, &c.v_a, &c.v_g, &c.scaling});
    txn_.close(comm);
  }
  // hylo-commit-begin(kfac_update)
  txn_.settle(comm);
  // hylo-commit-end(kfac_update)
  // hylo-scratch-end(kfac_update)

  probe_health();
}

bool KFac::build_basis(index_t /*l*/, const Matrix& a, const Matrix& g,
                       const CaptureSet& /*capture*/, LayerState& c) const {
  const real_t pi = pi_correction(a, g);
  const real_t root = std::sqrt(cfg_.damping);
  c.a_inv = damped_spd_inverse(a, pi * root);
  c.g_inv = damped_spd_inverse(g, root / pi);
  return true;
}

// Health probes over the served Kronecker factor pairs: κ∞ estimates come
// free from the factor/inverse pairs already held. No rank truncation, so
// energy_fraction stays NaN.
void KFac::probe_health() {
  probe_layers([&](index_t l, obs::LayerHealth& h) {
    const LayerState& st = layers_[static_cast<std::size_t>(l)];
    h.cond_a = obs::cond_from_pair(st.a_factor, st.a_inv);
    h.cond_g = obs::cond_from_pair(st.g_factor, st.g_inv);
    h.nonfinite = obs::count_nonfinite(st.a_inv) +
                  obs::count_nonfinite(st.g_inv);
  });
}

void KFac::precondition_block(ParamBlock& pb, index_t layer) {
  const LayerState& st = layers_[static_cast<std::size_t>(layer)];
  pb.gw = matmul(st.g_inv, matmul(pb.gw, st.a_inv));
}

index_t KFac::state_bytes() const {
  index_t scalars = 0;
  for (const auto& st : layers_)
    scalars += st.a_factor.size() + st.g_factor.size() + st.a_inv.size() +
               st.g_inv.size() + st.v_a.size() + st.v_g.size() +
               st.scaling.size();
  return scalars * static_cast<index_t>(sizeof(real_t)) + momentum_bytes();
}

// ------------------------------------------------------------- EKFac ----

bool EKFac::build_basis(index_t l, const Matrix& a, const Matrix& g,
                        const CaptureSet& capture, LayerState& c) const {
  // A layer whose factor allreduce has *never* landed (lost on the first
  // lockstep refresh) has empty running factors: eigh would hand back a 0x0
  // basis and the capture projection would die on a gemm shape mismatch.
  // Skip the rebuild — the layer degrades to stale.
  if (a.size() == 0 || g.size() == 0) return false;
  c.v_a = eigh(a).eigenvectors;
  c.v_g = eigh(g).eigenvectors;

  // Per-entry second moments in the eigenbasis:
  // s_{oj} = E_i[(V_gᵀ g_i)_o² (a_iᵀ V_a)_j²].
  const auto& a_ranks = capture.a[static_cast<std::size_t>(l)];
  const auto& g_ranks = capture.g[static_cast<std::size_t>(l)];
  Matrix s_new(c.v_g.cols(), c.v_a.cols());
  index_t m_total = 0;
  for (std::size_t r = 0; r < a_ranks.size(); ++r) {
    Matrix pa = matmul(a_ranks[r], c.v_a);  // m x (d_in+1)
    Matrix pg = matmul(g_ranks[r], c.v_g);  // m x d_out
    hadamard_inplace(pa, pa);
    hadamard_inplace(pg, pg);
    gemm_tn(pg, pa, s_new, 1.0, 1.0);
    m_total += a_ranks[r].rows();
  }
  s_new *= 1.0 / static_cast<real_t>(m_total);
  c.scaling = blend(layers_[static_cast<std::size_t>(l)].scaling,
                    std::move(s_new), cfg_.stat_decay);
  return true;
}

// Health probes: the damped eigenbasis scalings are exactly the spectrum
// the preconditioner divides by, so their spread is the served condition
// number — no extra factorization work.
void EKFac::probe_health() {
  probe_layers([&](index_t l, obs::LayerHealth& h) {
    const LayerState& st = layers_[static_cast<std::size_t>(l)];
    if (st.scaling.empty()) return;
    real_t lo = st.scaling[0], hi = st.scaling[0];
    for (index_t i = 0; i < st.scaling.size(); ++i) {
      lo = std::min(lo, st.scaling[i]);
      hi = std::max(hi, st.scaling[i]);
    }
    h.cond = (hi + cfg_.damping) / (lo + cfg_.damping);
    h.nonfinite = obs::count_nonfinite(st.v_a) + obs::count_nonfinite(st.v_g) +
                  obs::count_nonfinite(st.scaling);
  });
}

void EKFac::precondition_block(ParamBlock& pb, index_t layer) {
  const LayerState& st = layers_[static_cast<std::size_t>(layer)];
  // Project, rescale by the damped second moments, project back.
  Matrix t = matmul(matmul_tn(st.v_g, pb.gw), st.v_a);
  for (index_t i = 0; i < t.rows(); ++i)
    for (index_t j = 0; j < t.cols(); ++j)
      t(i, j) /= st.scaling(i, j) + cfg_.damping;
  pb.gw = matmul_nt(matmul(st.v_g, t), st.v_a);
}

// ------------------------------------------------------------- KBfgs ----

KBfgs::KBfgs(OptimConfig cfg)
    : CurvatureOptimizer(cfg),
      txn_(
          "kbfgs", cfg.guard_gates,
          [this](index_t l, const LayerState& c) -> GuardPairs {
            const LayerState& st = layers_[static_cast<std::size_t>(l)];
            return {{&c.a_factor, &st.a_factor},
                    {&c.g_factor, &st.g_factor},
                    {&c.a_inv, &st.a_inv}};
          },
          [this](index_t l, LayerState&& c) {
            layers_[static_cast<std::size_t>(l)] = std::move(c);
          }) {
  bind_refresh(txn_);
}

std::vector<KBfgs::LayerState> KBfgs::build_candidates(
    const CaptureSet& capture) {
  const index_t layers = capture.layers();
  std::vector<LayerState> cand(static_cast<std::size_t>(layers));
  for (index_t l = 0; l < layers; ++l) {
    const auto& a_ranks = capture.a[static_cast<std::size_t>(l)];
    const auto& g_ranks = capture.g[static_cast<std::size_t>(l)];
    LayerState& st = cand[static_cast<std::size_t>(l)];
    st = layers_[static_cast<std::size_t>(l)];
    st.a_factor = blend(st.a_factor, mean_gram(a_ranks), cfg_.stat_decay);
    st.g_factor = blend(st.g_factor, mean_gram(g_ranks), cfg_.stat_decay);
    index_t m_total = 0;
    Matrix g_mean(g_ranks[0].cols(), 1);
    for (const Matrix& g : g_ranks) {
      m_total += g.rows();
      for (index_t i = 0; i < g.rows(); ++i)
        for (index_t o = 0; o < g.cols(); ++o) g_mean[o] += g(i, o);
    }
    g_mean *= 1.0 / static_cast<real_t>(m_total);

    // (L-)BFGS pair from the change in the mean per-sample gradient, with
    // curvature synthesized through the damped G factor: y = (C_g + γI)s.
    if (!st.g_mean_prev.empty()) {
      const Matrix s = g_mean - st.g_mean_prev;
      const real_t s_norm = frobenius_norm(s);
      if (s_norm > 1e-12) {
        Matrix y = matmul(st.g_factor, s);
        axpy(y, s, cfg_.damping);
        const real_t sy = dot(s, y);
        if (sy > 1e-12 * s_norm * frobenius_norm(y)) {
          st.sy_pairs.emplace_back(
              std::vector<real_t>(s.data(), s.data() + s.size()),
              std::vector<real_t>(y.data(), y.data() + y.size()));
          while (static_cast<index_t>(st.sy_pairs.size()) > cfg_.bfgs_memory)
            st.sy_pairs.pop_front();
          st.h0_scale = sy / dot(y, y);
        }
      }
    }
    st.g_mean_prev = g_mean;
  }
  return cand;
}

// Health probes: κ∞ of the input-side factor via the held inverse pair
// (the G side is applied through the BFGS recursion, no inverse to read).
void KBfgs::probe_health() {
  probe_layers([&](index_t l, obs::LayerHealth& h) {
    const LayerState& st = layers_[static_cast<std::size_t>(l)];
    h.cond_a = obs::cond_from_pair(st.a_factor, st.a_inv);
    h.nonfinite = obs::count_nonfinite(st.a_inv) +
                  obs::count_nonfinite(st.g_factor);
  });
}

void KBfgs::update_curvature(const std::vector<ParamBlock*>& blocks,
                             const CaptureSet& capture, CommSim* comm) {
  const index_t layers = capture.layers();
  HYLO_CHECK(layers == static_cast<index_t>(blocks.size()),
             "capture/block count mismatch");
  if (static_cast<index_t>(layers_.size()) != layers)
    layers_.resize(static_cast<std::size_t>(layers));
  txn_.resize(layers);
  txn_.begin(comm);

  // Each layer's whole refresh (running factors, inverse, BFGS pair) is
  // built on a candidate copy and swapped in only after the layer's
  // allreduce→broadcast landed, so a lost collective keeps the previous
  // curvature intact — including the (s, y) history. Lockstep charges
  // layer-major and stops a layer at its first lost collective.
  // hylo-scratch-begin(kbfgs_update)
  WallTimer factor_timer;
  std::vector<LayerState> cand = build_candidates(capture);
  if (comm != nullptr)
    comm->profiler().add("comp/factorization", factor_timer.seconds());
  // Each layer's input-factor inverse is timed on its own and booked once
  // the allreduce feeding it landed (async: once it was issued).
  const std::string histogram =
      std::string("optim/") + txn_.method() + "/inversion_seconds";
  double inv_max = 0.0;
  for (index_t l = 0; l < layers; ++l) {
    LayerState& st = cand[static_cast<std::size_t>(l)];
    WallTimer inv_timer;
    st.a_inv = damped_spd_inverse(st.a_factor, cfg_.damping);
    const double inv_s = inv_timer.seconds();
    LayerState& c = txn_.open(l, std::move(st));
    if (txn_.allreduce(comm, c.a_factor.size() + c.g_factor.size(),
                       {&c.a_factor, &c.g_factor})) {
      if (comm != nullptr) {
        comm->profiler().add("comp/inversion", inv_s);
        inv_max = std::max(inv_max, inv_s);
        comm->profiler().registry().histogram(histogram).observe(inv_s);
      }
      txn_.broadcast(comm, c.a_inv.size(), {&c.a_inv});
    }
    txn_.close(comm);
  }
  if (comm != nullptr)
    comm->profiler().add("comp/inversion_critical", inv_max);
  // hylo-commit-begin(kbfgs_update)
  txn_.settle(comm);
  // hylo-commit-end(kbfgs_update)
  // hylo-scratch-end(kbfgs_update)

  probe_health();
}

void KBfgs::apply_hg(const LayerState& st, Matrix& m) const {
  const index_t n = m.rows(), cols = m.cols();
  const index_t k = static_cast<index_t>(st.sy_pairs.size());
  std::vector<real_t> q(static_cast<std::size_t>(n));
  std::vector<real_t> alpha(static_cast<std::size_t>(k));
  for (index_t c = 0; c < cols; ++c) {
    for (index_t i = 0; i < n; ++i) q[static_cast<std::size_t>(i)] = m(i, c);
    // Two-loop recursion.
    for (index_t j = k; j-- > 0;) {
      const auto& [s, y] = st.sy_pairs[static_cast<std::size_t>(j)];
      real_t sy = 0.0, sq = 0.0;
      for (index_t i = 0; i < n; ++i) {
        sy += s[static_cast<std::size_t>(i)] * y[static_cast<std::size_t>(i)];
        sq += s[static_cast<std::size_t>(i)] * q[static_cast<std::size_t>(i)];
      }
      const real_t a = sq / sy;
      alpha[static_cast<std::size_t>(j)] = a;
      for (index_t i = 0; i < n; ++i)
        q[static_cast<std::size_t>(i)] -= a * y[static_cast<std::size_t>(i)];
    }
    for (index_t i = 0; i < n; ++i) q[static_cast<std::size_t>(i)] *= st.h0_scale;
    for (index_t j = 0; j < k; ++j) {
      const auto& [s, y] = st.sy_pairs[static_cast<std::size_t>(j)];
      real_t sy = 0.0, yq = 0.0;
      for (index_t i = 0; i < n; ++i) {
        sy += s[static_cast<std::size_t>(i)] * y[static_cast<std::size_t>(i)];
        yq += y[static_cast<std::size_t>(i)] * q[static_cast<std::size_t>(i)];
      }
      const real_t b = yq / sy;
      for (index_t i = 0; i < n; ++i)
        q[static_cast<std::size_t>(i)] +=
            (alpha[static_cast<std::size_t>(j)] - b) * s[static_cast<std::size_t>(i)];
    }
    for (index_t i = 0; i < n; ++i) m(i, c) = q[static_cast<std::size_t>(i)];
  }
}

void KBfgs::precondition_block(ParamBlock& pb, index_t layer) {
  const LayerState& st = layers_[static_cast<std::size_t>(layer)];
  Matrix g = pb.gw;
  if (st.sy_pairs.empty()) {
    // No curvature pairs yet: fall back to H_g = (C_g + γI)⁻¹-free identity.
    pb.gw = matmul(g, st.a_inv);
    return;
  }
  apply_hg(st, g);
  pb.gw = matmul(g, st.a_inv);
}

index_t KBfgs::state_bytes() const {
  index_t scalars = 0;
  for (const auto& st : layers_) {
    scalars += st.a_factor.size() + st.a_inv.size() + st.g_factor.size() +
               st.g_mean_prev.size();
    for (const auto& [s, y] : st.sy_pairs)
      scalars += static_cast<index_t>(s.size() + y.size());
  }
  return scalars * static_cast<index_t>(sizeof(real_t)) + momentum_bytes();
}

void KFac::LayerState::save(ckpt::ByteWriter& w) const {
  for (const Matrix* m : {&a_factor, &g_factor, &a_inv, &g_inv, &v_a, &v_g,
                          &scaling})
    w.matrix(*m);
}

void KFac::LayerState::load(ckpt::ByteReader& r) {
  for (Matrix* m : {&a_factor, &g_factor, &a_inv, &g_inv, &v_a, &v_g,
                    &scaling})
    *m = r.matrix();
}

void KFac::save_state(Network& net, ckpt::ByteWriter& w) const {
  Optimizer::save_state(net, w);
  save_layers(w, layers_);
  txn_.save(w);
}

void KFac::load_state(Network& net, ckpt::ByteReader& r) {
  Optimizer::load_state(net, r);
  load_layers(r, layers_);
  txn_.load(r);
}

void KBfgs::LayerState::save(ckpt::ByteWriter& w) const {
  w.matrix(a_factor);
  w.matrix(a_inv);
  w.matrix(g_factor);
  w.matrix(g_mean_prev);
  w.u64(sy_pairs.size());
  for (const auto& [s, y] : sy_pairs) {
    w.real_vec(s);
    w.real_vec(y);
  }
  w.real(h0_scale);
}

void KBfgs::LayerState::load(ckpt::ByteReader& r) {
  a_factor = r.matrix();
  a_inv = r.matrix();
  g_factor = r.matrix();
  g_mean_prev = r.matrix();
  sy_pairs.clear();
  const std::uint64_t pairs = r.u64();
  for (std::uint64_t k = 0; k < pairs; ++k) {
    std::vector<real_t> s = r.real_vec();
    std::vector<real_t> y = r.real_vec();
    sy_pairs.emplace_back(std::move(s), std::move(y));
  }
  h0_scale = r.real();
}

void KBfgs::save_state(Network& net, ckpt::ByteWriter& w) const {
  Optimizer::save_state(net, w);
  save_layers(w, layers_);
  txn_.save(w);
}

void KBfgs::load_state(Network& net, ckpt::ByteReader& r) {
  Optimizer::load_state(net, r);
  load_layers(r, layers_);
  txn_.load(r);
}

}  // namespace hylo
