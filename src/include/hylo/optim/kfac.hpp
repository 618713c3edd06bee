#pragma once
/// \file kfac.hpp
/// Kronecker-factored baselines:
///  - KFac: Martens & Grosse KFAC with the KAISA-style distributed pipeline
///    (factor allreduce, per-owner inversion, inverse broadcast).
///  - EKFac: KFAC in the Kronecker eigenbasis with per-entry second-moment
///    rescaling (George et al.).
///  - KBfgs: Kronecker factors with a limited-memory BFGS inverse on the
///    gradient side (re-derivation of Goldfarb et al.'s KBFGS-L; see
///    DESIGN.md §6).

#include <deque>

#include "hylo/optim/second_order.hpp"

namespace hylo {

class KFac : public CurvatureOptimizer {
 public:
  explicit KFac(OptimConfig cfg) : KFac(cfg, "kfac") {}
  std::string name() const override { return "KFAC"; }

  void update_curvature(const std::vector<ParamBlock*>& blocks,
                        const CaptureSet& capture, CommSim* comm) override;
  index_t state_bytes() const override;
  void save_state(Network& net, ckpt::ByteWriter& w) const override;
  void load_state(Network& net, ckpt::ByteReader& r) override;

 protected:
  KFac(OptimConfig cfg, const char* method);
  void precondition_block(ParamBlock& pb, index_t layer) override;

  /// Served Kronecker curvature of one layer: KFAC serves damped factor
  /// inverses, EKFAC the factors' eigenbases with running per-entry
  /// scalings; the other method's matrices stay empty.
  struct LayerState {
    Matrix a_factor, g_factor;  ///< running E[aaᵀ], E[ggᵀ]
    Matrix a_inv, g_inv;        ///< damped inverses                [KFAC]
    Matrix v_a, v_g;            ///< Kronecker eigenbases           [EKFAC]
    Matrix scaling;  ///< running E[(V_gᵀ g a V_a)²], d_out x (d_in+1) [EKFAC]
    void save(ckpt::ByteWriter& w) const;
    void load(ckpt::ByteReader& r);
  };
  std::vector<LayerState> layers_;

  /// Merged running-factor candidates for every layer (stat-decay blend of
  /// the capture's per-rank Gram sums into the committed running factors);
  /// charges comp/factorization. Pure compute — no collectives.
  std::vector<std::pair<Matrix, Matrix>> factor_candidates(
      const std::vector<ParamBlock*>& blocks, const CaptureSet& capture,
      CommSim* comm);

  /// Lockstep phase 1: charge every layer's factor allreduce and commit the
  /// running factors whose allreduce landed and passed the gate. A lost
  /// layer keeps its previous running factors; the returned flags mark
  /// those layers (one entry per layer) so phase 2 opens them already lost.
  std::vector<char> refresh_factors(const std::vector<ParamBlock*>& blocks,
                                    const CaptureSet& capture, CommSim* comm);

  /// Build layer `l`'s served basis from the running factors (a, g) into
  /// `c`; false when there is nothing to build from. Pure compute.
  virtual bool build_basis(index_t l, const Matrix& a, const Matrix& g,
                           const CaptureSet& capture, LayerState& c) const;

  /// Health probes over the served (committed) state.
  virtual void probe_health();

 private:
  RefreshTxn<LayerState> txn_;
};

/// KFAC in the Kronecker eigenbasis: the same refresh, serving eigenbases
/// and per-entry second-moment scalings instead of inverses.
class EKFac : public KFac {
 public:
  explicit EKFac(OptimConfig cfg) : KFac(cfg, "ekfac") {}
  std::string name() const override { return "EKFAC"; }

 protected:
  void precondition_block(ParamBlock& pb, index_t layer) override;
  bool build_basis(index_t l, const Matrix& a, const Matrix& g,
                   const CaptureSet& capture, LayerState& c) const override;
  void probe_health() override;
};

class KBfgs : public CurvatureOptimizer {
 public:
  explicit KBfgs(OptimConfig cfg);
  std::string name() const override { return "KBFGS-L"; }

  void update_curvature(const std::vector<ParamBlock*>& blocks,
                        const CaptureSet& capture, CommSim* comm) override;
  index_t state_bytes() const override;
  void save_state(Network& net, ckpt::ByteWriter& w) const override;
  void load_state(Network& net, ckpt::ByteReader& r) override;

 protected:
  void precondition_block(ParamBlock& pb, index_t layer) override;

 private:
  struct LayerState {
    Matrix a_factor;  ///< running E[aaᵀ]
    Matrix a_inv;     ///< exact damped inverse of the input factor
    Matrix g_factor;  ///< running E[ggᵀ] (used to synthesize y = (C+γI)s)
    Matrix g_mean_prev;  ///< previous mean per-sample gradient (d_out x 1)
    std::deque<std::pair<std::vector<real_t>, std::vector<real_t>>> sy_pairs;
    real_t h0_scale = 1.0;  ///< initial inverse-Hessian scaling
    void save(ckpt::ByteWriter& w) const;
    void load(ckpt::ByteReader& r);
  };

  /// Two-loop L-BFGS application of the inverse G-side Hessian to each
  /// column of `m` (in place).
  void apply_hg(const LayerState& st, Matrix& m) const;

  /// Per-layer candidate refreshes from a capture (running factors, BFGS
  /// pair update) — pure compute on copies. The input-side inverse is
  /// computed and timed per layer by update_curvature.
  std::vector<LayerState> build_candidates(const CaptureSet& capture);

  /// Health probes over the served input-side factor/inverse pairs.
  void probe_health();

  std::vector<LayerState> layers_;
  RefreshTxn<LayerState> txn_;
};

}  // namespace hylo
