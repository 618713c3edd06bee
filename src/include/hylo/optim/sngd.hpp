#pragma once
/// \file sngd.hpp
/// Standard Sherman-Morrison-Woodbury NGD (Eq. 7 of the paper) with the
/// communication-optimized distributed pipeline of Fig. 1: per-sample
/// input/gradient matrices are allgathered, the global-batch kernel matrix
/// K = (AAᵀ)∘(GGᵀ) is inverted per assigned layer, and the inverse is
/// broadcast. Exact (no low-rank compression) — the baseline whose O(P³m³)
/// inversion and O(P²m²) broadcast HyLo eliminates.

#include "hylo/linalg/cholesky.hpp"
#include "hylo/optim/second_order.hpp"

namespace hylo {

class Sngd : public CurvatureOptimizer {
 public:
  explicit Sngd(OptimConfig cfg);
  std::string name() const override { return "SNGD"; }

  void update_curvature(const std::vector<ParamBlock*>& blocks,
                        const CaptureSet& capture, CommSim* comm) override;
  index_t state_bytes() const override;
  void save_state(Network& net, ckpt::ByteWriter& w) const override;
  void load_state(Network& net, ckpt::ByteReader& r) override;

  /// Preconditioned copy of a gradient without mutating it (shared with the
  /// Fig. 12 gradient-error bench).
  Matrix preconditioned(const Matrix& grad, index_t layer) const;

 protected:
  void precondition_block(ParamBlock& pb, index_t layer) override;

 private:
  struct LayerState {
    Matrix a_glob, g_glob;  ///< gathered global-batch factors (P·m rows)
    Matrix kernel_chol;     ///< Cholesky of (K + αI), dimension P·m
    void save(ckpt::ByteWriter& w) const;
    void load(ckpt::ByteReader& r);
  };
  std::vector<LayerState> layers_;
  RefreshTxn<LayerState> txn_;
};

}  // namespace hylo
