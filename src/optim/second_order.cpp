#include "hylo/optim/second_order.hpp"

#include <cmath>

#include "hylo/ckpt/snapshot.hpp"
#include "hylo/linalg/cholesky.hpp"
#include "hylo/obs/health.hpp"
#include "hylo/tensor/ops.hpp"

namespace hylo {

void CurvatureOptimizer::step(Network& net, index_t /*iteration*/) {
  auto blocks = net.param_blocks();
  // Snapshot raw gradients, then precondition in place.
  std::vector<Matrix> raw;
  raw.reserve(blocks.size());
  for (auto* pb : blocks) raw.push_back(pb->gw);
  // Recovery-ladder rung 2: the raw gradient passes through unchanged (the
  // KL clip below then degenerates to a plain norm clip).
  if (!first_order())
    for (std::size_t l = 0; l < blocks.size(); ++l)
      if (layer_ready(static_cast<index_t>(l)))
        precondition_block(*blocks[l], static_cast<index_t>(l));

  if (health_ != nullptr && health_->due()) {
    // gw now holds the preconditioned direction, raw the incoming gradient —
    // exactly the pair the update_ratio probe wants, with no extra GEMMs.
    for (std::size_t l = 0; l < blocks.size(); ++l)
      health_->report_norms(static_cast<index_t>(l), frobenius_norm(raw[l]),
                            frobenius_norm(blocks[l]->gw));
  }

  // KL clip (trust region on the quadratic model).
  real_t vg = 0.0;
  for (std::size_t l = 0; l < blocks.size(); ++l)
    vg += cfg_.lr * cfg_.lr * dot(blocks[l]->gw, raw[l]);
  real_t nu = 1.0;
  if (cfg_.kl_clip > 0.0 && vg > cfg_.kl_clip)
    nu = std::sqrt(cfg_.kl_clip / vg);
  apply_sgd_update(net, nu);
}

void CurvatureOptimizer::note_stale_refresh(CommSim& comm, const char* method,
                                            index_t layer,
                                            bool has_previous) const {
  comm.profiler()
      .registry()
      .counter(std::string("optim/") + method + "/stale_refreshes")
      .inc();
  if (obs::TraceBuffer* trace = comm.trace()) {
    obs::Json args = obs::Json::object();
    args.set("optimizer", method);
    args.set("layer", static_cast<std::int64_t>(layer));
    args.set("fallback", has_previous ? "stale_factors" : "sgd_direction");
    trace->add_instant("stale_refresh", "optim", obs::TraceBuffer::kCommTrack,
                       std::move(args));
  }
}

void CurvatureOptimizer::apply_escaped_corruption(
    CommSim& comm, std::initializer_list<Matrix*> targets) {
  const auto ticket = comm.take_silent_corruption();
  if (!ticket || targets.size() == 0) return;
  // The seed picks the victim deterministically among the matrices the
  // collective carried, then seeds the bit-flips themselves.
  Matrix* victim = *(targets.begin() +
                     static_cast<std::ptrdiff_t>(*ticket % targets.size()));
  if (victim != nullptr) corrupt_values(*victim, *ticket);
}

bool CurvatureOptimizer::guard_commit(
    CommSim& comm, const char* method, index_t layer,
    std::initializer_list<const Matrix*> candidates,
    std::initializer_list<const Matrix*> committed) const {
  if (!cfg_.guard_gates) return true;
  // Bounds chosen far outside anything a healthy refresh produces: a clean
  // run never trips them, so default-on gates stay bitwise-invisible.
  constexpr real_t kAbsNormBound = 1e30;
  constexpr real_t kRatioBound = 1e6;
  const char* reason = nullptr;
  const Matrix* const* prev = committed.begin();
  const std::size_t nprev = committed.size();
  std::size_t i = 0;
  for (const Matrix* cand : candidates) {
    if (cand == nullptr || cand->size() == 0) {
      ++i;
      continue;
    }
    if (obs::count_nonfinite(*cand) > 0) {
      reason = "non_finite";
      break;
    }
    const real_t norm = frobenius_norm(*cand);
    if (norm > kAbsNormBound) {
      reason = "abs_norm";
      break;
    }
    if (i < nprev && prev[i] != nullptr && prev[i]->size() > 0) {
      const real_t prev_norm = frobenius_norm(*prev[i]);
      if (prev_norm > 0.0 && norm > kRatioBound * prev_norm) {
        reason = "norm_ratio";
        break;
      }
    }
    ++i;
  }
  if (reason == nullptr) return true;
  comm.profiler()
      .registry()
      .counter(std::string("optim/") + method + "/guard_rejects")
      .inc();
  if (obs::TraceBuffer* trace = comm.trace()) {
    obs::Json args = obs::Json::object();
    args.set("optimizer", method);
    args.set("layer", static_cast<std::int64_t>(layer));
    args.set("reason", reason);
    trace->add_instant("guard_reject", "optim", obs::TraceBuffer::kCommTrack,
                       std::move(args));
  }
  return false;
}

void CurvatureOptimizer::write_event(ckpt::ByteWriter& w,
                                     const CommEvent& ev) {
  w.u64(ev.seq);
  w.f64(ev.start_s);
  w.f64(ev.ready_s);
  w.b(ev.failed);
}

CommEvent CurvatureOptimizer::read_event(ckpt::ByteReader& r) {
  CommEvent ev;
  ev.seq = r.u64();
  ev.start_s = r.f64();
  ev.ready_s = r.f64();
  ev.failed = r.b();
  return ev;
}

Matrix damped_cholesky(const Matrix& c, real_t damping, int attempts) {
  Matrix work = c;
  // Escalation floor scaled to the matrix magnitude, so retries make real
  // progress even when the caller passed a denormal damping.
  const real_t scale =
      1e-8 * (std::abs(trace(c)) / static_cast<real_t>(c.rows()) + 1.0);
  real_t added = 0.0;
  real_t next = damping;
  Matrix l;
  for (int k = 0; k < attempts; ++k) {
    add_diagonal(work, next - added);
    added = next;
    if (try_cholesky(work, l)) return l;
    next = std::max(next * 10.0, scale);
  }
  HYLO_CHECK(false, "matrix stayed indefinite after damping escalation (n="
                        << c.rows() << ", final damping " << added << ")");
  return l;
}

Matrix damped_spd_inverse(const Matrix& c, real_t damping, int attempts) {
  return cholesky_inverse(damped_cholesky(c, damping, attempts));
}

}  // namespace hylo
