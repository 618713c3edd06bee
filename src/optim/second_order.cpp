#include "hylo/optim/second_order.hpp"

#include <cmath>

#include "hylo/ckpt/snapshot.hpp"
#include "hylo/linalg/cholesky.hpp"
#include "hylo/obs/health.hpp"
#include "hylo/tensor/ops.hpp"

namespace hylo {

void CurvatureOptimizer::probe_layers(
    const std::function<void(index_t, obs::LayerHealth&)>& fill) const {
  if (health_ == nullptr || !health_->due()) return;
  for (index_t l = 0; l < refresh_->layers(); ++l) {
    obs::LayerHealth h;
    h.layer = l;
    h.staleness = layer_staleness(l);
    if (layer_ready(l)) fill(l, h);
    health_->report_layer(h);
  }
}

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

std::vector<index_t> per_rank_bytes(const CommSim& comm,
                                    const std::vector<Matrix>& parts) {
  std::vector<index_t> bytes;
  bytes.reserve(parts.size());
  for (const auto& m : parts) bytes.push_back(comm.wire_bytes(m.size()));
  return bytes;
}

namespace {
// The seed picks the victim deterministically among the (non-empty)
// matrices the collective carried, then seeds the bit-flips themselves.
void apply_escaped_corruption(CommSim& comm,
                              std::initializer_list<Matrix*> targets) {
  const auto ticket = comm.take_silent_corruption();
  if (!ticket) return;
  std::vector<Matrix*> carried;
  for (Matrix* m : targets)
    if (m != nullptr && !m->empty()) carried.push_back(m);
  if (!carried.empty())
    corrupt_values(*carried[*ticket % carried.size()], *ticket);
}

const char* section_of(LinkKind kind) {
  return kind == LinkKind::kBroadcast ? "comm/broadcast" : "comm/gather";
}

// Completion handle of a dependent chain: it starts with its first link,
// completes with its last, and fails if any link failed.
CommEvent chain_event(const CommEvent& first, const CommEvent& last) {
  CommEvent ev;
  ev.seq = last.seq;
  ev.start_s = first.start_s;
  ev.ready_s = last.ready_s;
  ev.failed = first.failed || last.failed;
  return ev;
}
}  // namespace

index_t RefreshTxnBase::staleness(index_t layer) const {
  HYLO_CHECK(layer >= 0 && layer < layers(),
             "" << method_ << " layer " << layer << " unknown");
  return age_[static_cast<std::size_t>(layer)].staleness;
}

bool RefreshTxnBase::charge(CommSim& comm, LinkKind kind,
                            const std::vector<index_t>& bytes,
                            std::initializer_list<Matrix*> targets) {
  try {
    switch (kind) {
      case LinkKind::kAllreduce:
        comm.charge_allreduce(bytes.front(), section_of(kind));
        break;
      case LinkKind::kAllgather:
        comm.charge_allgather(bytes, section_of(kind));
        break;
      case LinkKind::kBroadcast:
        comm.charge_broadcast(bytes.front(), section_of(kind));
        break;
    }
  } catch (const CommFailure&) {
    return false;
  }
  apply_escaped_corruption(comm, targets);
  return true;
}

bool RefreshTxnBase::issue(CommSim& comm, CommEvent& chain, bool first,
                           LinkKind kind, const std::vector<index_t>& bytes,
                           std::initializer_list<Matrix*> targets) {
  if (!comm.async()) {
    if (charge(comm, kind, bytes, targets)) return true;
    chain.failed = true;
    return false;
  }
  const double start = first ? comm.timeline()->max_clock() : chain.ready_s;
  CommEvent ev;
  switch (kind) {
    case LinkKind::kAllreduce:
      ev = comm.icharge_allreduce(bytes.front(), section_of(kind), start);
      break;
    case LinkKind::kAllgather:
      ev = comm.icharge_allgather(bytes, section_of(kind), start);
      break;
    case LinkKind::kBroadcast:
      ev = comm.icharge_broadcast(bytes.front(), section_of(kind), start);
      break;
  }
  apply_escaped_corruption(comm, targets);
  const bool lost = chain.failed;
  chain = first ? ev : chain_event(chain, ev);
  chain.failed = chain.failed || lost;
  return true;
}

bool RefreshTxnBase::guard(CommSim& comm, index_t layer,
                           const GuardPairs& pairs) const {
  if (!guard_gates_) return true;
  // Bounds chosen far outside anything a healthy refresh produces: a clean
  // run never trips them, so default-on gates stay bitwise-invisible.
  constexpr real_t kAbsNormBound = 1e30;
  constexpr real_t kRatioBound = 1e6;
  const char* reason = nullptr;
  for (const auto& [cand, prev] : pairs) {
    if (cand == nullptr || cand->size() == 0) continue;
    if (obs::count_nonfinite(*cand) > 0) {
      reason = "non_finite";
      break;
    }
    const real_t norm = frobenius_norm(*cand);
    if (norm > kAbsNormBound) {
      reason = "abs_norm";
      break;
    }
    if (prev != nullptr && prev->size() > 0) {
      const real_t prev_norm = frobenius_norm(*prev);
      if (prev_norm > 0.0 && norm > kRatioBound * prev_norm) {
        reason = "norm_ratio";
        break;
      }
    }
  }
  if (reason == nullptr) return true;
  comm.profiler()
      .registry()
      .counter(std::string("optim/") + method_ + "/guard_rejects")
      .inc();
  if (obs::TraceBuffer* trace = comm.trace()) {
    obs::Json args = obs::Json::object();
    args.set("optimizer", method_);
    args.set("layer", static_cast<std::int64_t>(layer));
    args.set("reason", reason);
    trace->add_instant("guard_reject", "optim", obs::TraceBuffer::kCommTrack,
                       std::move(args));
  }
  return false;
}

void RefreshTxnBase::landed(index_t layer) {
  Age& age = age_[static_cast<std::size_t>(layer)];
  age.ready = true;
  age.staleness = 0;
}

void RefreshTxnBase::note_stale(CommSim* comm, index_t layer) {
  Age& age = age_[static_cast<std::size_t>(layer)];
  if (comm != nullptr) {
    comm->profiler()
        .registry()
        .counter(std::string("optim/") + method_ + "/stale_refreshes")
        .inc();
    if (obs::TraceBuffer* trace = comm->trace()) {
      obs::Json args = obs::Json::object();
      args.set("optimizer", method_);
      args.set("layer", static_cast<std::int64_t>(layer));
      args.set("fallback", age.ready ? "stale_factors" : "sgd_direction");
      trace->add_instant("stale_refresh", "optim",
                         obs::TraceBuffer::kCommTrack, std::move(args));
    }
  }
  ++age.staleness;
}

void RefreshTxnBase::save_age(ckpt::ByteWriter& w) const {
  w.u64(age_.size());
  for (const Age& a : age_) {
    w.b(a.ready);
    w.i64(a.staleness);
  }
}

void RefreshTxnBase::load_age(ckpt::ByteReader& r) {
  age_.assign(r.u64(), Age{});
  for (Age& a : age_) {
    a.ready = r.b();
    a.staleness = r.i64();
  }
}

void RefreshTxnBase::write_event(ckpt::ByteWriter& w, const CommEvent& ev) {
  w.u64(ev.seq);
  w.f64(ev.start_s);
  w.f64(ev.ready_s);
  w.b(ev.failed);
}

CommEvent RefreshTxnBase::read_event(ckpt::ByteReader& r) {
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
