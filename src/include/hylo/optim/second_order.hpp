#pragma once
/// \file second_order.hpp
/// Shared machinery for the NGD family: capture scheduling, KL-clipped
/// trust-region application, damped inversion helpers with escalation, and
/// RefreshTxn — the one refresh transaction all five curvature optimizers
/// run their collectives through (compute candidates, issue each layer's
/// links, gate, commit or degrade to stale factors; DESIGN.md §10, §15).

#include <algorithm>
#include <functional>
#include <initializer_list>
#include <utility>

#include "hylo/ckpt/snapshot.hpp"
#include "hylo/optim/optimizer.hpp"

namespace hylo {

namespace obs {
struct LayerHealth;
}  // namespace obs

/// Per-rank wire bytes of an allgather in which rank r contributes
/// parts[r]: ranks may hold different row counts, so the cost model's
/// latency term follows the largest block and the ledger sums them all.
std::vector<index_t> per_rank_bytes(const CommSim& comm,
                                    const std::vector<Matrix>& parts);

/// The collective a refresh link charges. Factor reductions and gathers
/// book under comm/gather, inverse broadcasts under comm/broadcast.
enum class LinkKind { kAllreduce, kAllgather, kBroadcast };

/// (candidate, committed) matrix pairs the commit gate compares.
using GuardPairs = std::vector<std::pair<const Matrix*, const Matrix*>>;

/// The type-independent half of RefreshTxn: per-layer commit age (ready,
/// staleness), the method tag, and the charge / gate / stale-note steps.
class RefreshTxnBase {
 public:
  RefreshTxnBase(const char* method, bool guard_gates)
      : method_(method), guard_gates_(guard_gates) {}

  /// Lower-case tag of the optim/<method>/… metrics ("kfac", "hylo", …).
  const char* method() const { return method_; }

  /// Track `layers` layers; new layers start not ready at staleness 0.
  void resize(index_t layers) { age_.resize(static_cast<std::size_t>(layers)); }
  index_t layers() const { return static_cast<index_t>(age_.size()); }

  /// True once a refresh of `layer` committed.
  bool ready(index_t layer) const {
    return layer >= 0 && layer < layers() &&
           age_[static_cast<std::size_t>(layer)].ready;
  }
  /// Refreshes lost since `layer` last committed.
  index_t staleness(index_t layer) const;

  /// Async comm mode: layers with a refresh chain in flight, and the
  /// per-iteration commit of every chain that completed by the clock.
  virtual index_t pending() const = 0;
  virtual void poll(CommSim& comm) = 0;

  /// Blocking (lockstep) charge of one link; hands the charge's
  /// escaped-corruption ticket to `targets`. False when the collective was
  /// lost to an injected fault (CommFailure).
  static bool charge(CommSim& comm, LinkKind kind,
                     const std::vector<index_t>& bytes,
                     std::initializer_list<Matrix*> targets);

  /// Numeric commit gate (DESIGN.md §16): rejects candidates holding
  /// non-finite values, absurd magnitudes, or norms exploding relative to
  /// their committed counterparts (empty matrices are skipped). A rejection
  /// books optim/<method>/guard_rejects plus a trace instant, and the layer
  /// degrades exactly as for a lost collective. Always true with gates off.
  bool guard(CommSim& comm, index_t layer, const GuardPairs& pairs) const;

 protected:
  ~RefreshTxnBase() = default;  // never owned through the base

  /// Issue one link of a layer's chain. Lockstep charges it blocking and
  /// marks `chain` failed on a loss; async issues it nonblocking after the
  /// previous link (`first`: at the timeline's clock) and folds it into
  /// `chain`. Returns false only for a lost lockstep charge.
  static bool issue(CommSim& comm, CommEvent& chain, bool first,
                    LinkKind kind, const std::vector<index_t>& bytes,
                    std::initializer_list<Matrix*> targets);

  /// The refresh of `layer` committed: ready, staleness 0.
  void landed(index_t layer);
  /// The refresh of `layer` was lost: optim/<method>/stale_refreshes, a
  /// trace instant naming the fallback, and one more refresh of staleness.
  void note_stale(CommSim* comm, index_t layer);

  void save_age(ckpt::ByteWriter& w) const;
  void load_age(ckpt::ByteReader& r);
  static void write_event(ckpt::ByteWriter& w, const CommEvent& ev);
  static CommEvent read_event(ckpt::ByteReader& r);

 private:
  struct Age {
    bool ready = false;
    index_t staleness = 0;
  };
  const char* method_;
  bool guard_gates_;
  std::vector<Age> age_;
};

/// One refresh transaction for a curvature optimizer whose per-layer
/// candidate state is `State` (a struct with save(ByteWriter&) const and
/// load(ByteReader&)). The optimizer computes candidates and says which
/// links each layer's refresh issues; the transaction owns everything
/// between that and the committed state:
///
///   begin(comm)                  new round (async: the commit deadline)
///   State& c = open(l, cand)     layer l's candidate enters the round
///   allreduce/allgather/broadcast(comm, …, {&c.x, …})   its links, in order
///   close(comm)                  lockstep: gate the candidate now
///   settle(comm)                 lockstep: commit or degrade every closed
///                                layer in open order; async: queue them
///
/// Lockstep charges each link as it is called; a link returns false when
/// its collective was lost, so layer-major callers chain links with && to
/// stop a layer at its first loss, and phase-major callers (KFAC, EKFAC)
/// simply call every link. Async issues every link nonblocking, chains it
/// after the previous one, and commits in (ready time, seq) order from
/// poll() — or degrades once the next begin() finds the chain in flight.
template <typename State>
class RefreshTxn final : public RefreshTxnBase {
 public:
  /// The optimizer's halves of the commit: the matrices the gate compares
  /// for a candidate, and the move of a landed candidate into committed
  /// state.
  using GuardFn = std::function<GuardPairs(index_t layer, const State& cand)>;
  using CommitFn = std::function<void(index_t layer, State&& cand)>;

  RefreshTxn(const char* method, bool guard_gates, GuardFn guard_pairs,
             CommitFn commit)
      : RefreshTxnBase(method, guard_gates),
        guard_pairs_(std::move(guard_pairs)),
        commit_(std::move(commit)) {}

  void begin(CommSim* comm) {
    fresh_.clear();
    if (comm != nullptr && comm->async()) resolve(*comm, /*deadline=*/true);
  }

  /// Enter layer `layer`'s candidate; the reference stays valid until the
  /// next open(). `lost` marks a lockstep layer whose earlier phase already
  /// failed: its links are still charged, its commit is forfeit.
  State& open(index_t layer, State cand, bool lost = false) {
    Pending p;
    p.layer = layer;
    p.event.failed = lost;
    p.state = std::move(cand);
    fresh_.push_back(std::move(p));
    linked_ = false;
    return fresh_.back().state;
  }

  /// Links of the open layer; the non-empty `targets` are the candidate
  /// matrices the collective's payload models (escaped-corruption victims).
  /// Without a communicator nothing is charged and every link lands.
  bool allreduce(CommSim* comm, index_t scalars,
                 std::initializer_list<Matrix*> targets) {
    return comm == nullptr ||
           link(*comm, LinkKind::kAllreduce, {comm->wire_bytes(scalars)},
                targets);
  }
  bool allgather(CommSim* comm, const std::vector<Matrix>& parts,
                 std::initializer_list<Matrix*> targets) {
    return comm == nullptr || link(*comm, LinkKind::kAllgather,
                                   per_rank_bytes(*comm, parts), targets);
  }
  bool broadcast(CommSim* comm, index_t scalars,
                 std::initializer_list<Matrix*> targets) {
    return comm == nullptr ||
           link(*comm, LinkKind::kBroadcast, {comm->wire_bytes(scalars)},
                targets);
  }

  void close(CommSim* comm) {
    Pending& p = fresh_.back();
    if (comm != nullptr && !comm->async() && !p.event.failed &&
        !guard(*comm, p.layer, guard_pairs_(p.layer, p.state)))
      p.event.failed = true;
  }

  void settle(CommSim* comm) {
    for (Pending& p : fresh_) {
      if (comm != nullptr && comm->async())
        queue_.push_back(std::move(p));
      else
        finish(comm, p, !p.event.failed);
    }
    fresh_.clear();
  }

  index_t pending() const override {
    return static_cast<index_t>(queue_.size());
  }
  void poll(CommSim& comm) override { resolve(comm, /*deadline=*/false); }

  /// Commit ages plus the in-flight chains: a snapshot taken with gathers
  /// on the wire must resume bitwise (DESIGN.md §15).
  void save(ckpt::ByteWriter& w) const {
    save_age(w);
    w.u64(queue_.size());
    for (const Pending& p : queue_) {
      w.i64(p.layer);
      write_event(w, p.event);
      p.state.save(w);
    }
  }
  void load(ckpt::ByteReader& r) {
    load_age(r);
    fresh_.clear();
    queue_.assign(r.u64(), Pending{});
    for (Pending& p : queue_) {
      p.layer = r.i64();
      p.event = read_event(r);
      p.state.load(r);
    }
  }

 private:
  struct Pending {
    index_t layer = 0;
    CommEvent event;
    State state;
  };

  bool link(CommSim& comm, LinkKind kind, const std::vector<index_t>& bytes,
            std::initializer_list<Matrix*> targets) {
    const bool first = !linked_;
    linked_ = true;
    return issue(comm, fresh_.back().event, first, kind, bytes, targets);
  }

  void finish(CommSim* comm, Pending& p, bool ok) {
    if (!ok) {
      note_stale(comm, p.layer);
      return;
    }
    commit_(p.layer, std::move(p.state));
    landed(p.layer);
  }

  /// Async: commit every queued chain that completed by the clock, in
  /// (ready time, seq) order — the total order of the replayed timeline;
  /// with `deadline`, a chain still in flight degrades to stale factors.
  void resolve(CommSim& comm, bool deadline) {
    if (queue_.empty()) return;
    const double now = comm.timeline()->max_clock();
    std::sort(queue_.begin(), queue_.end(),
              [](const Pending& x, const Pending& y) {
                if (x.event.ready_s != y.event.ready_s)
                  return x.event.ready_s < y.event.ready_s;
                return x.event.seq < y.event.seq;
              });
    std::vector<Pending> keep;
    for (Pending& p : queue_) {
      if (p.layer >= layers()) continue;  // network shrank; refresh is moot
      if (!p.event.failed && p.event.ready_s <= now)
        finish(&comm, p, guard(comm, p.layer, guard_pairs_(p.layer, p.state)));
      else if (p.event.failed || deadline)
        finish(&comm, p, false);
      else
        keep.push_back(std::move(p));
    }
    queue_.swap(keep);
  }

  GuardFn guard_pairs_;
  CommitFn commit_;
  std::vector<Pending> fresh_;  ///< this round's layers, in open order
  std::vector<Pending> queue_;  ///< async chains in flight
  bool linked_ = false;         ///< the open layer has issued a link
};

/// Write / read a vector of per-layer states with their own save/load.
template <typename State>
void save_layers(ckpt::ByteWriter& w, const std::vector<State>& layers) {
  w.u64(layers.size());
  for (const State& st : layers) st.save(w);
}
template <typename State>
void load_layers(ckpt::ByteReader& r, std::vector<State>& layers) {
  layers.assign(r.u64(), State{});
  for (State& st : layers) st.load(r);
}

/// Base for every curvature-preconditioned optimizer. Subclasses implement
/// update_curvature() and precondition_block(); step() then snapshots the
/// raw gradient, preconditions, applies the KAISA-style KL clip
///   ν = min(1, sqrt(κ / (lr² Σ_l ⟨precond g_l, g_l⟩)))
/// and performs the common momentum update.
class CurvatureOptimizer : public Optimizer {
 public:
  explicit CurvatureOptimizer(OptimConfig cfg) : Optimizer(cfg) {}
  // The bound refresh transaction and its hooks point into this object.
  CurvatureOptimizer(const CurvatureOptimizer&) = delete;
  CurvatureOptimizer& operator=(const CurvatureOptimizer&) = delete;

  bool needs_capture(index_t iteration) const override {
    return cfg_.update_freq <= 1 || iteration % cfg_.update_freq == 0;
  }

  void step(Network& net, index_t iteration) override;

  /// Refresh age of the curvature served for `layer`: 0 when the last
  /// refresh landed, k when the last k refreshes lost their collectives and
  /// the layer still serves factors from k refreshes ago (or, while
  /// layer_ready() is false, has none and passes gradients through as plain
  /// SGD directions).
  index_t layer_staleness(index_t layer) const {
    return refresh_->staleness(layer);
  }

  /// Async comm mode only: commit every pending refresh whose collectives
  /// have completed by the timeline's current clock, in (ready time, seq)
  /// order. The trainer calls this each iteration so factor gathers issued
  /// at refresh t land while iterations t+1..t+f-1 compute; anything still
  /// in flight when the *next* refresh starts has missed its commit
  /// deadline and degrades to stale factors, exactly like a lost lockstep
  /// collective (PR-4 semantics).
  void poll_async(CommSim& comm) { refresh_->poll(comm); }

  /// Number of layers with an in-flight async refresh.
  index_t async_pending() const { return refresh_->pending(); }

  /// Recovery-ladder rung 2 (DESIGN.md §16): while set, step() skips the
  /// preconditioning pass and applies the raw (momentum/KL-clipped)
  /// gradient direction — curvature state keeps refreshing and aging
  /// normally, it is just not served.
  void set_first_order(bool on) { first_order_ = on; }
  bool first_order() const { return first_order_; }

 protected:
  /// Replace pb.gw by the preconditioned gradient for layer index `layer`.
  /// Called only after at least one update_curvature() succeeded for that
  /// layer; before that, gradients pass through unchanged.
  virtual void precondition_block(ParamBlock& pb, index_t layer) = 0;

  /// True once layer `layer` has curvature state.
  bool layer_ready(index_t layer) const { return refresh_->ready(layer); }

  /// Health probes over the committed (served) state, gated on the probe
  /// cadence: one report per layer carrying its staleness; `fill` adds the
  /// method's readings for layers that serve curvature.
  void probe_layers(
      const std::function<void(index_t, obs::LayerHealth&)>& fill) const;

  /// Every constructor binds the transaction its refreshes run through.
  void bind_refresh(RefreshTxnBase& txn) { refresh_ = &txn; }
  RefreshTxnBase& refresh() { return *refresh_; }

 private:
  RefreshTxnBase* refresh_ = nullptr;
  bool first_order_ = false;
};

/// SPD inverse of (c + damping·I) with escalating damping retries (10× per
/// attempt). Throws only if the matrix stays numerically indefinite after
/// `attempts` escalations — which indicates NaNs rather than conditioning.
Matrix damped_spd_inverse(const Matrix& c, real_t damping, int attempts = 4);

/// Cholesky factor of (c + damping·I) with the same escalation.
Matrix damped_cholesky(const Matrix& c, real_t damping, int attempts = 4);

}  // namespace hylo
