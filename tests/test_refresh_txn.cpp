// The refresh transaction (optim/second_order.hpp, DESIGN.md §10/§15) that
// all five curvature optimizers run their collectives through:
//  - RefreshAccounting: a characterization of the stale-refresh and wire
//    accounting of every optimizer in both comm modes under one pinned
//    rank_down-only schedule. The integers are value-independent (HyLo is
//    pinned to KID or KIS), so every kernel tier and thread count holds them.
//  - RefreshBooking: the inversion metrics of one refresh are booked under
//    one rule — the collectives feeding the inversion landed.
//  - AsyncRefreshResume: snapshots taken with refresh chains still in
//    flight resume bitwise for every optimizer.
// Every trainer test pins cfg.faults and cfg.comm_mode, so ambient
// HYLO_FAULTS / HYLO_COMM environments (the fault and async CI lanes)
// cannot perturb the assertions.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <filesystem>

#include "hylo/hylo.hpp"

namespace hylo {
namespace {

FaultConfig rank_down_only(std::uint64_t seed, double rate) {
  FaultConfig cfg;
  cfg.seed = seed;
  cfg.rate = rate;
  cfg.timeout_weight = cfg.straggler_weight = cfg.corrupt_weight = 0.0;
  cfg.rank_down_weight = 1.0;
  return cfg;
}

// Optimizer by paper name; "HyLo-KID" / "HyLo-KIS" pin HyLo's mode.
std::unique_ptr<CurvatureOptimizer> make_curvature(const std::string& name,
                                                   const OptimConfig& oc) {
  if (name == "HyLo-KID" || name == "HyLo-KIS") {
    auto h = std::make_unique<HyloOptimizer>(oc);
    h->set_policy(name == "HyLo-KID" ? HyloOptimizer::Policy::kAlwaysKid
                                     : HyloOptimizer::Policy::kAlwaysKis);
    return h;
  }
  std::unique_ptr<Optimizer> opt = make_optimizer(name, oc);
  auto* curv = dynamic_cast<CurvatureOptimizer*>(opt.get());
  EXPECT_NE(curv, nullptr) << name;
  opt.release();
  return std::unique_ptr<CurvatureOptimizer>(curv);
}

// Lower-case tag of the optim/<method>/… metrics.
std::string method_tag(const Optimizer& opt) {
  std::string m = opt.name() == "KBFGS-L" ? "kbfgs" : opt.name();
  for (char& ch : m) ch = static_cast<char>(std::tolower(ch));
  return m;
}

OptimConfig small_config() {
  OptimConfig oc;
  oc.lr = 0.05;
  oc.damping = 0.3;
  oc.update_freq = 2;
  oc.rank_ratio = 0.25;
  return oc;
}

// Two epochs of four iterations at P=4: four refreshes of a two-layer MLP.
TrainConfig faulty_config(CommMode mode) {
  TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 16;
  tc.world = 4;
  tc.max_iters_per_epoch = 8;
  tc.interconnect = mist_v100();
  tc.comm_mode = mode;                 // pinned (env-proof)
  tc.faults = rank_down_only(9, 0.2);  // pinned (env-proof)
  return tc;
}

const DataSplit& spirals() {
  static const DataSplit data = make_spirals(256, 64, 2, 0.08, 11);
  return data;
}

struct Accounting {
  std::int64_t stale_refreshes;
  std::int64_t gather_calls;
  std::int64_t broadcast_calls;
  std::int64_t wire_bytes;
  index_t staleness0, staleness1;
};

// Recorded before the refresh paths were merged into RefreshTxn.
void expect_accounting(const std::string& name, CommMode mode,
                       const Accounting& want) {
  Network net = make_mlp({2, 1, 1}, {16}, 2, 3);
  auto opt = make_curvature(name, small_config());
  Trainer trainer(net, *opt, spirals(), faulty_config(mode));
  trainer.run();
  const Profiler& prof = trainer.comm().profiler();
  EXPECT_EQ(prof.registry().counter_value("optim/" + method_tag(*opt) +
                                          "/stale_refreshes"),
            want.stale_refreshes);
  EXPECT_EQ(prof.calls("comm/gather"), want.gather_calls);
  EXPECT_EQ(prof.calls("comm/broadcast"), want.broadcast_calls);
  EXPECT_EQ(trainer.comm().total_wire_bytes(), want.wire_bytes);
  EXPECT_EQ(opt->layer_staleness(0), want.staleness0);
  EXPECT_EQ(opt->layer_staleness(1), want.staleness1);
  EXPECT_EQ(opt->async_pending(), 0);
}

TEST(RefreshAccounting, KfacLockstep) {
  expect_accounting("KFAC", CommMode::kLockstep, {3, 5, 7, 15904, 1, 0});
}
TEST(RefreshAccounting, KfacAsync) {
  expect_accounting("KFAC", CommMode::kAsync, {4, 7, 5, 16128, 3, 0});
}
TEST(RefreshAccounting, EkfacLockstep) {
  expect_accounting("EKFAC", CommMode::kLockstep, {3, 5, 7, 17080, 1, 0});
}
TEST(RefreshAccounting, EkfacAsync) {
  expect_accounting("EKFAC", CommMode::kAsync, {4, 7, 5, 16920, 3, 0});
}
TEST(RefreshAccounting, KbfgsLockstep) {
  expect_accounting("KBFGS-L", CommMode::kLockstep, {4, 7, 4, 13996, 3, 0});
}
TEST(RefreshAccounting, KbfgsAsync) {
  expect_accounting("KBFGS-L", CommMode::kAsync, {4, 7, 5, 14032, 3, 0});
}
TEST(RefreshAccounting, SngdLockstep) {
  expect_accounting("SNGD", CommMode::kLockstep, {5, 13, 3, 142400, 0, 2});
}
TEST(RefreshAccounting, SngdAsync) {
  expect_accounting("SNGD", CommMode::kAsync, {5, 14, 4, 170304, 3, 0});
}
TEST(RefreshAccounting, HyloKidLockstep) {
  expect_accounting("HyLo-KID", CommMode::kLockstep, {6, 13, 2, 28288, 0, 4});
}
TEST(RefreshAccounting, HyloKidAsync) {
  expect_accounting("HyLo-KID", CommMode::kAsync, {5, 20, 6, 41408, 1, 0});
}
TEST(RefreshAccounting, HyloKisLockstep) {
  expect_accounting("HyLo-KIS", CommMode::kLockstep, {5, 13, 3, 28352, 0, 2});
}
TEST(RefreshAccounting, HyloKisAsync) {
  expect_accounting("HyLo-KIS", CommMode::kAsync, {5, 14, 4, 32256, 3, 0});
}

TEST(RefreshBooking, HyloBooksEveryInversionOnce) {
  // HyLo books one comp/inversion call per layer whose gathers landed; the
  // histogram must count exactly those, including layers whose broadcast
  // was then lost.
  for (const char* name : {"HyLo-KID", "HyLo-KIS"}) {
    Network net = make_mlp({2, 1, 1}, {16}, 2, 3);
    auto opt = make_curvature(name, small_config());
    Trainer trainer(net, *opt, spirals(), faulty_config(CommMode::kLockstep));
    trainer.run();
    Profiler& prof = trainer.comm().profiler();
    // The schedule drops a broadcast after its layer's gathers landed.
    ASSERT_LT(prof.calls("comm/broadcast"), prof.calls("comp/inversion"))
        << name;
    EXPECT_EQ(prof.registry().histogram("optim/hylo/inversion_seconds").count(),
              prof.calls("comp/inversion"))
        << name;
  }
}

TEST(RefreshBooking, KbfgsBooksEveryInversionOnce) {
  // KBFGS-L inverts its input factor per layer and books it once the
  // allreduce feeding the inverse landed: one comp/inversion call and one
  // histogram observation per such layer, and a critical-path entry per
  // refresh.
  Network net = make_mlp({2, 1, 1}, {16}, 2, 3);
  auto opt = make_curvature("KBFGS-L", small_config());
  Trainer trainer(net, *opt, spirals(), faulty_config(CommMode::kLockstep));
  trainer.run();
  Profiler& prof = trainer.comm().profiler();
  const std::int64_t calls = prof.calls("comp/inversion");
  EXPECT_GT(calls, 0);
  EXPECT_EQ(prof.registry().histogram("optim/kbfgs/inversion_seconds").count(),
            calls);
  // Every landed allreduce is followed by the inverse broadcast.
  EXPECT_GE(calls, prof.calls("comm/broadcast"));
  EXPECT_GT(prof.calls("comp/inversion_critical"), 0);
}

TEST(RefreshBooking, SngdInversionTotalCountsLandedGathersOnly) {
  // SNGD books comp/inversion once per refresh; its seconds must sum the
  // same layers the histogram observed — those whose gathers landed.
  Network net = make_mlp({2, 1, 1}, {16}, 2, 3);
  auto opt = make_curvature("SNGD", small_config());
  Trainer trainer(net, *opt, spirals(), faulty_config(CommMode::kLockstep));
  trainer.run();
  Profiler& prof = trainer.comm().profiler();
  // Four refreshes of two layers gather A and G each: some gathers were lost.
  ASSERT_LT(prof.calls("comm/gather"), 16);
  const obs::Histogram& hist =
      prof.registry().histogram("optim/sngd/inversion_seconds");
  EXPECT_LT(hist.count(), 8);
  EXPECT_NEAR(prof.seconds("comp/inversion"), hist.sum(), 1e-9 * hist.sum());
}

std::string tmp_dir(const std::string& name) {
  // PID-qualified: ctest may run this binary concurrently with itself.
  const std::string dir = "/tmp/hylo_test_refresh_txn_" +
                          std::to_string(::getpid()) + "_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<real_t> flat_weights(Network& net) {
  std::vector<real_t> out;
  for (auto* pb : net.param_blocks())
    out.insert(out.end(), pb->w.data(), pb->w.data() + pb->w.size());
  return out;
}

// Interrupt an async run at a snapshot taken while refresh chains were in
// flight and resume it: losses, metrics, the modeled timeline and the
// weights must match the uninterrupted run bitwise.
void expect_async_resume_bitwise(const std::string& name) {
  const std::string dir = tmp_dir(name);
  auto make_net = [] { return make_mlp({2, 1, 1}, {16}, 2, 3); };
  auto make_cfg = [] {
    TrainConfig tc;
    tc.epochs = 2;
    tc.batch_size = 16;
    tc.world = 2;
    tc.max_iters_per_epoch = 6;
    tc.interconnect = mist_v100();
    tc.comm_mode = CommMode::kAsync;  // pinned (env-proof)
    tc.faults = FaultConfig{};        // pinned fault-free (env-proof)
    return tc;
  };
  OptimConfig oc = small_config();
  oc.update_freq = 3;

  Network ref_net = make_net();
  auto ref_opt = make_curvature(name, oc);
  Trainer ref(ref_net, *ref_opt, spirals(), make_cfg());
  const TrainResult ref_res = ref.run();

  Network snap_net = make_net();
  auto snap_opt = make_curvature(name, oc);
  TrainConfig snap_cfg = make_cfg();
  snap_cfg.checkpoint.dir = dir;
  snap_cfg.checkpoint.every = 1;
  snap_cfg.checkpoint.keep = 0;
  Trainer snapper(snap_net, *snap_opt, spirals(), snap_cfg);
  snapper.run();

  // The earliest snapshot whose optimizer section carries in-flight chains.
  std::string resume_from;
  for (const std::string& path : ckpt::list_snapshots(dir)) {
    Network probe_net = make_net();
    auto probe = make_curvature(name, oc);
    const ckpt::SnapshotReader snap(path);
    ckpt::ByteReader r = snap.open("optimizer");
    probe->load_state(probe_net, r);
    if (probe->async_pending() > 0) {
      resume_from = path;
      break;
    }
  }
  ASSERT_FALSE(resume_from.empty()) << name << ": no snapshot with chains";

  Network res_net = make_net();
  auto res_opt = make_curvature(name, oc);
  Trainer resumer(res_net, *res_opt, spirals(), make_cfg());
  const TrainResult res_res = resumer.resume(resume_from);

  ASSERT_EQ(ref_res.epochs.size(), res_res.epochs.size()) << name;
  for (std::size_t e = 0; e < ref_res.epochs.size(); ++e) {
    EXPECT_EQ(ref_res.epochs[e].train_loss, res_res.epochs[e].train_loss)
        << name;
    EXPECT_EQ(ref_res.epochs[e].test_metric, res_res.epochs[e].test_metric)
        << name;
  }
  EXPECT_EQ(ref.comm().timeline()->horizon(),
            resumer.comm().timeline()->horizon());
  EXPECT_EQ(ref.comm().comm_seconds(), resumer.comm().comm_seconds());
  EXPECT_EQ(flat_weights(ref_net), flat_weights(res_net)) << name;
  std::filesystem::remove_all(dir);
}

TEST(AsyncRefreshResume, Ekfac) { expect_async_resume_bitwise("EKFAC"); }
TEST(AsyncRefreshResume, Kbfgs) { expect_async_resume_bitwise("KBFGS-L"); }
TEST(AsyncRefreshResume, Sngd) { expect_async_resume_bitwise("SNGD"); }
TEST(AsyncRefreshResume, HyloKid) { expect_async_resume_bitwise("HyLo-KID"); }
TEST(AsyncRefreshResume, HyloKis) { expect_async_resume_bitwise("HyLo-KIS"); }

}  // namespace
}  // namespace hylo
