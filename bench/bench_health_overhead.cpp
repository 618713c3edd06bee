// Health-probe overhead: wall-time cost of the per-layer curvature probes
// (DESIGN.md §12) vs probing cadence for the ResNet-32 proxy under the
// HyLo optimizer. The same schedule runs with probes off and at cadence
// {4, 1}, kReps times each: every repetition runs the three settings back
// to back, probes-off first on even repetitions and last on odd ones, so
// host drift lands on both sides. Each setting records the median and
// quartiles of its wall time, and each cadence the median and quartiles of
// its per-repetition ratio to the probes-off run beside it. Every run's
// final weights are checked bitwise against the probe-free baseline — the
// probes are pure observers and must not perturb training at ANY cadence,
// not just when disabled. Writes BENCH_health.json for the repo record.
//
// Geometry: HYLO_BENCH_SCALE=large quadruples the iterations per epoch.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench_common.hpp"

using namespace hylo;
using namespace hylo::bench;

namespace {

struct RunOut {
  double wall_seconds = 0.0;
  std::vector<real_t> weights;
  index_t probes = 0;
  index_t alerts = 0;
  TrainResult result;
};

std::vector<real_t> flat_weights(Network& net) {
  std::vector<real_t> out;
  for (auto* pb : net.param_blocks())
    out.insert(out.end(), pb->w.data(), pb->w.data() + pb->w.size());
  for (auto pp : net.plain_params())
    out.insert(out.end(), pp.value->begin(), pp.value->end());
  return out;
}

bool bitwise_equal(const std::vector<real_t>& x, const std::vector<real_t>& y) {
  if (x.size() != y.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i)
    if (x[i] != y[i]) return false;
  return true;
}

}  // namespace

int main() {
  const Workload w = make_workload("resnet32");
  const index_t iters = large_scale() ? 48 : 12;

  // cadence < 0 encodes "probes disabled" (the baseline).
  auto run_at = [&](index_t cadence) {
    Network net = w.make_model();
    OptimConfig oc = method_config("HyLo");
    auto opt = make_optimizer("HyLo", oc);
    TrainConfig tc;
    tc.epochs = 2;
    tc.batch_size = 8;
    tc.world = 4;
    tc.interconnect = mist_v100();
    tc.max_iters_per_epoch = iters;
    tc.faults = FaultConfig{};  // pin ambient HYLO_FAULTS off: runs compare bitwise
    obs::HealthConfig hc;       // pin ambient HYLO_HEALTH off likewise
    hc.enabled = cadence >= 0;
    hc.cadence = cadence >= 0 ? cadence : 1;
    tc.health = hc;
    Trainer trainer(net, *opt, w.data, tc);
    RunOut out;
    WallTimer timer;
    out.result = trainer.run();
    out.wall_seconds = timer.seconds();
    out.weights = flat_weights(net);
    out.probes = trainer.health().probes();
    out.alerts = out.result.alerts_fired;
    return out;
  };

  constexpr int kReps = 5;
  const index_t cadences[] = {4, 1};
  std::cout << "Health-probe overhead — " << w.paper_name << " proxy ("
            << w.proxy_desc << "), HyLo, P=4, 2 epochs x " << iters
            << " iters, " << kReps << " alternating reps\n\n";

  const std::vector<real_t> baseline = run_at(-1).weights;  // warm-up run
  std::vector<real_t> off_s;
  std::vector<std::vector<real_t>> on_s(2), ratio(2);
  std::vector<RunOut> last(2);
  bool bitwise[2] = {true, true};
  for (int rep = 0; rep < kReps; ++rep) {
    const bool off_first = rep % 2 == 0;
    double off = 0.0;
    if (off_first) off = run_at(-1).wall_seconds;
    for (std::size_t c = 0; c < 2; ++c) {
      last[c] = run_at(cadences[c]);
      bitwise[c] = bitwise[c] && bitwise_equal(last[c].weights, baseline);
      on_s[c].push_back(last[c].wall_seconds);
    }
    if (!off_first) off = run_at(-1).wall_seconds;
    off_s.push_back(off);
    for (std::size_t c = 0; c < 2; ++c) ratio[c].push_back(on_s[c].back() / off);
  }

  auto quartiles = [](const std::vector<real_t>& v) {
    obs::Json q = obs::Json::object();
    q.set("median", percentile(v, 50));
    q.set("q1", percentile(v, 25));
    q.set("q3", percentile(v, 75));
    return q;
  };
  std::cout << "  probes off: median " << percentile(off_s, 50) << " s [q1 "
            << percentile(off_s, 25) << ", q3 " << percentile(off_s, 75)
            << "]\n";

  CsvWriter table({"cadence", "probes", "wall_median_s", "overhead_median",
                   "overhead_q1", "overhead_q3", "alerts", "bitwise_vs_off"});
  obs::Json rows = obs::Json::array();
  for (std::size_t c = 0; c < 2; ++c) {
    table.add(cadences[c], last[c].probes, percentile(on_s[c], 50),
              percentile(ratio[c], 50), percentile(ratio[c], 25),
              percentile(ratio[c], 75), last[c].alerts,
              bitwise[c] ? "yes" : "NO");
    obs::Json row = obs::Json::object();
    row.set("cadence", cadences[c]);
    row.set("probes", last[c].probes);
    row.set("reps", kReps);
    row.set("wall_seconds", quartiles(on_s[c]));
    row.set("overhead_vs_off_x", quartiles(ratio[c]));
    row.set("alerts_fired", last[c].alerts);
    row.set("bitwise_final_weights", bitwise[c]);
    rows.push(std::move(row));
  }
  table.print_table();

  obs::Json doc = obs::Json::object();
  doc.set("bench", "health_overhead");
  doc.set("workload", w.paper_name);
  doc.set("proxy", w.proxy_desc);
  doc.set("world", 4);
  doc.set("epochs", 2);
  doc.set("iters_per_epoch", iters);
  doc.set("reps", kReps);
  doc.set("baseline_wall_seconds", quartiles(off_s));
  doc.set("cadences", std::move(rows));
  std::ofstream out("BENCH_health.json");
  doc.dump(out);
  out << "\n";
  std::cout << "wrote BENCH_health.json\n";

  if (!bitwise[0] || !bitwise[1]) {
    std::cerr << "bitwise mismatch: health probes perturbed training\n";
    return 1;
  }
  return 0;
}
