// hylo_perfbench — the repository's training benchmark program.
//
//   hylo_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--out-dir DIR] [--git-rev REV]
//
// Closed loop, one training job at a time, within S seconds. Untraced jobs
// time Trainer::run() unchanged and give the end-to-end metrics
// (--trace 0). With --trace 1 the first half of the time runs untraced
// jobs — the reference for the loss check and the tracing overhead — and
// the second half traced jobs, followed by the linalg replay; the
// per-layer metrics come from those. Prints one record line (provenance,
// units, sample counts, checks) and then the result line
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// and writes the record and the Chrome trace under --out-dir.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "hylo/common/check.hpp"
#include "hylo/common/timer.hpp"
#include "hylo/obs/json.hpp"
#include "hylo/par/thread_pool.hpp"
#include "hylo/tensor/kernel_dispatch.hpp"
#include "cpu_timer.hpp"
#include "stats.hpp"
#include "traced_run.hpp"
#include "workloads.hpp"

namespace {

using hylo::index_t;
using hylo::obs::Json;
using perfbench::WorkloadSpec;
namespace fs = std::filesystem;

constexpr int kLinalgReps = 7;
constexpr std::size_t kMinSetups = 7;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string out_dir = ".bench_build/out";
  std::string git_rev = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    HYLO_CHECK(i + 1 < argc, "flag " << flag << " needs a value");
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stoi(v);
    } else if (flag == "--trace") {
      a.trace = std::stoi(v);
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else if (flag == "--git-rev") {
      a.git_rev = v;
    } else {
      HYLO_CHECK(false, "unknown flag " << flag);
    }
  }
  HYLO_CHECK(!a.workload.empty() && have_seed && a.seconds >= 1 &&
                 (a.trace == 0 || a.trace == 1),
             "usage: hylo_perfbench --workload NAME --seed N --seconds S "
             "--trace 0|1 [--out-dir DIR] [--git-rev REV]");
  return a;
}

int cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

/// The pool size must be pinned through HYLO_NUM_THREADS, no higher than
/// the CPUs this process may use: unpinned throughput was seen to swing 2x.
int pinned_threads(int nproc) {
  const char* env = std::getenv("HYLO_NUM_THREADS");
  HYLO_CHECK(env != nullptr && *env != '\0',
             "HYLO_NUM_THREADS must pin the thread pool (1.." << nproc << ")");
  const int n = std::atoi(env);
  HYLO_CHECK(n >= 1 && n <= nproc,
             "HYLO_NUM_THREADS=" << env << " outside 1.." << nproc);
  HYLO_CHECK(hylo::par::num_threads() == n,
             "thread pool did not take HYLO_NUM_THREADS=" << n);
  return n;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct UntracedJob {
  double setup_s = 0.0;      ///< wall seconds of set_up()
  double setup_cpu_s = 0.0;  ///< CPU seconds of set_up()
  /// Wall seconds of each epoch of Trainer::run(): iterations, evaluation
  /// and everything else run() does, cut at the trainer's epoch hook.
  std::vector<double> epoch_s;
  /// CPU seconds of the same epochs.
  std::vector<double> epoch_cpu_s;
  index_t iterations = 0;
  double comm_ms_per_iter = 0.0;
  std::vector<double> epoch_loss;
  double test_metric = 0.0;
  std::string error;  ///< non-empty when the job aborted
};

/// A job ready to run, and the seconds its set-up took: dataset
/// generation and the model, optimizer and Trainer construction.
struct SetUp {
  perfbench::Job job;
  std::unique_ptr<hylo::Trainer> trainer;
  double seconds = 0.0;
  double cpu_seconds = 0.0;  ///< CPU seconds of the same set-up
};

SetUp set_up(const WorkloadSpec& spec, std::uint64_t seed,
             const std::string& ckpt_dir) {
  hylo::WallTimer timer;
  perfbench::CpuTimer cpu;
  SetUp s;
  s.job = perfbench::make_job(spec, seed, ckpt_dir);
  s.trainer = std::make_unique<hylo::Trainer>(*s.job.net, *s.job.opt,
                                              *s.job.data, s.job.config);
  s.seconds = timer.seconds();
  s.cpu_seconds = cpu.seconds();
  return s;
}

UntracedJob run_untraced(const WorkloadSpec& spec, std::uint64_t seed,
                         const std::string& ckpt_dir) {
  UntracedJob j;
  try {
    SetUp s = set_up(spec, seed, ckpt_dir);
    j.setup_s = s.seconds;
    j.setup_cpu_s = s.cpu_seconds;
    hylo::WallTimer run;
    perfbench::CpuTimer run_cpu;
    double last_end = 0.0, last_cpu_end = 0.0;
    s.trainer->set_epoch_hook([&](const hylo::EpochStats&, hylo::Network&) {
      const double end = run.seconds();
      const double cpu_end = run_cpu.seconds();
      j.epoch_s.push_back(end - last_end);
      j.epoch_cpu_s.push_back(cpu_end - last_cpu_end);
      last_end = end;
      last_cpu_end = cpu_end;
    });
    run.restart();
    run_cpu.restart();
    const hylo::TrainResult res = s.trainer->run();
    j.iterations = res.iterations;
    j.comm_ms_per_iter =
        res.comm_seconds / static_cast<double>(res.iterations) * 1e3;
    for (const auto& e : res.epochs) j.epoch_loss.push_back(e.train_loss);
    j.test_metric = res.epochs.back().test_metric;
  } catch (const std::exception& e) {
    j.error = e.what();
  }
  fs::remove_all(ckpt_dir);
  return j;
}

/// One training iteration is one operation.
struct Accounting {
  index_t attempted = 0;
  index_t failed = 0;
  Json reasons = Json::array();

  void fail(index_t ops, const std::string& why) {
    failed += ops;
    reasons.push(why);
  }
};

void report_layers(perfbench::MetricSet& rep, const WorkloadSpec& spec,
                   const perfbench::Tracer& tr,
                   const std::vector<perfbench::TracedJob>& traced,
                   const perfbench::LinalgReplay& lin,
                   double untraced_samples_per_cpu_s) {
  auto ms = [&](const char* name) { return tr.durations_ms(name); };
  auto total = [&](const char* name) { return tr.total_ms(name); };
  double iterations = 0, refreshes = 0, kid = 0, wire = 0, msgs = 0;
  std::vector<double> traced_rate, snapshot_mb;
  for (const auto& t : traced) {
    iterations += static_cast<double>(t.iterations);
    refreshes += static_cast<double>(t.refreshes);
    kid += static_cast<double>(t.kid_refreshes);
    wire += t.wire_bytes;
    msgs += t.messages;
    for (const double s : t.epoch_cpu_s)
      traced_rate.push_back(static_cast<double>(spec.iters_per_epoch) *
                            static_cast<double>(spec.samples_per_iter()) / s);
    for (const double b : t.snapshot_bytes) snapshot_mb.push_back(b / 1e6);
  }
  const perfbench::TracedJob& last = traced.back();
  const double step_ms = total("step");
  const double fwd_bwd_ms =
      total("nn.forward") + total("nn.backward") + total("nn.backward_capture");
  const double nn_ms = fwd_bwd_ms + total("nn.loss") + total("nn.zero_grad");
  const double optim_ms =
      total("optim.refresh") + total("optim.accumulate") + total("optim.step");
  const double samples =
      iterations * static_cast<double>(spec.samples_per_iter());

  rep.add_p50("data.next_ms_p50", ms("data.next"), "ms");

  rep.add_p50("nn.forward_ms_p50", ms("nn.forward"), "ms");
  rep.add_tail("nn.forward_ms_tail", ms("nn.forward"), "ms");
  const auto bwd = ms("nn.backward");
  rep.add_p50("nn.backward_ms_p50",
              bwd.empty() ? ms("nn.backward_replay") : bwd, "ms");
  rep.add_p50("nn.backward_capture_ms_p50", ms("nn.backward_capture"), "ms");
  rep.add_p50("nn.eval_ms", ms("nn.eval"), "ms");
  rep.add("nn.gflops",
          last.train_flops_per_sample * samples / (fwd_bwd_ms * 1e-3) / 1e9,
          "GFLOP/s",
          Json::object().set("flops_per_sample", last.train_flops_per_sample));
  rep.add("nn.share", nn_ms / step_ms, "fraction");

  rep.add_p50("optim.refresh_ms_p50", ms("optim.refresh"), "ms");
  rep.add_tail("optim.refresh_ms_tail", ms("optim.refresh"), "ms");
  rep.add_p50("optim.step_ms_p50", ms("optim.step"), "ms");
  rep.add("optim.refreshes", static_cast<double>(last.refreshes), "count",
          Json::object().set("per", "traced job"));
  rep.add("optim.share", optim_ms / step_ms, "fraction");
  rep.add("optim.state_mb", last.state_bytes / 1e6, "MB");
  // HyLo only: KFAC keeps no low-rank factors and has no KID mode (0).
  rep.add("optim.rank_r", static_cast<double>(last.rank_r), "rows");
  rep.add("optim.kid_refresh_share", refreshes > 0 ? kid / refreshes : 0.0,
          "fraction");

  const auto reps = Json::object().set("samples", lin.reps);
  rep.add("linalg.gram_ms", lin.gram_ms, "ms", reps);
  rep.add("linalg.id_ms", lin.id_ms, "ms", reps);
  rep.add("linalg.smw_inverse_ms", lin.smw_inverse_ms, "ms", reps);
  rep.add("linalg.cov_ms", lin.cov_ms, "ms", reps);
  rep.add("linalg.spd_inverse_ms", lin.spd_inverse_ms, "ms", reps);
  rep.add("linalg.gflops", lin.gflops, "GFLOP/s", reps);

  rep.add("dist.wire_mb_per_iter", wire / 1e6 / iterations, "MB",
          Json::object().set("modeled", true));
  rep.add("dist.messages_per_iter", msgs / iterations, "count",
          Json::object().set("modeled", true));
  rep.add_p50("dist.allreduce_ms_p50", ms("dist.allreduce"), "ms");

  rep.add_p50("ckpt.write_ms", ms("ckpt.write"), "ms");
  rep.add_p50("ckpt.snapshot_mb", snapshot_mb, "MB");

  rep.add_p50("step.ms_p50", ms("step"), "ms");
  rep.add_tail("step.ms_tail", ms("step"), "ms");
  const double traced_samples_per_cpu_s = perfbench::median(traced_rate);
  rep.add("trace.overhead_pct",
          (untraced_samples_per_cpu_s - traced_samples_per_cpu_s) /
              untraced_samples_per_cpu_s * 100.0,
          "%",
          Json::object()
              .set("untraced_samples_per_cpu_s", untraced_samples_per_cpu_s)
              .set("traced_samples_per_cpu_s", traced_samples_per_cpu_s));
}

int run(const Args& args) {
  const WorkloadSpec& spec = perfbench::find_workload(args.workload);
  const int nproc = cpu_count();
  const int threads = pinned_threads(nproc);
  const std::string tier = hylo::kern::tier_name(hylo::kern::active());
  fs::create_directories(args.out_dir);
  const std::string tag = spec.name + "-seed" + std::to_string(args.seed) +
                          "-trace" + std::to_string(args.trace);
  const std::string ckpt_dir =
      (fs::path(args.out_dir) / ("ckpt-" + std::to_string(getpid())))
          .string();

  const double chance = 1.0 / static_cast<double>(perfbench::kClasses);
  const double samples_per_iter = static_cast<double>(spec.samples_per_iter());
  const index_t ops = spec.iterations();
  Accounting acc;
  hylo::WallTimer clock;
  // Jobs run whole, so a job starts only if one as long as the longest so
  // far still ends within the budget (the first always starts): the run
  // then ends near --seconds however slow the host is at the moment.
  double longest_job_s = 0.0;
  auto next_job_fits = [&](double start_s, double budget_s) {
    const double now = clock.seconds();
    longest_job_s = std::max(longest_job_s, now - start_s);
    return now + longest_job_s <= budget_s;
  };

  // --- Untraced jobs: Trainer::run() as users call it --------------------
  const double untraced_budget =
      args.trace == 1 ? 0.5 * args.seconds : static_cast<double>(args.seconds);
  std::vector<UntracedJob> jobs;
  std::vector<double> reference_loss;  // first completed job's epoch losses
  double job_start_s = 0.0;
  do {
    job_start_s = clock.seconds();
    jobs.push_back(run_untraced(spec, args.seed, ckpt_dir));
    const UntracedJob& j = jobs.back();
    acc.attempted += ops;
    const std::string job_tag = "untraced job " + std::to_string(jobs.size());
    if (!j.error.empty()) {
      acc.fail(ops, job_tag + " aborted: " + j.error);
      continue;
    }
    for (const double loss : j.epoch_loss)
      if (!std::isfinite(loss))
        acc.fail(spec.iters_per_epoch, job_tag + ": non-finite epoch loss");
    if (j.test_metric <= chance)
      acc.fail(ops, job_tag + ": test metric at or below chance");
    if (reference_loss.empty())
      reference_loss = j.epoch_loss;
    else if (j.epoch_loss != reference_loss)
      acc.fail(ops, job_tag + ": epoch losses differ from job 1 (same seed)");
  } while (next_job_fits(job_start_s, untraced_budget));
  const double rss_mb = peak_rss_mb();

  // Throughput is taken per epoch and reported as the median over every
  // epoch of every job: a burst of host contention then spoils one sample
  // instead of a whole job.
  const double samples_per_epoch =
      static_cast<double>(spec.iters_per_epoch) * samples_per_iter;
  std::vector<double> setup_s, setup_cpu_s, throughput, cpu_throughput;
  std::vector<double> comm_ms, final_loss, test_metric;
  for (const auto& j : jobs) {
    if (!j.error.empty()) continue;
    setup_s.push_back(j.setup_s);
    setup_cpu_s.push_back(j.setup_cpu_s);
    for (const double s : j.epoch_s)
      throughput.push_back(samples_per_epoch / s);
    for (const double s : j.epoch_cpu_s)
      cpu_throughput.push_back(samples_per_epoch / s);
    comm_ms.push_back(j.comm_ms_per_iter);
    final_loss.push_back(j.epoch_loss.back());
    test_metric.push_back(j.test_metric);
  }

  perfbench::MetricSet rep;
  std::string trace_path;
  if (args.trace == 0 && !cpu_throughput.empty()) {
    const Json n = Json::object().set(
        "samples", static_cast<std::int64_t>(setup_s.size()));
    // Both timings are in CPU seconds; the wall-clock figures go to the
    // record. With one pinned thread the two agree on a quiet host, but the
    // wall clock also counts the time slices other processes take: with six
    // busy loops on 4 CPUs, wall throughput fell by 40% while CPU
    // throughput stayed within 2%.
    const auto epochs = static_cast<std::int64_t>(cpu_throughput.size());
    rep.add("train_samples_per_cpu_s", perfbench::median(cpu_throughput),
            "samples/cpu_s",
            Json::object()
                .set("samples", epochs)
                .set("wall_samples_per_s", perfbench::median(throughput)));
    // Set-up is short and noisy: top up to kMinSetups measurements.
    std::vector<double> setups = setup_s, setups_cpu = setup_cpu_s;
    while (setups.size() < kMinSetups) {
      const SetUp su = set_up(spec, args.seed, ckpt_dir);
      setups.push_back(su.seconds);
      setups_cpu.push_back(su.cpu_seconds);
    }
    rep.add("setup_s", perfbench::median(setups_cpu), "s",
            Json::object()
                .set("samples", static_cast<std::int64_t>(setups_cpu.size()))
                .set("clock", "cpu")
                .set("wall_s", perfbench::median(setups)));
    // Modeled α-β wire time, never added to the measured times.
    rep.add("sim_comm_ms_per_iter", perfbench::median(comm_ms), "modeled_ms",
            Json(n).set("modeled", true));
    rep.add("final_train_loss", perfbench::median(final_loss), "nats", n);
    rep.add("final_test_metric", perfbench::median(test_metric), "accuracy",
            n);
    rep.add("peak_rss_mb", rss_mb, "MB");
  }

  // --- Traced jobs and the linalg replay ---------------------------------
  if (args.trace == 1) {
    perfbench::Tracer tracer;
    std::vector<perfbench::TracedJob> traced;
    longest_job_s = 0.0;
    do {
      job_start_s = clock.seconds();
      tracer.set_job(static_cast<std::int64_t>(traced.size()));
      acc.attempted += ops;
      const std::string job_tag =
          "traced job " + std::to_string(traced.size() + 1);
      try {
        perfbench::Job job = perfbench::make_job(spec, args.seed, ckpt_dir);
        traced.push_back(perfbench::run_traced(spec, job, tracer, ckpt_dir));
      } catch (const std::exception& e) {
        fs::remove_all(ckpt_dir);
        acc.fail(ops, job_tag + " aborted: " + e.what());
        break;
      }
      fs::remove_all(ckpt_dir);
      const perfbench::TracedJob& t = traced.back();
      if (t.nonfinite_iterations > 0)
        acc.fail(t.nonfinite_iterations, job_tag + ": non-finite loss");
      if (t.test_metric <= chance)
        acc.fail(ops, job_tag + ": test metric at or below chance");
      else if (t.epoch_train_loss != reference_loss)
        acc.fail(ops, job_tag +
                          ": per-epoch train loss differs from the untraced "
                          "Trainer::run()");
    } while (next_job_fits(job_start_s, args.seconds));

    if (!traced.empty() && !cpu_throughput.empty()) {
      const perfbench::LinalgReplay lin = perfbench::replay_linalg(
          traced.front().capture.value(), perfbench::optim_config(spec),
          kLinalgReps,
          tracer);
      report_layers(rep, spec, tracer, traced, lin,
                    perfbench::median(cpu_throughput));
    }
    trace_path =
        (fs::path(args.out_dir) / ("trace-" + tag + ".json")).string();
    tracer.write_chrome_trace(trace_path);
  }

  // --- Record + result ---------------------------------------------------
  const bool correct = acc.failed == 0 && rep.result.size() > 0;
  Json result = Json::object()
                    .set("correct", correct)
                    .set("attempted", acc.attempted)
                    .set("failed", acc.failed)
                    .set("metrics", rep.result);
  Json record =
      Json::object()
          .set("workload", spec.name)
          .set("seed", static_cast<std::int64_t>(args.seed))
          .set("seconds", args.seconds)
          .set("trace", args.trace)
          .set("provenance",
               Json::object()
                   .set("nproc", nproc)
                   .set("threads", threads)
                   .set("kernel_tier", tier)
                   .set("build_type", PERFBENCH_BUILD_TYPE)
                   .set("git_rev", args.git_rev))
          .set("config",
               Json::object()
                   .set("optimizer", spec.optimizer)
                   .set("world", spec.world)
                   .set("batch", spec.batch)
                   .set("update_freq", spec.update_freq)
                   .set("epochs", spec.epochs)
                   .set("iters_per_epoch", spec.iters_per_epoch)
                   .set("snapshot_every", spec.snapshot_every)
                   .set("load", "closed loop, one job at a time"))
          .set("untraced_jobs", static_cast<std::int64_t>(jobs.size()))
          .set("failures", acc.reasons)
          .set("metrics", rep.detail)
          .set("trace_file", trace_path);
  std::ofstream(fs::path(args.out_dir) / ("record-" + tag + ".json"))
      << record.dump() << '\n';
  std::cout << Json::object().set("perfbench_record", record).dump() << '\n'
            << result.dump() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "hylo_perfbench: " << e.what() << '\n';
    return 2;
  }
}
