// hylo_train — command-line trainer mirroring the paper artifact's
// train-*.sh interface. Mix and match model, dataset, optimizer, worker
// count and the analysis flags the artifact exposes:
//
//   ./examples/hylo_train --model resnet32 --optimizer HyLo --world 8
//       --epochs 10 --batch 16 --lr 0.1 --damping 0.3 --freq 10
//       --rank-ratio 0.1 --profiling --rank-analysis --grad-norm
//       --checkpoint model.ckpt
//   (one command line; wrapped here for readability)
//
// Flags (all optional; sensible defaults):
//   --model {mlp,c3f1,resnet32,resnet50,densenet,unet}
//   --optimizer {SGD,ADAM,KFAC,EKFAC,KBFGS-L,SNGD,HyLo}
//   --world N --epochs N --batch N --max-iters N --seed N
//   --lr X --damping X --freq N --rank-ratio X --kl-clip X
//   --wire-bytes X        (4=FP32, 2=FP16, 2.625=21-bit of Ueno et al.)
//   --interconnect {mist,p2,loopback}
//   --target X            (early-stop test metric)
//   --telemetry DIR       (write DIR/run.jsonl + DIR/trace.json; load the
//                          trace in chrome://tracing or ui.perfetto.dev)
//   --no-step-log         (with --telemetry: epoch records only)
//   --faults SPEC         (deterministic fault injection, SPEC =
//                          seed:rate[:mix] as for HYLO_FAULTS, e.g.
//                          --faults 7:0.05:timeout=1,rank_down=2; the flag
//                          overrides the environment spec)
//   --health              (enable training-health probes + alert engine;
//                          see DESIGN.md §12)
//   --health-cadence N    (probe every Nth refresh opportunity; implies
//                          --health; default 1)
//   --strict-health       (implies --health; exit 3 if any critical alert
//                          fired — CI gates on this)
//   --profiling           (dump the comp/comm profiler at the end)
//   --grad-norm           (print HyLo's Δ-norm history)
//   --rank-analysis       (print the low rank used per refresh)
//   --checkpoint PATH     (save final weights)
//   --checkpoint-dir DIR  (write crash-safe run snapshots under DIR; pairs
//                          with --checkpoint-every; overrides HYLO_CKPT_*)
//   --checkpoint-every N  (snapshot cadence in iterations; 0 disables)
//   --checkpoint-keep N   (retain the newest N snapshots; default 3)
//   --resume PATH         (restore a run snapshot and continue training
//                          bitwise-identically; appends to the interrupted
//                          run's telemetry when --telemetry points at it)
//   --recover SPEC        (checkpoint-rollback self-healing, SPEC =
//                          on|off|BUDGET[:FO_ITERS[:LR_BACKOFF]] as for
//                          HYLO_RECOVER, e.g. --recover 5:40:0.25; needs
//                          --checkpoint-dir/-every; the flag overrides the
//                          environment spec — see DESIGN.md §16)
//   --help                (print the option table and exit 0)
//
// An unknown option, a missing value or a malformed number (`--epochs x`,
// `--lr 0.1x`) prints a message naming the option and exits 2.
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "hylo/hylo.hpp"

namespace {
using namespace hylo;

enum class Kind { kFlag, kInt, kReal, kText };

struct Option {
  const char* name;
  Kind kind;
  const char* help;
};

// Every option hylo_train accepts; anything else is a usage error.
const Option kOptions[] = {
    {"model", Kind::kText, "mlp|c3f1|resnet32|resnet50|densenet|unet"},
    {"optimizer", Kind::kText, "SGD|ADAM|KFAC|EKFAC|KBFGS-L|SNGD|HyLo"},
    {"world", Kind::kInt, "simulated worker count (default 1)"},
    {"epochs", Kind::kInt, "training epochs (default 8)"},
    {"batch", Kind::kInt, "per-worker batch size (default 16)"},
    {"max-iters", Kind::kInt, "iteration cap per epoch (-1: none)"},
    {"seed", Kind::kInt, "data and weight seed (default 42)"},
    {"lr", Kind::kReal, "learning rate"},
    {"weight-decay", Kind::kReal, "L2 weight decay (default 5e-4)"},
    {"damping", Kind::kReal, "curvature damping (default 0.3)"},
    {"freq", Kind::kInt, "curvature refresh period in iterations"},
    {"rank-ratio", Kind::kReal, "HyLo low-rank ratio (default 0.1)"},
    {"kl-clip", Kind::kReal, "KL trust-region clip (default 0.01)"},
    {"wire-bytes", Kind::kReal, "bytes per wire scalar (4, 2, 2.625)"},
    {"interconnect", Kind::kText, "mist|p2|loopback"},
    {"target", Kind::kReal, "early-stop test metric (-1: none)"},
    {"telemetry", Kind::kText, "DIR for run.jsonl + trace.json"},
    {"no-step-log", Kind::kFlag, "with --telemetry: epoch records only"},
    {"faults", Kind::kText, "fault spec seed:rate[:mix] (as HYLO_FAULTS)"},
    {"health", Kind::kFlag, "training-health probes + alert engine"},
    {"health-cadence", Kind::kInt, "probe every Nth refresh (implies --health)"},
    {"strict-health", Kind::kFlag, "exit 3 on a critical alert"},
    {"profiling", Kind::kFlag, "dump the comp/comm profiler at the end"},
    {"grad-norm", Kind::kFlag, "print HyLo's delta-norm history"},
    {"rank-analysis", Kind::kFlag, "print the last low rank used"},
    {"checkpoint", Kind::kText, "PATH to save the final weights"},
    {"checkpoint-dir", Kind::kText, "DIR for crash-safe run snapshots"},
    {"checkpoint-every", Kind::kInt, "snapshot cadence in iterations (0: off)"},
    {"checkpoint-keep", Kind::kInt, "snapshots retained (default 3)"},
    {"resume", Kind::kText, "PATH of a run snapshot to continue from"},
    {"recover", Kind::kText, "on|off|BUDGET[:FO_ITERS[:LR_BACKOFF]]"},
    {"help", Kind::kFlag, "print this table and exit"},
};

/// A command line hylo_train does not understand (exit status 2).
struct UsageError {
  std::string message;
};

const Option* find_option(const std::string& name) {
  for (const Option& o : kOptions)
    if (name == o.name) return &o;
  return nullptr;
}

void print_usage(std::ostream& os) {
  os << "usage: hylo_train [--option value | --flag]...\n";
  for (const Option& o : kOptions) {
    std::string lhs = std::string("  --") + o.name;
    if (o.kind == Kind::kInt) lhs += " N";
    if (o.kind == Kind::kReal) lhs += " X";
    if (o.kind == Kind::kText) lhs += " S";
    os << lhs << std::string(lhs.size() < 26 ? 26 - lhs.size() : 1, ' ')
       << o.help << "\n";
  }
}

// The whole value must be a finite number (an integer for Kind::kInt).
void check_number(const Option& o, const std::string& value) {
  const char* begin = value.c_str();
  char* end = nullptr;
  errno = 0;
  bool ok = !value.empty();
  if (o.kind == Kind::kInt) {
    (void)std::strtoll(begin, &end, 10);
  } else {
    const double v = std::strtod(begin, &end);
    ok = ok && std::isfinite(v);
  }
  ok = ok && errno == 0 && end != nullptr && *end == '\0';
  if (!ok)
    throw UsageError{std::string("--") + o.name + " expects " +
                     (o.kind == Kind::kInt ? "an integer" : "a number") +
                     ", got '" + value + "'"};
}

struct Args {
  std::map<std::string, std::string> kv;
  std::map<std::string, bool> flags;

  std::string get(const std::string& key, const std::string& def) const {
    const auto it = kv.find(key);
    return it == kv.end() ? def : it->second;
  }
  double getd(const std::string& key, double def) const {
    const auto it = kv.find(key);
    return it == kv.end() ? def : std::stod(it->second);
  }
  index_t geti(const std::string& key, index_t def) const {
    const auto it = kv.find(key);
    return it == kv.end() ? def : std::stoll(it->second);
  }
  bool has(const std::string& key) const { return flags.count(key) > 0; }
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0)
      throw UsageError{"unexpected argument '" + arg + "'"};
    const Option* o = find_option(arg.substr(2));
    if (o == nullptr) throw UsageError{"unknown option " + arg};
    if (o->kind == Kind::kFlag) {
      a.flags[o->name] = true;
      continue;
    }
    if (i + 1 >= argc) throw UsageError{"missing value for " + arg};
    const std::string value = argv[++i];
    if (o->kind != Kind::kText) check_number(*o, value);
    a.kv[o->name] = value;
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hylo;
  Args args;
  try {
    args = parse(argc, argv);
  } catch (const UsageError& e) {
    std::cerr << "hylo_train: " << e.message
              << " (run hylo_train --help for the option table)\n";
    return 2;
  }
  if (args.has("help")) {
    print_usage(std::cout);
    return 0;
  }

  const std::string model = args.get("model", "resnet32");
  const std::string optimizer = args.get("optimizer", "HyLo");
  const std::uint64_t seed = static_cast<std::uint64_t>(args.geti("seed", 42));

  // Dataset + model pairing.
  DataSplit data;
  Network net;
  if (model == "mlp") {
    data = make_spirals(1536, 384, 3, 0.05, seed);
    net = make_mlp({2, 1, 1}, {64, 64}, 3, seed);
  } else if (model == "c3f1") {
    data = make_gaussian_images(1536, 384, 10, 1, 16, 16, 0.9, seed);
    net = make_c3f1({1, 16, 16}, 10, 8, seed);
  } else if (model == "resnet32") {
    data = make_texture_images(1536, 384, 10, 3, 16, 16, 1.3, seed);
    net = make_resnet({3, 16, 16}, 10, 2, 8, seed);
  } else if (model == "resnet50") {
    data = make_texture_images(1536, 384, 10, 3, 16, 16, 1.2, seed);
    net = make_resnet({3, 16, 16}, 10, 2, 12, seed);
  } else if (model == "densenet") {
    data = make_texture_images(1536, 384, 10, 3, 16, 16, 0.4, seed);
    net = make_densenet({3, 16, 16}, 10, 8, 4, seed);
  } else if (model == "unet") {
    data = make_blob_segmentation(512, 128, 16, 16, 0.25, seed);
    net = make_unet({1, 16, 16}, 8, 2, seed);
  } else {
    std::cerr << "unknown --model " << model << "\n";
    return 1;
  }

  OptimConfig oc;
  oc.lr = args.getd("lr", optimizer == "ADAM" ? 0.002 : 0.1);
  oc.momentum = 0.9;
  oc.weight_decay = args.getd("weight-decay", 5e-4);
  oc.damping = args.getd("damping", 0.3);
  oc.update_freq = args.geti("freq", 10);
  oc.rank_ratio = args.getd("rank-ratio", 0.1);
  oc.kl_clip = args.getd("kl-clip", 0.01);
  auto opt = make_optimizer(optimizer, oc);

  TrainConfig tc;
  tc.epochs = args.geti("epochs", 8);
  tc.batch_size = args.geti("batch", 16);
  tc.world = args.geti("world", 1);
  tc.max_iters_per_epoch = args.geti("max-iters", -1);
  tc.target_metric = args.getd("target", -1.0);
  tc.wire_scalar_bytes = args.getd("wire-bytes", 4.0);
  tc.lr_schedule = {{tc.epochs * 2 / 3}, 0.1};
  tc.verbose = true;
  tc.telemetry.dir = args.get("telemetry", "");
  tc.telemetry.per_step = !args.has("no-step-log");
  const std::string net_name = args.get("interconnect", "mist");
  tc.interconnect = net_name == "mist" ? mist_v100()
                    : net_name == "p2" ? aws_p2_k80()
                                       : loopback();
  if (const std::string spec = args.get("faults", ""); !spec.empty())
    tc.faults = FaultConfig::parse(spec);
  tc.checkpoint.dir = args.get("checkpoint-dir", "");
  tc.checkpoint.every = args.geti("checkpoint-every", 0);
  tc.checkpoint.keep = args.geti("checkpoint-keep", 3);
  if (const std::string spec = args.get("recover", ""); !spec.empty())
    tc.recovery = RecoveryConfig::parse(spec);
  const bool strict_health = args.has("strict-health");
  if (args.has("health") || strict_health ||
      args.kv.count("health-cadence") > 0) {
    obs::HealthConfig hc;
    hc.enabled = true;
    hc.cadence = args.geti("health-cadence", 1);
    tc.health = hc;
  }
  const std::string resume_path = args.get("resume", "");
  if (!resume_path.empty()) tc.telemetry.append = true;

  std::cout << "hylo_train: " << model << " (" << net.num_params()
            << " params) + " << opt->name() << ", P=" << tc.world
            << ", batch=" << tc.batch_size << "/worker, wire="
            << tc.wire_scalar_bytes << "B/scalar\n";
  Trainer trainer(net, *opt, data, tc);
  if (!resume_path.empty())
    std::cout << "resuming from " << resume_path << "\n";
  const TrainResult res =
      resume_path.empty() ? trainer.run() : trainer.resume(resume_path);

  std::cout << "\nbest metric " << res.best_metric() << ", simulated time "
            << res.total_seconds << "s (" << res.compute_seconds
            << " parallel-compute + " << res.replicated_seconds
            << " replicated + " << res.comm_seconds << " comm)\n";
  if (res.time_to_target)
    std::cout << "reached target in " << *res.time_to_target << "s / "
              << *res.epochs_to_target << " epochs\n";
  if (trainer.run_log().enabled()) {
    std::cout << "telemetry: " << trainer.run_log().run_log_path() << " ("
              << trainer.run_log().records_written() << " records), "
              << trainer.run_log().trace_path()
              << " (open in chrome://tracing or https://ui.perfetto.dev)\n"
              << "wire totals: " << trainer.comm().total_wire_bytes()
              << " bytes over " << trainer.comm().total_messages()
              << " collectives\n";
  }

  if (trainer.comm().faults_active()) {
    auto& reg = trainer.comm().profiler().registry();
    std::cout << "faults: " << reg.counter_value("comm/faults/injected")
              << " injected over " << trainer.comm().fault_plan()->drawn()
              << " collectives ("
              << reg.counter_value("comm/faults/unrecoverable")
              << " unrecoverable)\n";
    if (reg.counter_value("dist/elastic/world_shrinks") > 0)
      std::cout << "elastic: "
                << reg.counter_value("dist/elastic/world_shrinks")
                << " rank(s) lost permanently, "
                << reg.counter_value("dist/elastic/layer_migrations")
                << " layer migrations, final world " << trainer.world()
                << "\n";
  }
  if (trainer.checkpoint_config().enabled())
    std::cout << "snapshots: every " << trainer.checkpoint_config().every
              << " iterations under " << trainer.checkpoint_config().dir
              << " (keep " << trainer.checkpoint_config().keep << ")\n";
  if (trainer.recovery().enabled())
    std::cout << "recovery: " << res.rollbacks << " rollback(s) of a budget "
              << trainer.recovery().config().max_rollbacks << ", last good "
              << (trainer.last_good_snapshot().empty()
                      ? "(none)"
                      : trainer.last_good_snapshot())
              << "\n";
  if (args.has("profiling")) {
    std::cout << "\nprofile:\n";
    for (const auto& [name, e] : trainer.profiler().sections())
      std::cout << "  " << name << ": " << e.seconds << "s x" << e.calls
                << "\n";
  }
  if (auto* hy = dynamic_cast<HyloOptimizer*>(opt.get()); hy != nullptr) {
    if (args.has("grad-norm")) {
      std::cout << "\ndelta-norm history:";
      for (const auto n : hy->delta_norm_history()) std::cout << " " << n;
      std::cout << "\nmodes:";
      for (const auto m : hy->mode_history())
        std::cout << " " << (m == HyloMode::kKid ? "KID" : "KIS");
      std::cout << "\n";
    }
    if (args.has("rank-analysis"))
      std::cout << "low rank at last refresh: " << hy->last_rank() << "\n";
  }
  if (const std::string ckpt = args.get("checkpoint", ""); !ckpt.empty()) {
    net.save_weights(ckpt);
    std::cout << "weights saved to " << ckpt << "\n";
  }
  if (trainer.health().enabled()) {
    std::cout << trainer.alerts().summary() << "\n"
              << "health: " << trainer.health().probes() << " probe(s), "
              << trainer.health().total_nonfinite()
              << " non-finite value(s) observed\n";
    if (strict_health && res.critical_alerts > 0) {
      std::cout << "strict-health: " << res.critical_alerts
                << " critical alert(s) — failing the run\n";
      return 3;
    }
  }
  return 0;
}
