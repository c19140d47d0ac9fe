// meanet_cli — a small command-line driver for the library, covering the
// full deployment workflow from the terminal:
//
//   meanet_cli train --out DIR [--classes N] [--hard N] [--epochs N]
//       runs Alg. 1 on a synthetic workload and saves the trained blocks
//       + class dictionary into DIR (the "cloud side" of the story);
//   meanet_cli eval --model DIR [--threshold T] [--policy entropy|margin]
//                   [--margin M] [--threads N] [--console]
//       loads the blocks (the "edge downloads the model" step), serves
//       routed inference on the matching test set through the
//       meanet::runtime session API (N worker threads sharing the one
//       loaded net), and reports accuracy, exit distribution and
//       detection accuracy; --console then drops into an interactive
//       diagnostics loop on the live session (providers / stats /
//       stats <provider> / watch / serve / quit) over the process
//       diag::DiagnosticRegistry;
//   meanet_cli info --model DIR
//       prints parameter/MAC statistics of the stored model.
//
// Example:
//   ./build/examples/meanet_cli train --out /tmp/meanet_model
//   ./build/examples/meanet_cli eval  --model /tmp/meanet_model
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/builders.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "diag/registry.h"
#include "metrics/classification_metrics.h"
#include "nn/model_stats.h"
#include "nn/serialize.h"
#include "runtime/session.h"
#include "sim/clock.h"

using namespace meanet;

namespace {

struct Args {
  std::string command;
  std::string dir;
  int classes = 10;
  int hard = 5;
  int epochs = 10;
  double threshold = std::numeric_limits<double>::infinity();
  std::string policy = "entropy";
  double margin = 0.0;
  int threads = 1;
  std::uint64_t seed = 7;
  bool console = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: meanet_cli train --out DIR [--classes N] [--hard N] [--epochs N]\n"
               "       meanet_cli eval  --model DIR [--threshold T] [--policy entropy|margin]\n"
               "                        [--margin M] [--threads N] [--console]\n"
               "       meanet_cli info  --model DIR\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args& args) {
  if (argc < 2) return false;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--console") {
      args.console = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "option '%s' needs a value\n", key.c_str());
      return false;
    }
    const std::string value = argv[++i];
    if (key == "--out" || key == "--model") {
      args.dir = value;
    } else if (key == "--classes") {
      args.classes = std::stoi(value);
    } else if (key == "--hard") {
      args.hard = std::stoi(value);
    } else if (key == "--epochs") {
      args.epochs = std::stoi(value);
    } else if (key == "--threshold") {
      args.threshold = std::stod(value);
    } else if (key == "--policy") {
      args.policy = value;
    } else if (key == "--margin") {
      args.margin = std::stod(value);
    } else if (key == "--threads") {
      args.threads = std::stoi(value);
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", key.c_str());
      return false;
    }
  }
  return !args.dir.empty();
}

data::SyntheticSpec make_spec(int classes) {
  data::SyntheticSpec spec;
  spec.num_classes = classes;
  spec.height = 16;
  spec.width = 16;
  spec.train_per_class = 80;
  spec.test_per_class = 25;
  spec.max_difficulty = 0.9f;
  spec.noise_stddev = 0.4f;
  return spec;
}

core::MEANet make_model(int classes, int hard, util::Rng& rng) {
  core::ResNetConfig config;
  config.blocks_per_stage = 1;
  config.channels = {8, 16, 32};
  config.num_classes = classes;
  return core::build_resnet_meanet_b(config, hard, core::FusionMode::kSum, rng);
}

/// Stored alongside the weights so eval/info can rebuild the model.
struct ModelMeta {
  int classes = 0;
  int hard = 0;
  std::uint64_t seed = 0;
  std::vector<int> hard_classes;
};

void save_meta(const std::string& dir, const ModelMeta& meta) {
  std::ofstream os(dir + "/meta.txt", std::ios::trunc);
  os << meta.classes << ' ' << meta.hard << ' ' << meta.seed << '\n';
  for (int c : meta.hard_classes) os << c << ' ';
  os << '\n';
}

bool load_meta(const std::string& dir, ModelMeta& meta) {
  std::ifstream is(dir + "/meta.txt");
  if (!is) return false;
  is >> meta.classes >> meta.hard >> meta.seed;
  meta.hard_classes.resize(static_cast<std::size_t>(meta.hard));
  for (int& c : meta.hard_classes) is >> c;
  return static_cast<bool>(is);
}

int cmd_train(const Args& args) {
  std::error_code ec;
  std::filesystem::create_directories(args.dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create '%s'\n", args.dir.c_str());
    return 1;
  }
  std::printf("generating %d-class synthetic workload (seed %llu)...\n", args.classes,
              static_cast<unsigned long long>(args.seed));
  const data::SyntheticDataset ds = data::make_synthetic(make_spec(args.classes), args.seed);
  util::Rng split_rng(args.seed + 1);
  const data::SplitResult parts = data::split(ds.train, 0.9, split_rng);

  util::Rng model_rng(args.seed + 2);
  core::MEANet net = make_model(args.classes, args.hard, model_rng);
  core::DistributedTrainer trainer(net);
  core::TrainOptions opts;
  opts.epochs = args.epochs;
  opts.batch_size = 32;
  opts.milestones = {(args.epochs * 3) / 5, (args.epochs * 17) / 20};
  util::Rng train_rng(args.seed + 3);

  std::printf("training main block (%d epochs)...\n", args.epochs);
  const core::TrainCurve main_curve = trainer.train_main(parts.first, opts, train_rng);
  std::printf("  final train accuracy %.1f%%\n", 100.0 * main_curve.back().accuracy);

  const data::ClassDict dict =
      trainer.select_hard_classes_from_validation(parts.second, args.hard);
  std::printf("hard classes:");
  for (int c : dict.hard_classes()) std::printf(" %d", c);
  std::printf("\n");

  opts.sgd.learning_rate = 0.05f;
  std::printf("training extension + adaptive blocks on hard data...\n");
  const core::TrainCurve edge_curve = trainer.train_edge_blocks(parts.first, dict, opts, train_rng);
  std::printf("  final exit-2 train accuracy %.1f%%\n", 100.0 * edge_curve.back().accuracy);

  nn::save_model(net.main_trunk(), args.dir + "/trunk.bin");
  nn::save_model(net.main_exit(), args.dir + "/exit1.bin");
  nn::save_model(net.adaptive(), args.dir + "/adaptive.bin");
  nn::save_model(net.extension(), args.dir + "/extension.bin");
  ModelMeta meta{args.classes, args.hard, args.seed, dict.hard_classes()};
  save_meta(args.dir, meta);
  std::printf("model saved to %s\n", args.dir.c_str());
  return 0;
}

bool load_model(const std::string& dir, ModelMeta& meta, core::MEANet& net) {
  nn::load_model(net.main_trunk(), dir + "/trunk.bin");
  nn::load_model(net.main_exit(), dir + "/exit1.bin");
  nn::load_model(net.adaptive(), dir + "/adaptive.bin");
  nn::load_model(net.extension(), dir + "/extension.bin");
  (void)meta;
  return true;
}

void print_console_help() {
  std::printf(
      "diagnostics console commands:\n"
      "  providers           list registered diagnostic providers\n"
      "  stats               dump the full registry snapshot (JSON, schema %s)\n"
      "  stats <provider>    dump one provider's tree\n"
      "  watch [n] [sec]     print n full snapshots every sec seconds (default 5 x 1.0)\n"
      "  serve <n>           submit n test frames through the live session\n"
      "  help                this text\n"
      "  quit                leave the console\n",
      diag::kSchemaVersion);
}

/// Interactive diagnostics loop over the process registry, driven
/// against the live session (`serve` pushes more traffic through it so
/// `stats`/`watch` have moving counters to show). Returns at EOF or
/// `quit`; every command failure is printed, never thrown.
int run_console(runtime::InferenceSession& session, const data::Dataset& test) {
  diag::DiagnosticRegistry& registry = diag::DiagnosticRegistry::global();
  print_console_help();
  std::string line;
  int next_frame = 0;
  while (true) {
    std::printf("diag> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;  // EOF: scripted stdin ran out
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty()) continue;
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      print_console_help();
    } else if (cmd == "providers") {
      for (const std::string& name : registry.names()) std::printf("  %s\n", name.c_str());
    } else if (cmd == "stats") {
      std::string name;
      in >> name;
      if (name.empty()) {
        std::printf("%s\n", registry.to_json().c_str());
      } else {
        const diag::Value tree = registry.snapshot_of(name);
        if (tree.is_null()) {
          std::printf("no provider '%s' (try: providers)\n", name.c_str());
        } else {
          std::printf("%s\n", diag::to_json(tree).c_str());
        }
      }
    } else if (cmd == "watch") {
      int rounds = 5;
      double period_s = 1.0;
      in >> rounds >> period_s;
      rounds = std::max(1, std::min(rounds, 1000));
      period_s = std::min(60.0, std::max(0.01, period_s));
      for (int i = 0; i < rounds; ++i) {
        if (i > 0) sim::wall_clock().sleep_for(period_s);
        std::printf("-- watch %d/%d --\n%s\n", i + 1, rounds, registry.to_json().c_str());
        std::fflush(stdout);
      }
    } else if (cmd == "serve") {
      int count = 0;
      in >> count;
      if (count <= 0) {
        std::printf("usage: serve <n>\n");
        continue;
      }
      try {
        for (int i = 0; i < count; ++i) {
          session.submit(test.instance(next_frame));
          next_frame = (next_frame + 1) % test.size();
        }
        const auto results = session.drain();
        std::printf("served %zu instance(s)\n", results.size());
      } catch (const std::exception& e) {
        std::printf("serve failed: %s\n", e.what());
      }
    } else {
      std::printf("unknown command '%s' (try: help)\n", cmd.c_str());
    }
  }
  return 0;
}

int cmd_eval(const Args& args) {
  ModelMeta meta;
  if (!load_meta(args.dir, meta)) {
    std::fprintf(stderr, "no model at '%s'\n", args.dir.c_str());
    return 1;
  }
  util::Rng model_rng(meta.seed + 2);
  core::MEANet net = make_model(meta.classes, meta.hard, model_rng);
  load_model(args.dir, meta, net);
  net.freeze_main();
  const data::ClassDict dict(meta.classes, meta.hard_classes);

  const data::SyntheticDataset ds = data::make_synthetic(make_spec(meta.classes), meta.seed);

  // Serve through the unified runtime API: routing policy, offload
  // backend (none here — no cloud from the CLI) and worker count are
  // all EngineConfig choices.
  runtime::EngineConfig serve;
  serve.net = &net;
  serve.dict = &dict;
  if (args.policy == "margin") {
    if (std::isfinite(args.threshold)) {
      std::fprintf(stderr, "warning: --threshold is ignored by the margin policy (use --margin)\n");
    }
    if (args.margin <= 0.0) {
      std::fprintf(stderr,
                   "warning: margin policy without a positive --margin never marks for cloud\n");
    }
    core::MarginPolicyConfig margin;
    margin.margin_threshold = args.margin;
    margin.cloud_available = args.margin > 0.0;
    serve.policy = std::make_shared<core::ConfidenceMarginPolicy>(dict, margin);
  } else if (args.policy == "entropy") {
    if (args.margin > 0.0) {
      std::fprintf(stderr,
                   "warning: --margin is ignored by the entropy policy (use --threshold)\n");
    }
    serve.policy_config.entropy_threshold = args.threshold;
    serve.policy_config.cloud_available = std::isfinite(args.threshold);
  } else {
    std::fprintf(stderr, "unknown policy '%s'\n", args.policy.c_str());
    return 2;
  }
  // All worker threads serve on the one loaded net (eval forwards are
  // cache-free and const-safe).
  serve.worker_threads = std::max(1, args.threads);
  runtime::InferenceSession session(serve);
  std::printf("serving with %d worker thread(s), policy %s, backend %s\n",
              session.worker_count(), session.routing().describe().c_str(),
              session.backend().describe().c_str());
  const auto results = session.run(ds.test);

  std::vector<int> preds;
  std::int64_t detect_correct = 0;
  for (const runtime::InferenceResult& r : results) {
    preds.push_back(r.prediction);
    const bool truly_hard = dict.is_hard(ds.test.labels[static_cast<std::size_t>(r.id)]);
    if (dict.is_hard(r.main_prediction) == truly_hard) ++detect_correct;
  }
  const core::RouteCounts routes = runtime::count_routes(results);
  std::printf("test accuracy          : %.2f%%\n",
              100.0 * metrics::accuracy(preds, ds.test.labels));
  std::printf("easy/hard detection    : %.2f%%\n",
              100.0 * detect_correct / static_cast<double>(ds.test.size()));
  std::printf("exits: main %lld, extension %lld, marked-for-cloud %lld\n",
              static_cast<long long>(routes.main_exit),
              static_cast<long long>(routes.extension_exit),
              static_cast<long long>(routes.cloud));
  const runtime::SessionMetrics m = session.metrics();
  std::printf("serving: queue high-water %lld, batch latency p50/p95 %.3f/%.3f ms (main exit)\n",
              static_cast<long long>(m.queue_depth_high_water),
              1e3 * m.route(core::Route::kMainExit).p50_s,
              1e3 * m.route(core::Route::kMainExit).p95_s);
  if (args.console) return run_console(session, ds.test);
  return 0;
}

int cmd_info(const Args& args) {
  ModelMeta meta;
  if (!load_meta(args.dir, meta)) {
    std::fprintf(stderr, "no model at '%s'\n", args.dir.c_str());
    return 1;
  }
  util::Rng model_rng(meta.seed + 2);
  core::MEANet net = make_model(meta.classes, meta.hard, model_rng);
  load_model(args.dir, meta, net);
  net.freeze_main();

  const Shape image{1, 3, 16, 16};
  const Shape feature = net.main_trunk().output_shape(image);
  nn::ModelStats stats;
  stats += nn::collect_stats(net.main_trunk(), image);
  stats += nn::collect_stats(net.main_exit(), feature);
  stats += nn::collect_stats(net.adaptive(), image);
  stats += nn::collect_stats(net.extension(), feature);
  std::printf("classes           : %d (%d hard)\n", meta.classes, meta.hard);
  std::printf("fixed params      : %s M\n", nn::format_millions(stats.fixed_params).c_str());
  std::printf("trained params    : %s M\n", nn::format_millions(stats.trained_params).c_str());
  std::printf("fixed MACs/image  : %s M\n", nn::format_millions(stats.fixed_macs).c_str());
  std::printf("trained MACs/image: %s M\n", nn::format_millions(stats.trained_macs).c_str());
  std::printf("serialized size   : %.1f KiB\n",
              (nn::serialized_size(net.main_trunk()) + nn::serialized_size(net.main_exit()) +
               nn::serialized_size(net.adaptive()) + nn::serialized_size(net.extension())) /
                  1024.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();
  try {
    if (args.command == "train") return cmd_train(args);
    if (args.command == "eval") return cmd_eval(args);
    if (args.command == "info") return cmd_info(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
