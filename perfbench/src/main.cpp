// perfbench_serve — one run of the end-to-end serving benchmark.
//
//   perfbench_serve --prepare
//   perfbench_serve --workload NAME --seed N --seconds S --trace 0|1
//       [--commit ID] [--source-digest HEX] [--trace-out FILE]
//
// Runs in its work directory: --prepare trains the models once (Alg. 1,
// fixed training seed) and writes the deployment artifacts to models/. A run prints a header line with the
// host and workload configuration, readable report lines, and as its
// last line one JSON object: {"correct", "attempted", "failed",
// "metrics"}; end-to-end metrics when untraced, per-layer metrics when
// traced. Exit code 1 when any instance failed or disagreed with the
// in-process reference, or the load generator missed its schedule.
// perfbench/run.py builds this binary and drives it.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "diag/value.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "workloads.h"

using namespace meanet;

namespace {

const char* const kArtifacts = "models";

struct Args {
  bool prepare = false;
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::string trace_out;
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench_serve: %s\n"
               "usage: perfbench_serve --prepare\n"
               "       perfbench_serve --workload NAME --seed N --seconds S --trace 0|1\n"
               "           [--commit ID] [--source-digest HEX] [--trace-out FILE]\n",
               message);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--prepare") {
      args.prepare = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      args.trace = value == "1" ? 1 : value == "0" ? 0 : -1;
    } else if (arg == "--commit") {
      args.commit = value;
    } else if (arg == "--source-digest") {
      args.source_digest = value;
    } else if (arg == "--trace-out") {
      args.trace_out = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  return args;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

/// Every number carries the configuration that produced it.
diag::Value run_header(const Args& args, const perfbench::WorkloadSpec& spec) {
  diag::Value host;
  host.set("cpu_model", cpu_model());
  host.set("nproc", static_cast<int>(std::thread::hardware_concurrency()));
  host.set("simd", ops::simd_level_name(ops::simd_level()));
  host.set("int8_kernel", ops::int8_kernel_name(ops::int8_kernel()));
  host.set("gemm_threads", ops::gemm_threads());
  diag::Value workload;
  workload.set("name", spec.name);
  workload.set("loop", spec.open_loop ? "open" : "closed");
  workload.set("rate_fps", spec.rate_fps);
  workload.set("sessions", spec.sessions);
  workload.set("workers_per_session", spec.workers);
  workload.set("batch", spec.batch);
  workload.set("entropy_threshold", spec.entropy_threshold);
  workload.set("cloud", spec.cloud == perfbench::CloudKind::kNone        ? "none"
                        : spec.cloud == perfbench::CloudKind::kInProcess ? "in-process"
                                                                         : "meanet_cloudd");
  workload.set("int8", spec.int8);
  workload.set("deadline_ms", spec.deadline_ms);
  workload.set("loadgen_lag_bound_ms", perfbench::kLagBoundMs);
  workload.set("loadgen_pacing_spin_ms", perfbench::kPacingSpinMs);
  workload.set("setup_repeats", perfbench::kSetupRepeats);
  diag::Value header;
  header.set("commit", args.commit);
  header.set("source_sha256", args.source_digest);
  header.set("seed", args.seed);
  header.set("seconds", args.seconds);
  header.set("trace", args.trace == 1);
  header.set("host", std::move(host));
  header.set("workload", std::move(workload));
  return header;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    if (args.prepare) {
      perfbench::prepare_artifacts(kArtifacts);
      return 0;
    }
    const perfbench::WorkloadSpec* spec = perfbench::find_workload(args.workload);
    if (spec == nullptr) usage(("unknown workload '" + args.workload + "'").c_str());
    if (args.seconds <= 0.0) usage("--seconds must be positive");
    if (args.trace < 0) usage("--trace must be 0 or 1");
    if (!perfbench::artifacts_ready(kArtifacts)) usage("no models/; run --prepare first");

    const diag::Value header = run_header(args, *spec);
    std::printf("perfbench header %s\n", diag::to_json(header, 0).c_str());
    std::fflush(stdout);

    perfbench::RunConfig config;
    config.spec = spec;
    config.seed = args.seed;
    config.seconds = args.seconds;
    config.trace = args.trace == 1;
    config.artifacts = kArtifacts;
    config.cloudd = PERFBENCH_CLOUDD_PATH;
    const perfbench::RunResult result = perfbench::run_workload(config);

    for (const std::string& line : result.report) std::printf("%s\n", line.c_str());
    if (!result.valid) {
      std::printf("INVALID: load generator lag p99 above %.1f ms\n", perfbench::kLagBoundMs);
    }
    if (config.trace && !args.trace_out.empty()) {
      diag::Value trace;
      trace.set("header", header);
      trace.set("spans", result.spans);
      std::ofstream(args.trace_out) << diag::to_json(trace, 0) << '\n';
      std::printf("spans written to %s\n", args.trace_out.c_str());
    }

    const bool correct = result.failed == 0 && result.valid;
    diag::Value metrics;
    for (const perfbench::Metric& metric : result.metrics) {
      diag::Value entry;
      entry.set("value", metric.value);
      entry.set("unit", metric.unit);
      metrics.set(metric.name, std::move(entry));
    }
    diag::Value out;
    out.set("correct", correct);
    out.set("attempted", result.attempted);
    out.set("failed", result.failed);
    out.set("metrics", std::move(metrics));
    std::printf("%s\n", diag::to_json(out, 0).c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_serve: %s\n", e.what());
    return 1;
  }
}
