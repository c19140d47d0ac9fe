// The benchmark's workloads, run through the real runtime::
// InferenceSession (and, for cloud_offload, a spawned meanet_cloudd).
//
// Every workload is one row of a fixed table (kWorkloads): which edge
// system, open or closed loop, the offered rate, sessions x workers x
// batch, the entropy threshold and where cloud-routed frames go. The
// seed draws only the frame order and the arrival times; the program
// sees nothing but the generated tensors.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "diag/value.h"
#include "models.h"

namespace perfbench {

enum class CloudKind {
  kNone,       // edge only: cloud-routed frames are not possible
  kInProcess,  // runtime::RawImageBackend over an in-process sim::CloudNode
  kDaemon,     // wire::WireBackend per session, all dialing one meanet_cloudd
};

struct WorkloadSpec {
  const char* name;
  EdgeSystem system;
  /// Open loop: Poisson arrivals of single frames at `rate_fps` in total,
  /// split evenly over `sessions` generators. Closed loop: repeated
  /// InferenceSession::run() over the test split.
  bool open_loop;
  double rate_fps;
  int sessions;
  int workers;  // per session
  int batch;    // EngineConfig::batch_size
  /// Main-exit entropy above which a frame goes to the cloud.
  double entropy_threshold;
  CloudKind cloud;
  bool int8;  // EngineConfig::quantized_inference
  /// Latency limit of deadline_met_share (measured, never enforced).
  double deadline_ms;
};

extern const std::vector<WorkloadSpec> kWorkloads;

/// nullptr when no workload has that name.
const WorkloadSpec* find_workload(const std::string& name);

/// A generator later than this (p99 of due -> submit) invalidates an
/// open-loop run: its latencies would no longer be of the stated rate.
constexpr double kLagBoundMs = 20.0;
/// An open-loop generator spins this long before each due time instead
/// of sleeping through it.
constexpr double kPacingSpinMs = 0.3;
/// Set-ups measured per timed run; setup_s is their median.
constexpr int kSetupRepeats = 25;

struct RunConfig {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string artifacts;  // prepare_artifacts() directory
  std::string cloudd;     // meanet_cloudd binary
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::int64_t attempted = 0;
  /// Failed, cancelled, refused, timed out, fallen back to the edge, or
  /// disagreeing with the in-process reference.
  std::int64_t failed = 0;
  /// False when the load generator missed its schedule (kLagBoundMs).
  bool valid = true;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced).
  std::vector<Metric> metrics;
  /// Human-readable lines printed ahead of the result.
  std::vector<std::string> report;
  /// Traced runs: {"workload": spans, "probe": spans}, each ordered by
  /// start time.
  meanet::diag::Value spans;
};

RunResult run_workload(const RunConfig& config);

}  // namespace perfbench
