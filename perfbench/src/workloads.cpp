#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include <sched.h>
#include <unistd.h>

#include "core/edge_inference.h"
#include "daemon.h"
#include "replay.h"
#include "runtime/session.h"
#include "sim/cloud_node.h"
#include "tensor/pool.h"
#include "tensor/qgemm.h"
#include "trace.h"
#include "wire/socket_transport.h"
#include "wire/wire_backend.h"

namespace perfbench {

using namespace meanet;

// Thresholds were read off the trained ResNet-B main-exit entropy
// distribution on the CIFAR-like test split: 0.67 sends about 20% of
// the frames to the cloud, 0.10 about 60%. Deadlines sit at 2-5x the
// p99 a quiet 4-core host shows (camera_stream: a 30 fps frame time),
// so deadline_met_share moves with the tail without riding on every
// host stall. Rates sit at about a quarter of the rate where p99 starts
// to climb on a quiet host (camera_stream ~2000 fps, cloud_offload ~600
// fps): a worker blocks on its batch's cloud answer, so at a busier
// operating point every slowdown the host's neighbours cause turns into
// queueing, and latency_p50_ms followed the host instead of the program.
const std::vector<WorkloadSpec> kWorkloads = {
    {"camera_stream", EdgeSystem::kResNetCifar, true, 500.0, 1, 2, 8, 0.67,
     CloudKind::kInProcess, false, 30.0},
    {"cloud_offload", EdgeSystem::kResNetCifar, true, 250.0, 2, 1, 8, 0.10, CloudKind::kDaemon,
     false, 50.0},
    {"bulk_int8", EdgeSystem::kMobileNetImageNet, false, 0.0, 1, 2, 32,
     std::numeric_limits<double>::infinity(), CloudKind::kNone, true, 100.0},
};

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

namespace {

// ---------------------------------------------------------------- inputs

double seconds_between(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

SteadyClock::time_point after(SteadyClock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<SteadyClock::duration>(
                 std::chrono::duration<double>(seconds));
}

/// Seeded draws from std::mt19937_64's raw output (specified by the
/// standard, unlike the library distributions), so a seed gives the
/// same inputs with any standard library.
class Draw {
 public:
  explicit Draw(std::uint64_t seed) : engine_(seed) {}
  /// Uniform in (0, 1].
  double unit() { return (static_cast<double>(engine_() >> 11) + 1.0) * 0x1.0p-53; }
  std::vector<int> permutation(int n) {
    std::vector<int> out(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) out[static_cast<std::size_t>(i)] = i;
    for (int i = n - 1; i > 0; --i) {
      const int j = static_cast<int>(engine_() % static_cast<std::uint64_t>(i + 1));
      std::swap(out[static_cast<std::size_t>(i)], out[static_cast<std::size_t>(j)]);
    }
    return out;
  }

 private:
  std::mt19937_64 engine_;
};

/// One frame of an open-loop schedule and what became of it.
struct FrameRecord {
  int instance = 0;    // index into the test split
  double due_s = 0.0;  // scheduled send time, from the stream origin
  double lag_s = 0.0;  // how late the generator called submit()
  double submit_s = 0.0;  // time spent inside submit()
  double settled_s = std::numeric_limits<double>::infinity();
  bool ok = false;  // settled and equal to the reference
  bool correct = false;
  core::Route route = core::Route::kMainExit;
};

/// Whole passes over the test split, each a fresh seeded permutation,
/// with Poisson arrivals at `rate` rescaled so the schedule spans
/// exactly frames / rate seconds.
std::vector<FrameRecord> make_schedule(Draw& draw, int split_size, double rate, double seconds) {
  const int passes = std::max(1, static_cast<int>(std::lround(rate * seconds / split_size)));
  std::vector<FrameRecord> frames;
  for (int p = 0; p < passes; ++p) {
    for (int instance : draw.permutation(split_size)) {
      FrameRecord frame;
      frame.instance = instance;
      frames.push_back(frame);
    }
  }
  double t = 0.0;
  for (FrameRecord& frame : frames) {
    t += -std::log(draw.unit());
    frame.due_s = t;
  }
  const double scale = static_cast<double>(frames.size()) / rate / t;
  for (FrameRecord& frame : frames) frame.due_s *= scale;
  return frames;
}

// ------------------------------------------------------------- reference

/// The expected route and final prediction of every instance, computed
/// in process and single-threaded before anything is timed.
struct Reference {
  std::vector<core::Route> route;
  std::vector<int> prediction;

  bool matches(const runtime::InferenceResult& r, std::size_t index) const {
    return r.route == route[index] && r.prediction == prediction[index] &&
           (r.route != core::Route::kCloud || r.offloaded) && !r.deadline_expired;
  }
};

core::PolicyConfig policy_for(const WorkloadSpec& spec) {
  return core::PolicyConfig{spec.entropy_threshold, spec.cloud != CloudKind::kNone};
}

/// Open loop: every frame is served alone or in a float batch, and a
/// float instance's result does not depend on its batch, so frames are
/// referenced one at a time. Closed loop (int8): the activation scale
/// is per batch, so the reference replays run()'s exact chunks.
Reference compute_reference(const WorkloadSpec& spec, const std::string& artifacts,
                            const data::Dataset& dataset) {
  const std::unique_ptr<EdgeModel> model = load_edge(artifacts, spec.system);
  core::EdgeInferenceEngine engine(model->net, model->dict, policy_for(spec));
  const ops::QuantizedScope quantized(spec.int8);
  const int chunk = spec.open_loop ? 1 : spec.batch;
  Reference ref;
  for (int start = 0; start < dataset.size(); start += chunk) {
    const int count = std::min(chunk, dataset.size() - start);
    for (const core::InstanceDecision& d : engine.infer(dataset.images.slice_batch(start, count))) {
      ref.route.push_back(d.route);
      ref.prediction.push_back(d.prediction);
    }
  }
  if (spec.cloud != CloudKind::kNone) {
    const std::unique_ptr<sim::CloudNode> cloud = load_cloud(artifacts);
    for (int i = 0; i < dataset.size(); ++i) {
      if (ref.route[static_cast<std::size_t>(i)] == core::Route::kCloud) {
        ref.prediction[static_cast<std::size_t>(i)] = cloud->classify(dataset.instance(i))[0];
      }
    }
  }
  return ref;
}

// ------------------------------------------------------------ deployment

/// Everything a deployment runs, torn down in reverse: sessions first
/// (they hold the backends), then the daemon, then the models.
struct Deployment {
  std::unique_ptr<EdgeModel> edge;
  std::unique_ptr<sim::CloudNode> cloud;
  std::unique_ptr<CloudDaemon> daemon;
  std::string socket_path;
  // Traced deployments only.
  std::shared_ptr<WireCounters> wire;
  std::vector<std::shared_ptr<TimingBackend>> timing;  // one per session
  std::vector<std::unique_ptr<runtime::InferenceSession>> sessions;
};

std::string next_socket_path() {
  static int counter = 0;
  return "perfbench-" + std::to_string(::getpid()) + "-" + std::to_string(counter++) + ".sock";
}

/// Loads the weights, spawns and connects to meanet_cloudd, builds the
/// sessions and warms each up with one run() over 2 x batch test frames
/// (cloud routes included). `log` non-null = traced deployment.
std::unique_ptr<Deployment> deploy(const RunConfig& config, const data::Dataset& warmup,
                                   SpanLog* log) {
  const WorkloadSpec& spec = *config.spec;
  auto dep = std::make_unique<Deployment>();
  dep->edge = load_edge(config.artifacts, spec.system);
  if (spec.cloud == CloudKind::kInProcess) dep->cloud = load_cloud(config.artifacts);
  if (spec.cloud == CloudKind::kDaemon) {
    dep->socket_path = next_socket_path();
    const CloudGeometry geometry = cloud_geometry();
    dep->daemon = std::make_unique<CloudDaemon>(
        config.cloudd,
        std::vector<std::string>{"--socket", dep->socket_path, "--image-channels",
                                 std::to_string(geometry.image_channels), "--classes",
                                 std::to_string(geometry.classes), "--model",
                                 cloud_weights_path(config.artifacts), "--max-batch", "32",
                                 "--batch-window-ms", "2"},
        30.0);
  }
  if (log != nullptr) dep->wire = std::make_shared<WireCounters>();

  for (int s = 0; s < spec.sessions; ++s) {
    runtime::EngineConfig cfg;
    cfg.net = &dep->edge->net;
    cfg.dict = &dep->edge->dict;
    cfg.policy_config = policy_for(spec);
    cfg.worker_threads = spec.workers;
    cfg.batch_size = spec.batch;
    cfg.quantized_inference = spec.int8;
    std::shared_ptr<runtime::OffloadBackend> backend;
    if (spec.cloud == CloudKind::kInProcess) {
      backend = std::make_shared<runtime::RawImageBackend>(dep->cloud.get());
    } else if (spec.cloud == CloudKind::kDaemon) {
      wire::WireBackendConfig wire_cfg;
      wire_cfg.socket_path = dep->socket_path;
      if (log != nullptr) {
        wire_cfg.transport_factory = [path = dep->socket_path, counters = dep->wire, log] {
          return std::make_unique<CountingTransport>(wire::connect_unix(path, 5.0), counters,
                                                     log);
        };
      }
      auto wire_backend = std::make_shared<wire::WireBackend>(wire_cfg);
      wire_backend->ping();  // connect now: part of set-up, not of the first frame
      backend = wire_backend;
    }
    if (backend != nullptr && log != nullptr) {
      dep->timing.push_back(std::make_shared<TimingBackend>(backend, log));
      backend = dep->timing.back();
    }
    cfg.backend = backend;
    dep->sessions.push_back(std::make_unique<runtime::InferenceSession>(cfg));
  }
  for (auto& session : dep->sessions) session->run(warmup);
  for (auto& timing : dep->timing) timing->reset();
  if (dep->wire != nullptr) dep->wire->reset();
  return dep;
}

// ------------------------------------------------------------ statistics

double percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return runtime::sorted_percentile(values, p);
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

/// Samples per latency window: enough that a window's p99 has ten
/// samples beyond it.
constexpr std::size_t kWindowSamples = 1000;

/// Each consecutive window's p-th percentile, over windows of at least
/// kWindowSamples samples (one window when there are fewer).
std::vector<double> per_window(const std::vector<double>& in_order, double p) {
  const std::size_t windows = std::max<std::size_t>(1, in_order.size() / kWindowSamples);
  std::vector<double> out;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto begin = in_order.begin() + static_cast<std::ptrdiff_t>(w * in_order.size() / windows);
    const auto end = in_order.begin() + static_cast<std::ptrdiff_t>((w + 1) * in_order.size() / windows);
    out.push_back(percentile(std::vector<double>(begin, end), p));
  }
  return out;
}

void spin_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Keeps every core out of idle while it lives: one spinner per core at
/// SCHED_IDLE priority. On a virtual machine a halted vCPU wakes only
/// when the hypervisor schedules it again, which on a shared host adds
/// tens to hundreds of microseconds to every thread wake-up and changes
/// from minute to minute with the neighbours' load; an open-loop frame
/// pays several such wake-ups. A spinning vCPU stays scheduled, and a
/// woken serving thread preempts the idle-priority spinner inside the
/// guest at once, so the timings measure the program rather than the
/// host's scheduler. Where SCHED_IDLE is refused the spinner exits
/// rather than compete with the program.
class KeepCoresAwake {
 public:
  KeepCoresAwake() {
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned i = 0; i < cores; ++i) {
      spinners_.emplace_back([this] {
        sched_param param{};
        if (::sched_setscheduler(0, SCHED_IDLE, &param) != 0) return;
        while (!stop_.load(std::memory_order_relaxed)) spin_pause();
      });
    }
  }
  ~KeepCoresAwake() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& spinner : spinners_) spinner.join();
  }
  KeepCoresAwake(const KeepCoresAwake&) = delete;
  KeepCoresAwake& operator=(const KeepCoresAwake&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> spinners_;
};

/// Aggregate CPU time from /proc/stat, in clock ticks: the steal column
/// (time the hypervisor gave to other guests) and the total.
struct CpuTimes {
  double steal = 0.0;
  double total = 0.0;
};

CpuTimes read_cpu_times() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  CpuTimes times;
  double value = 0.0;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    times.total += value;
    if (field == 7) times.steal = value;
  }
  return times;
}

double peak_rss_kib_self() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib;
    }
  }
  return 0.0;
}

template <typename... Args>
std::string format(const char* fmt, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

/// Per-session counters at the start of the measured phase, so the
/// warm-up does not count.
struct Baseline {
  std::vector<runtime::SessionMetrics> sessions;
  ops::GemmPool::Stats pool;
  wire::StatsEntries server;
};

std::uint64_t stat(const wire::StatsEntries& entries, const std::string& name) {
  for (const auto& [key, value] : entries) {
    if (key == name) return value;
  }
  return 0;
}

// --------------------------------------------------------- measurement

/// What one measured phase produced, before it becomes metrics.
struct Phase {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t settled = 0;
  std::int64_t correct = 0;
  std::int64_t at_edge = 0;
  std::int64_t extension = 0;
  std::int64_t cloud = 0;
  double wall_s = 0.0;
  /// In send order; +inf for frames that never settled.
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;     // open loop only
  std::vector<double> submit_us;  // open loop only
  double steal_share = 0.0;       // hypervisor steal during the phase
};

/// Counts callbacks until every frame of the phase has settled.
class Countdown {
 public:
  explicit Countdown(std::int64_t count) : remaining_(count) {}
  void done() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (--remaining_ == 0) cv_.notify_all();
  }
  bool wait_for(double seconds) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                        [this] { return remaining_ <= 0; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::int64_t remaining_;  // guarded by mutex_
};

void tally(Phase& phase, core::Route route, bool correct) {
  ++phase.settled;
  if (correct) ++phase.correct;
  if (route == core::Route::kExtensionExit) ++phase.extension;
  if (route == core::Route::kCloud) {
    ++phase.cloud;
  } else {
    ++phase.at_edge;
  }
}

/// Open loop: one generator thread per session sends its schedule's
/// frames at their due times, whatever the system's state; each frame
/// is timed from its due time to its completion callback. A generator
/// sleeps until kPacingSpinMs before a frame is due and spins the rest:
/// a sleep alone wakes at least the timer slack (50 us) late, and later
/// still when the vCPU has to be woken by the hypervisor first.
Phase measure_open_loop(Deployment& dep, std::vector<std::vector<FrameRecord>>& streams,
                        const data::Dataset& test, const Reference& ref, SpanLog* log) {
  std::vector<Tensor> frames;
  for (int i = 0; i < test.size(); ++i) frames.push_back(test.instance(i));
  std::int64_t total = 0;
  for (const auto& stream : streams) total += static_cast<std::int64_t>(stream.size());
  Countdown countdown(total);

  // Generators start together, a little ahead so every thread is up.
  const SteadyClock::time_point t0 = after(SteadyClock::now(), 0.02);
  std::vector<std::thread> generators;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    generators.emplace_back([&, s] {
      runtime::InferenceSession& session = *dep.sessions[s];
      for (std::size_t i = 0; i < streams[s].size(); ++i) {
        FrameRecord& frame = streams[s][i];
        const SteadyClock::time_point due = after(t0, frame.due_s);
        std::this_thread::sleep_until(after(due, -kPacingSpinMs * 1e-3));
        while (SteadyClock::now() < due) spin_pause();
        const SteadyClock::time_point start = SteadyClock::now();
        frame.lag_s = seconds_between(due, start);
        const std::int64_t rid = static_cast<std::int64_t>(s * 10'000'000 + i);
        ScopedSpan span(log, "loadgen.submit", rid);
        runtime::SubmitOptions options;
        options.on_complete = [&frame, &ref, &test, &countdown,
                               t0](const runtime::ResultHandle& h) {
          frame.settled_s = seconds_between(t0, SteadyClock::now());
          try {
            const std::vector<runtime::InferenceResult> results = h.wait();
            if (results.size() == 1) {
              const runtime::InferenceResult& r = results[0];
              frame.ok = ref.matches(r, static_cast<std::size_t>(frame.instance));
              frame.route = r.route;
              frame.correct =
                  r.prediction == test.labels[static_cast<std::size_t>(frame.instance)];
            }
          } catch (const std::exception&) {
            frame.ok = false;  // the serving worker failed this request
          }
          countdown.done();
        };
        try {
          session.submit(frames[static_cast<std::size_t>(frame.instance)], std::move(options));
        } catch (const std::exception&) {
          countdown.done();  // refused at submit: never settles
        }
        frame.submit_s = seconds_between(start, SteadyClock::now());
      }
    });
  }
  for (std::thread& g : generators) g.join();
  countdown.wait_for(60.0);
  for (auto& session : dep.sessions) {
    try {
      session->drain();
    } catch (const std::exception&) {
      // already counted per frame
    }
  }

  Phase phase;
  std::vector<std::pair<double, double>> due_and_latency;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    for (std::size_t i = 0; i < streams[s].size(); ++i) {
      const FrameRecord& frame = streams[s][i];
      ++phase.attempted;
      phase.lag_ms.push_back(frame.lag_s * 1e3);
      phase.submit_us.push_back(frame.submit_s * 1e6);
      if (!frame.ok) ++phase.failed;
      if (std::isfinite(frame.settled_s)) {
        phase.wall_s = std::max(phase.wall_s, frame.settled_s);
        tally(phase, frame.route, frame.correct);
        if (log != nullptr) {
          Span span;
          span.name = "request";
          span.id = log->next_id();
          span.rid = static_cast<std::int64_t>(s * 10'000'000 + i);
          span.start_us = log->micros(after(t0, frame.due_s));
          span.end_us = log->micros(after(t0, frame.settled_s));
          log->add(span);
        }
      }
      due_and_latency.emplace_back(frame.due_s, (frame.settled_s - frame.due_s) * 1e3);
    }
  }
  std::sort(due_and_latency.begin(), due_and_latency.end());
  for (const auto& sample : due_and_latency) phase.latency_ms.push_back(sample.second);
  return phase;
}

/// Closed loop: InferenceSession::run() over the (permuted) split,
/// repeated until `seconds` have passed.
Phase measure_closed_loop(Deployment& dep, const data::Dataset& dataset, const Reference& ref,
                          double seconds, SpanLog* log) {
  runtime::InferenceSession& session = *dep.sessions[0];
  Phase phase;
  const SteadyClock::time_point t0 = SteadyClock::now();
  for (std::int64_t pass = 0; pass == 0 || seconds_between(t0, SteadyClock::now()) < seconds;
       ++pass) {
    phase.attempted += dataset.size();
    std::vector<runtime::InferenceResult> results;
    try {
      ScopedSpan span(log, "session.run", pass);
      results = session.run(dataset);
    } catch (const std::exception&) {
      results.clear();
    }
    if (results.size() != static_cast<std::size_t>(dataset.size())) {
      phase.failed += dataset.size();
      continue;
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
      const runtime::InferenceResult& r = results[i];
      if (!ref.matches(r, i)) ++phase.failed;
      tally(phase, r.route, r.prediction == dataset.labels[i]);
      phase.latency_ms.push_back(r.e2e_latency_s * 1e3);
    }
  }
  phase.wall_s = seconds_between(t0, SteadyClock::now());
  return phase;
}

/// What a run serves, drawn from its seed, and the reference answers.
struct Inputs {
  data::Dataset test;    // the split frames are drawn from
  data::Dataset closed;  // closed loop: the seeded permutation of `test`
  data::Dataset warmup;  // first 2 x batch frames
  Reference ref;         // indexed like `test` (open loop) or `closed`
};

Inputs make_inputs(const RunConfig& config) {
  const WorkloadSpec& spec = *config.spec;
  Inputs inputs;
  inputs.test = load_test_split(config.artifacts, spec.system);
  std::vector<int> warm(static_cast<std::size_t>(std::min(2 * spec.batch, inputs.test.size())));
  for (std::size_t i = 0; i < warm.size(); ++i) warm[i] = static_cast<int>(i);
  inputs.warmup = data::select(inputs.test, warm);
  if (!spec.open_loop) {
    Draw draw(config.seed);
    inputs.closed = data::select(inputs.test, draw.permutation(inputs.test.size()));
  }
  inputs.ref =
      compute_reference(spec, config.artifacts, spec.open_loop ? inputs.test : inputs.closed);
  return inputs;
}

Phase measure(const RunConfig& config, const Inputs& inputs, Deployment& dep, double seconds,
              SpanLog* log) {
  const WorkloadSpec& spec = *config.spec;
  const CpuTimes before = read_cpu_times();
  Phase phase;
  if (spec.open_loop) {
    // Every phase of a run replays the schedule its seed draws.
    Draw draw(config.seed);
    std::vector<std::vector<FrameRecord>> schedule;  // per session
    for (int s = 0; s < spec.sessions; ++s) {
      schedule.push_back(
          make_schedule(draw, inputs.test.size(), spec.rate_fps / spec.sessions, seconds));
    }
    phase = measure_open_loop(dep, schedule, inputs.test, inputs.ref, log);
  } else {
    phase = measure_closed_loop(dep, inputs.closed, inputs.ref, seconds, log);
  }
  const CpuTimes after_phase = read_cpu_times();
  if (after_phase.total > before.total) {
    phase.steal_share = (after_phase.steal - before.steal) / (after_phase.total - before.total);
  }
  return phase;
}

Baseline baseline(Deployment& dep, wire::WireBackend* server_stats) {
  Baseline b;
  for (auto& session : dep.sessions) b.sessions.push_back(session->metrics());
  b.pool = ops::GemmPool::instance().stats();
  if (server_stats != nullptr) b.server = server_stats->fetch_stats();
  return b;
}

void add(std::vector<Metric>& out, const char* name, double value, const char* unit) {
  out.push_back(Metric{name, value, unit});
}

// -------------------------------------------------------- per-layer view

/// Per-layer metrics of a traced phase, for the layers the phase used.
std::vector<Metric> layer_metrics(const WorkloadSpec& spec, Deployment& dep, const Phase& phase,
                                  const Baseline& before, const Baseline& after_phase,
                                  ReplayShapes& shapes) {
  std::vector<Metric> m;
  if (spec.open_loop) {
    add(m, "loadgen.lag_p50_ms", percentile(phase.lag_ms, 0.5), "ms");
    add(m, "loadgen.lag_p99_ms", percentile(phase.lag_ms, 0.99), "ms");
    add(m, "runtime.submit_us_p99", percentile(phase.submit_us, 0.99), "us");
  }

  // Sessions cannot be merged percentile-wise: report the worst one.
  double wait_p50 = 0.0, wait_p99 = 0.0, high_water = 0.0, edge_p99 = 0.0, cloud_p99 = 0.0;
  std::int64_t dispatches = 0;
  for (std::size_t s = 0; s < after_phase.sessions.size(); ++s) {
    const runtime::SessionMetrics& metrics = after_phase.sessions[s];
    const runtime::PriorityWaitStats wait = metrics.priority_wait(0);
    wait_p50 = std::max(wait_p50, wait.p50_s * 1e3);
    wait_p99 = std::max(wait_p99, wait.p99_s * 1e3);
    high_water = std::max(high_water, static_cast<double>(metrics.queue_depth_high_water));
    edge_p99 = std::max({edge_p99, metrics.route(core::Route::kMainExit).p99_s * 1e3,
                         metrics.route(core::Route::kExtensionExit).p99_s * 1e3});
    cloud_p99 = std::max(cloud_p99, metrics.route(core::Route::kCloud).p99_s * 1e3);
    dispatches += metrics.offload_dispatches - before.sessions[s].offload_dispatches;
  }
  add(m, "runtime.queue_wait_ms_p50", wait_p50, "ms");
  add(m, "runtime.queue_wait_ms_p99", wait_p99, "ms");
  add(m, "runtime.queue_depth_high_water", high_water, "count");
  add(m, "runtime.edge_route_ms_p99", edge_p99, "ms");
  if (dispatches > 0) {
    add(m, "runtime.cloud_route_ms_p99", cloud_p99, "ms");
    add(m, "runtime.instances_per_dispatch",
        static_cast<double>(phase.cloud) / static_cast<double>(dispatches), "count");
  }

  std::vector<double> rtt_ms;
  double busy = 0.0;
  std::int64_t shipped = 0;
  for (const auto& timing : dep.timing) {
    for (double s : timing->rtt_s().values()) rtt_ms.push_back(s * 1e3);
    busy += timing->rtt_s().sum() / phase.wall_s / static_cast<double>(dep.timing.size());
    shipped += timing->instances();
  }
  if (shipped > 0) {
    add(m, "offload.rtt_ms_p50", percentile(rtt_ms, 0.5), "ms");
    add(m, "offload.rtt_ms_p99", percentile(rtt_ms, 0.99), "ms");
    add(m, "offload.busy_share", busy, "ratio");
  }
  if (spec.cloud == CloudKind::kDaemon && shipped > 0) {
    const WireCounters& wire = *dep.wire;
    add(m, "wire.bytes_out_per_instance",
        static_cast<double>(wire.bytes_out.load()) / static_cast<double>(shipped), "bytes");
    add(m, "wire.bytes_in_per_instance",
        static_cast<double>(wire.bytes_in.load()) / static_cast<double>(shipped), "bytes");
    add(m, "wire.write_us_p50", percentile(wire.write_s.values(), 0.5) * 1e6, "us");
    add(m, "wire.response_wait_ms_p50", percentile(wire.response_wait_s.values(), 0.5) * 1e3,
        "ms");
  }

  const auto delta = [&](const char* name) {
    return static_cast<double>(stat(after_phase.server, name) - stat(before.server, name));
  };
  const double batches = delta("batches");
  if (batches > 0) {
    add(m, "wire_server.requests_per_batch", delta("requests_served") / batches, "count");
    add(m, "wire_server.cross_session_batch_share", delta("cross_session_batches") / batches,
        "ratio");
  }

  // Shapes the replays use: the mean instances per offload payload and
  // the mean batch the cloud model saw.
  if (dispatches > 0) {
    shapes.payload_instances = std::max(
        1, static_cast<int>(std::lround(static_cast<double>(phase.cloud) /
                                        static_cast<double>(dispatches))));
    shapes.cloud_batch =
        batches > 0 ? std::max(1, static_cast<int>(std::lround(delta("instances_served") / batches)))
                    : shapes.payload_instances;
  }

  add(m, "edge.extension_share",
      static_cast<double>(phase.extension) /
          static_cast<double>(std::max<std::int64_t>(phase.settled, 1)),
      "ratio");
  add(m, "gemm_pool.fanout_jobs",
      static_cast<double>(after_phase.pool.fanout_jobs - before.pool.fanout_jobs), "count");
  return m;
}

double deadline_met_share(const WorkloadSpec& spec, const Phase& phase) {
  const auto met = std::count_if(phase.latency_ms.begin(), phase.latency_ms.end(),
                                 [&](double ms) { return ms <= spec.deadline_ms; });
  return static_cast<double>(met) /
         static_cast<double>(std::max<std::int64_t>(phase.attempted, 1));
}

/// Adds a phase's counts to the result, invalidating an open-loop run
/// whose generator missed its schedule, and reports the phase.
void account(RunResult& result, const WorkloadSpec& spec, const char* label, const Phase& phase) {
  result.attempted += phase.attempted;
  result.failed += phase.failed;
  if (spec.open_loop && percentile(phase.lag_ms, 0.99) > kLagBoundMs) result.valid = false;

  result.report.push_back(format("%s: attempted %lld, failed %lld (failed_share %.6f)", label,
                                 static_cast<long long>(phase.attempted),
                                 static_cast<long long>(phase.failed),
                                 static_cast<double>(phase.failed) /
                                     static_cast<double>(std::max<std::int64_t>(phase.attempted, 1))));
  const std::size_t n = phase.latency_ms.size();
  result.report.push_back(format("  latency over %zu samples: p50 %.3f ms, p99 %.3f ms "
                                 "(%zu samples beyond p99), %.4f within the %.0f ms deadline",
                                 n, percentile(phase.latency_ms, 0.5),
                                 percentile(phase.latency_ms, 0.99), n / 100,
                                 deadline_met_share(spec, phase), spec.deadline_ms));
  const std::vector<double> window_p99 = per_window(phase.latency_ms, 0.99);
  result.report.push_back(format("  over %zu windows of %zu+ samples: p99 median %.3f ms, "
                                 "min %.3f ms, max %.3f ms",
                                 window_p99.size(), kWindowSamples, median(window_p99),
                                 *std::min_element(window_p99.begin(), window_p99.end()),
                                 *std::max_element(window_p99.begin(), window_p99.end())));
  result.report.push_back(
      format("  host: hypervisor steal %.1f%% of CPU time", 100.0 * phase.steal_share));
  if (spec.open_loop) {
    result.report.push_back(format("  loadgen lag: p50 %.3f ms, p99 %.3f ms (bound %.1f ms)",
                                   percentile(phase.lag_ms, 0.5), percentile(phase.lag_ms, 0.99),
                                   kLagBoundMs));
  }
}

/// Untraced run: kSetupRepeats set-ups (the last one serves), one
/// measured phase, the end-to-end metrics.
RunResult timed_run(const RunConfig& config, const Inputs& inputs) {
  const WorkloadSpec& spec = *config.spec;
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> dep;
  for (int k = 0; k < kSetupRepeats; ++k) {
    dep.reset();
    const SteadyClock::time_point start = SteadyClock::now();
    dep = deploy(config, inputs.warmup, nullptr);
    setup_s.push_back(seconds_between(start, SteadyClock::now()));
  }
  const Phase phase = measure(config, inputs, *dep, config.seconds, nullptr);
  double daemon_kib = 0.0;
  if (dep->daemon != nullptr) {
    dep->daemon->stop();
    daemon_kib = static_cast<double>(dep->daemon->peak_rss_kib());
  }
  dep.reset();

  RunResult result;
  account(result, spec, "timed run", phase);
  result.report.push_back(format("  set-up over %zu repeats: median %.2f ms, min %.2f ms, max %.2f ms",
                                 setup_s.size(), median(setup_s) * 1e3,
                                 *std::min_element(setup_s.begin(), setup_s.end()) * 1e3,
                                 *std::max_element(setup_s.begin(), setup_s.end()) * 1e3));
  const double settled = static_cast<double>(std::max<std::int64_t>(phase.settled, 1));
  add(result.metrics, "setup_s", median(setup_s), "s");
  add(result.metrics, "latency_p50_ms", median(phase.latency_ms), "ms");
  add(result.metrics, "deadline_met_share", deadline_met_share(spec, phase), "ratio");
  add(result.metrics, "throughput_ips", static_cast<double>(phase.settled) / phase.wall_s,
      "instances/s");
  add(result.metrics, "top1_accuracy", static_cast<double>(phase.correct) / settled, "ratio");
  add(result.metrics, "edge_exit_share", static_cast<double>(phase.at_edge) / settled, "ratio");
  add(result.metrics, "peak_rss_mb", (peak_rss_kib_self() + daemon_kib) / 1024.0, "MiB");
  return result;
}

double metric_value(const std::vector<Metric>& metrics, const char* name) {
  for (const Metric& metric : metrics) {
    if (metric.name == name) return metric.value;
  }
  return 0.0;
}

/// Where the median offload round trip of cloud_offload goes, so the
/// CRC share can be read directly.
void report_offload_split(RunResult& result, const ReplayShapes& shapes) {
  const auto value = [&](const char* name) { return metric_value(result.metrics, name); };
  const double rtt = value("offload.rtt_ms_p50");
  const double write = value("wire.write_us_p50") / 1e3;
  const double forward = value("cloud.forward_ms_per_instance") * shapes.cloud_batch;
  const double batching = std::max(0.0, value("wire.response_wait_ms_p50") - forward);
  const double crc = value("wire.crc_us_per_instance") * shapes.payload_instances / 1e3;
  const double codec = value("wire.encode_us_per_instance") * shapes.payload_instances / 1e3 + crc;
  result.report.push_back(format("cloud_offload split of the offload round trip (p50 %.3f ms, "
                                 "%d instances per payload, %d per server batch):",
                                 rtt, shapes.payload_instances, shapes.cloud_batch));
  const auto line = [&](const char* what, double ms) {
    result.report.push_back(format("  %-34s %8.3f ms  %5.1f%%", what, ms, 100.0 * ms / rtt));
  };
  line("cloud forward at the server batch", forward);
  line("server batching + queueing", batching);
  line("client write (p50)", write);
  line("client encode + CRC (replayed)", codec);
  line("  of which CRC", crc);
}

/// One traced phase: a traced deployment, counters diffed around the
/// phase, the per-layer metrics of the layers it used.
struct TracedPhase {
  Phase phase;
  std::vector<Metric> metrics;
  ReplayShapes shapes;
};

TracedPhase traced_phase(const RunConfig& config, const Inputs& inputs, double seconds,
                         SpanLog& log) {
  std::unique_ptr<Deployment> dep = deploy(config, inputs.warmup, &log);
  std::unique_ptr<wire::WireBackend> server_stats;
  if (dep->daemon != nullptr) {
    wire::WireBackendConfig stats_cfg;
    stats_cfg.socket_path = dep->socket_path;
    server_stats = std::make_unique<wire::WireBackend>(stats_cfg);
  }
  TracedPhase out;
  const Baseline before = baseline(*dep, server_stats.get());
  out.phase = measure(config, inputs, *dep, seconds, &log);
  const Baseline after_phase = baseline(*dep, server_stats.get());
  out.metrics = layer_metrics(*config.spec, *dep, out.phase, before, after_phase, out.shapes);
  return out;
}

/// Traced run: an untraced phase and a traced phase of half the time
/// each on the same schedule (their latency_p50_ms difference is the
/// tracing overhead). Layers the workload does not use (the wire on
/// camera_stream; the generator, offload and wire on bulk_int8) are
/// measured on a probe: one pass of cloud_offload, traced. Then the
/// replays of the shapes through each layer.
RunResult traced_run(const RunConfig& config, const Inputs& inputs) {
  const WorkloadSpec& spec = *config.spec;
  const double half = config.seconds / 2.0;
  RunResult result;
  double untraced_p50 = 0.0;
  {
    std::unique_ptr<Deployment> dep = deploy(config, inputs.warmup, nullptr);
    const Phase phase = measure(config, inputs, *dep, half, nullptr);
    account(result, spec, "untraced phase", phase);
    untraced_p50 = median(phase.latency_ms);
  }
  SpanLog log;
  TracedPhase traced = traced_phase(config, inputs, half, log);
  account(result, spec, "traced phase", traced.phase);
  result.metrics = std::move(traced.metrics);
  add(result.metrics, "trace.overhead_latency_p50_ms",
      median(traced.phase.latency_ms) - untraced_p50, "ms");
  ReplayShapes shapes = traced.shapes;

  SpanLog probe_log;
  if (spec.cloud != CloudKind::kDaemon) {
    RunConfig probe = config;
    probe.spec = find_workload("cloud_offload");
    TracedPhase probed = traced_phase(probe, make_inputs(probe), 0.0, probe_log);
    account(result, *probe.spec, "probe phase (cloud_offload, one pass)", probed.phase);
    std::string from_probe = "  measured on the probe:";
    for (Metric& metric : probed.metrics) {
      const auto same = [&](const Metric& m) { return m.name == metric.name; };
      if (std::none_of(result.metrics.begin(), result.metrics.end(), same)) {
        from_probe += " " + metric.name;
        result.metrics.push_back(std::move(metric));
      }
    }
    result.report.push_back(from_probe);
    if (traced.phase.cloud == 0) shapes = probed.shapes;
  }

  for (Metric& metric : replay_layers(config.artifacts, shapes, &log, result.report)) {
    result.metrics.push_back(std::move(metric));
  }
  if (spec.cloud == CloudKind::kDaemon) report_offload_split(result, shapes);
  result.spans.set("workload", log.to_value());
  result.spans.set("probe", probe_log.to_value());
  return result;
}

}  // namespace

RunResult run_workload(const RunConfig& config) {
  const Inputs inputs = make_inputs(config);
  const KeepCoresAwake awake;
  return config.trace ? traced_run(config, inputs) : timed_run(config, inputs);
}

}  // namespace perfbench
