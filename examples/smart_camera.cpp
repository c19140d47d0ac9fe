// Smart-camera scenario: a simulated IoT camera classifies a continuous
// stream of frames at the edge and offloads only low-confidence
// ("complex") frames to the cloud over WiFi — the deployment the
// paper's introduction motivates.
//
// The example streams the test set through a runtime::InferenceSession
// at the camera's frame rate (30 fps, one submit() per frame) — each
// submit() hands back a ResultHandle that completes when that frame's
// result settles — and prints a running dashboard of accuracy, exit
// distribution (frames the cloud answered apart from cloud-routed frames
// that kept their edge answer), and the edge energy
// bill (compute + WiFi upload), plus the session metrics (queue depth,
// per-route latency percentiles, cell airtime) at the end. The offload
// really rides the radio: the camera shares one sim::SharedCell with a
// neighbor device whose background uploads halve the fair-share
// throughput, every cloud payload's upload time is derived from its
// byte size over that congested, jittered cell (and the answer pays
// downlink time on the way back), a 60ms per-frame deadline keeps the
// camera real-time (an expired frame keeps its edge answer), the
// camera's frames are submitted at high scheduling priority — ordering
// them ahead of any lower-priority traffic *on the camera's own
// session*; the neighbor's separate session contends only for cell
// airtime — and a completion callback — fired off the serving workers
// — tallies the frames the deadline saved.
//
// Build & run:  ./build/examples/smart_camera
//
// Pass --wire PATH_TO_MEANET_CLOUDD to serve the cloud side from a real
// spawned daemon over a Unix-domain socket instead of the in-process
// CloudNode: the trained cloud weights are saved to disk, meanet_cloudd
// is launched with them, and both the camera's and the neighbor's
// offloads travel the framed wire protocol — coalescing into
// cross-session batches at the daemon. Default stays in-process.
//
//   ./build/examples/smart_camera --wire ./build/tools/meanet_cloudd
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/builders.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "nn/serialize.h"
#include "runtime/session.h"
#include "runtime/transport.h"
#include "sim/cloud_node.h"
#include "sim/shared_cell.h"
#include "wire/process.h"
#include "wire/wire_backend.h"

using namespace meanet;

int main(int argc, char** argv) {
  std::string cloudd_path;  // empty = in-process cloud
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--wire") == 0 && i + 1 < argc) {
      cloudd_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: smart_camera [--wire PATH_TO_MEANET_CLOUDD]\n");
      return 2;
    }
  }
  // Workload: 10 "scene" classes at 16x16 RGB.
  data::SyntheticSpec spec;
  spec.num_classes = 10;
  spec.height = 16;
  spec.width = 16;
  spec.train_per_class = 70;
  spec.test_per_class = 40;
  spec.max_difficulty = 0.8f;
  const data::SyntheticDataset ds = data::make_synthetic(spec, 17);
  util::Rng split_rng(1);
  const data::SplitResult parts = data::split(ds.train, 0.9, split_rng);

  // Edge model (MEANet on a small ResNet) + Alg. 1 training.
  util::Rng model_rng(2);
  core::ResNetConfig config;
  config.blocks_per_stage = 1;
  config.channels = {8, 16, 32};
  config.num_classes = spec.num_classes;
  core::MEANet net = core::build_resnet_meanet_b(config, 5, core::FusionMode::kSum, model_rng);
  core::DistributedTrainer trainer(net);
  core::TrainOptions opts;
  opts.epochs = 10;
  opts.batch_size = 32;
  opts.milestones = {6, 8};
  util::Rng train_rng(3);
  trainer.train_main(parts.first, opts, train_rng);
  const data::ClassDict dict = trainer.select_hard_classes_from_validation(parts.second, 5);
  opts.sgd.learning_rate = 0.05f;
  trainer.train_edge_blocks(parts.first, dict, opts, train_rng);

  // Cloud model.
  util::Rng cloud_rng(4);
  nn::Sequential cloud_net = core::build_cloud_classifier(3, spec.num_classes, cloud_rng);
  core::TrainOptions cloud_opts;
  cloud_opts.epochs = 14;
  cloud_opts.batch_size = 32;
  cloud_opts.milestones = {8, 12};
  core::train_classifier(cloud_net, parts.first, cloud_opts, train_rng);

  // --wire: hand the trained cloud weights to a spawned meanet_cloudd
  // and dial it over a Unix socket, so every offload below travels the
  // framed wire protocol instead of calling the in-process CloudNode.
  std::unique_ptr<wire::ChildProcess> cloudd;
  std::string socket_path, weights_path;
  if (!cloudd_path.empty()) {
    const std::string tag = std::to_string(::getpid());
    socket_path = "/tmp/smart_camera_" + tag + ".sock";
    weights_path = "/tmp/smart_camera_" + tag + ".weights";
    nn::save_model(cloud_net, weights_path);
    cloudd = std::make_unique<wire::ChildProcess>(std::vector<std::string>{
        cloudd_path, "--socket", socket_path, "--model", weights_path, "--image-channels", "3",
        "--classes", std::to_string(spec.num_classes)});
    std::printf("spawned %s (pid %lld) serving the cloud model on %s\n", cloudd_path.c_str(),
                static_cast<long long>(cloudd->pid()), socket_path.c_str());
  }
  sim::CloudNode cloud(std::move(cloud_net));

  // Edge node priced like a ~5 W embedded accelerator with WiFi uplink.
  const Shape frame = ds.test.instance_shape();
  sim::EdgeNodeCosts costs;
  costs.upload_bytes_per_instance = frame.numel();
  costs.device.compute_power_w = 5.0;
  costs.device.macs_per_second = 5e9;
  const nn::LayerStats trunk = net.main_trunk().stats(frame);
  const nn::LayerStats exit1 = net.main_exit().stats(net.main_trunk().output_shape(frame));
  const nn::LayerStats adaptive = net.adaptive().stats(frame);
  const nn::LayerStats extension =
      net.extension().stats(net.main_trunk().output_shape(frame));
  costs.main_macs = trunk.macs + exit1.macs;
  costs.extension_macs = adaptive.macs + extension.macs;

  // One radio cell, two stations: the camera and a neighbor device
  // whose background uploads contend for the same airtime (the
  // fair-share throughput halves while both are attached). The cell
  // itself is a ~1.9 Mb/s slice of the paper's 18.88 Mb/s uplink with
  // seeded jitter; answers ride its downlink, so they are cheap but no
  // longer free. Both cloud hops price a frame at its 768 bytes of
  // 8-bit pixels, which at half of ~1.9 Mb/s uploads in ~7 ms, inside
  // the 60ms deadline.
  auto cell = std::make_shared<sim::SharedCell>([] {
    sim::SharedCellConfig cc;
    cc.uplink = cc.uplink.congested(10.0);  // ~1.9 Mb/s uplink
    cc.jitter_s = 0.005;
    return cc;
  }());
  runtime::TransportConfig wifi_link;
  wifi_link.cell = cell;

  // The camera is one InferenceSession: entropy routing + raw-image
  // offload selected at runtime through the EngineConfig. Uploads ride
  // the shared cell (upload time scales with payload bytes and the
  // station count), a 60ms per-frame cloud deadline keeps the stream
  // real-time — a frame whose answer cannot make it back in time keeps
  // its edge prediction instead of stalling the dashboard — and the
  // camera's frames are submitted at high scheduling priority, so any
  // lower-priority housekeeping traffic on the same session would queue
  // behind them.
  runtime::EngineConfig serve;
  serve.net = &net;
  serve.dict = &dict;
  serve.policy_config.cloud_available = true;
  serve.policy_config.entropy_threshold = 0.6;
  // One backend per session: over the wire, each session dials its own
  // connection to the daemon.
  auto cloud_hop = [&]() -> std::shared_ptr<runtime::OffloadBackend> {
    if (cloudd == nullptr) return std::make_shared<runtime::RawImageBackend>(&cloud);
    wire::WireBackendConfig wire_config;
    wire_config.socket_path = socket_path;
    return std::make_shared<wire::WireBackend>(wire_config);
  };
  serve.backend = cloud_hop();
  serve.batch_size = 32;
  serve.costs = costs;
  serve.route_deadline_s[static_cast<std::size_t>(core::Route::kCloud)] = 0.060;
  serve.transport = wifi_link;

  // A completion callback (fired off the serving workers) tallies the
  // frames the deadline rescued with their edge answer. Declared before
  // the session: its destructor flushes the callback queue, so the
  // tally must outlive it.
  std::atomic<std::int64_t> deadline_saved{0};
  runtime::SubmitOptions frame_opts;
  frame_opts.priority = 5;  // camera frames outrank default traffic
  frame_opts.on_complete = [&deadline_saved](const runtime::ResultHandle& handle) {
    for (const runtime::InferenceResult& r : handle.wait()) {
      if (r.deadline_expired) ++deadline_saved;
    }
  };
  runtime::SessionMetrics m;
  {
    runtime::InferenceSession camera(serve);

    // The neighbor: a second session on the same cell, streaming its
    // own frames through the same cloud in the background so the
    // camera's uploads genuinely contend for airtime.
    runtime::EngineConfig neighbor_cfg = serve;
    neighbor_cfg.batch_size = 8;
    neighbor_cfg.backend = cloud_hop();
    runtime::InferenceSession neighbor(neighbor_cfg);
    std::atomic<bool> neighbor_stop{false};
    std::thread neighbor_traffic([&] {
      int frame = 0;
      while (!neighbor_stop.load()) {
        neighbor.submit(ds.test.instance(frame % ds.test.size())).wait();
        ++frame;
      }
    });

    // Stream the test set at the camera's frame rate and print a
    // dashboard row every 100 settled frames. Pacing is what keeps the
    // cloud route usable: a frame is submitted when the sensor produces
    // it, so a cloud-routed frame ships alone and its upload fits the
    // 60ms deadline. A burst would batch several cloud frames into one
    // payload whose upload outlasts the deadline, with every frame
    // queued behind it waiting too.
    constexpr double kFramesPerSecond = 30.0;
    std::printf("streaming %d frames at %.0f fps through the smart camera (threshold %.1f, "
                "backend %s)...\n\n",
                ds.test.size(), kFramesPerSecond, serve.policy_config.entropy_threshold,
                camera.backend().describe().c_str());
    std::printf("%-8s %9s %8s %8s %8s %8s %12s\n", "frames", "accuracy", "main%", "ext%",
                "cloud%", "kept%", "edge energy");
    std::int64_t seen = 0, correct = 0, offloaded = 0, kept = 0;
    core::RouteCounts routes;
    double compute_j = 0.0, comm_j = 0.0;
    // The handle index is the dataset index, so no id arithmetic is
    // needed; frames settle in submission order.
    std::vector<runtime::ResultHandle> inflight;
    inflight.reserve(static_cast<std::size_t>(ds.test.size()));
    auto settle = [&](const runtime::ResultHandle& handle) {
      const runtime::InferenceResult r = handle.wait().front();
      if (r.prediction == ds.test.labels[static_cast<std::size_t>(seen)]) ++correct;
      routes.add(r.route);
      if (r.offloaded) ++offloaded;
      if (r.route == core::Route::kCloud && !r.offloaded) ++kept;
      compute_j += r.compute_energy_j;
      comm_j += r.comm_energy_j;
      ++seen;
      if (seen % 100 != 0 && seen != ds.test.size()) return;
      const double n = static_cast<double>(seen);
      std::printf("%-8lld %8.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%% %10.2f J\n",
                  static_cast<long long>(seen), 100.0 * static_cast<double>(correct) / n,
                  100.0 * routes.main_exit / n, 100.0 * routes.extension_exit / n,
                  100.0 * static_cast<double>(offloaded) / n,
                  100.0 * static_cast<double>(kept) / n, compute_j + comm_j);
    };
    const auto frame_period = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(1.0 / kFramesPerSecond));
    const auto stream_start = std::chrono::steady_clock::now();
    for (int i = 0; i < ds.test.size(); ++i) {
      std::this_thread::sleep_until(stream_start + i * frame_period);
      inflight.push_back(camera.submit(ds.test.instance(i), frame_opts));
      while (seen <= i && inflight[static_cast<std::size_t>(seen)].ready()) {
        settle(inflight[static_cast<std::size_t>(seen)]);
      }
    }
    while (seen < ds.test.size()) settle(inflight[static_cast<std::size_t>(seen)]);
    const double n = static_cast<double>(seen);
    std::printf("\nfinal: %.1f%% of frames answered on-device, %.1f%% answered by the cloud, "
                "%.1f%% routed to the cloud but kept their edge answer\n",
                100.0 * (routes.main_exit + routes.extension_exit) / n,
                100.0 * static_cast<double>(offloaded) / n,
                100.0 * static_cast<double>(kept) / n);
    std::printf("edge energy bill: %.2f J compute + %.2f J WiFi\n", compute_j, comm_j);

    m = camera.metrics();
    neighbor_stop.store(true);
    neighbor_traffic.join();
  }  // session destruction flushes every pending completion callback

  std::printf("\nsession metrics: %lld submitted, queue depth high-water %lld\n",
              static_cast<long long>(m.submitted_instances),
              static_cast<long long>(m.queue_depth_high_water));
  std::printf("deadline: %lld frames kept their edge answer (60ms bound; callback saw %lld)\n",
              static_cast<long long>(m.deadline_expirations),
              static_cast<long long>(deadline_saved.load()));
  const runtime::PriorityWaitStats camera_wait = m.priority_wait(5);
  std::printf("scheduling: priority-5 camera frames waited p99 %.3f ms in queue\n",
              1e3 * camera_wait.p99_s);
  std::printf("shared cell: %.2f s airtime charged, %.2f demand per wall second\n",
              m.cell_busy_s, m.cell_airtime_utilization);
  std::printf("%-12s %8s %10s %10s %10s\n", "route", "count", "p50 ms", "p95 ms", "p99 ms");
  for (const core::Route route :
       {core::Route::kMainExit, core::Route::kExtensionExit, core::Route::kCloud}) {
    const runtime::RouteLatencyStats& stats = m.route(route);
    std::printf("%-12s %8lld %10.3f %10.3f %10.3f\n", core::route_name(route),
                static_cast<long long>(stats.count), 1e3 * stats.p50_s, 1e3 * stats.p95_s,
                1e3 * stats.p99_s);
  }
  if (cloudd != nullptr) {
    cloudd->terminate();  // daemon prints its own stats and unlinks the socket
    ::unlink(weights_path.c_str());
  }
  return 0;
}
