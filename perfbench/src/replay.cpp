#include "replay.h"

#include <algorithm>
#include <cstdio>
#include <functional>

#include "models.h"
#include "tensor/qgemm.h"
#include "wire/crc32.h"
#include "wire/frame.h"

namespace perfbench {

using namespace meanet;

namespace {

/// Median seconds per call of `fn`, over at least 15 calls and at most
/// about `budget_s` of calls, after 3 untimed ones.
double median_call_s(SpanLog* log, const char* name, const std::function<void()>& fn,
                     double budget_s = 0.25) {
  for (int i = 0; i < 3; ++i) fn();
  std::vector<double> samples;
  double spent = 0.0;
  while (samples.size() < 15 || (spent < budget_s && samples.size() < 2000)) {
    ScopedSpan span(log, name, static_cast<std::int64_t>(samples.size()));
    const SteadyClock::time_point start = SteadyClock::now();
    fn();
    const double s = std::chrono::duration<double>(SteadyClock::now() - start).count();
    samples.push_back(s);
    spent += s;
  }
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2, samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

std::vector<Metric> replay_layers(const std::string& artifacts, const ReplayShapes& shapes,
                                  SpanLog* log, std::vector<std::string>& report) {
  std::vector<Metric> out;
  const auto record = [&](const char* name, double value, const char* unit, const char* what) {
    out.push_back(Metric{name, value, unit});
    char line[200];
    std::snprintf(line, sizeof(line), "replay %-34s %10.4f %s  (%s)", name, value, unit, what);
    report.emplace_back(line);
  };

  // ResNet-B float: the camera_stream / cloud_offload edge.
  {
    const std::unique_ptr<EdgeModel> resnet = load_edge(artifacts, EdgeSystem::kResNetCifar);
    const data::Dataset test = load_test_split(artifacts, EdgeSystem::kResNetCifar);
    const Tensor b1 = test.images.slice_batch(0, 1);
    const Tensor b8 = test.images.slice_batch(0, 8);
    const Tensor f8 = resnet->net.forward_main(b8, nn::Mode::kEval).features;
    record("edge.main_ms_b1",
           1e3 * median_call_s(log, "replay.edge.main", [&] {
             resnet->net.forward_main(b1, nn::Mode::kEval);
           }),
           "ms", "ResNet-B float forward_main, batch 1");
    record("edge.main_ms_b8",
           1e3 * median_call_s(log, "replay.edge.main", [&] {
             resnet->net.forward_main(b8, nn::Mode::kEval);
           }),
           "ms", "ResNet-B float forward_main, batch 8");
    record("edge.extension_ms_b8",
           1e3 * median_call_s(log, "replay.edge.extension", [&] {
             resnet->net.forward_extension(b8, f8, nn::Mode::kEval);
           }),
           "ms", "ResNet-B float forward_extension, batch 8");

    // The cloud model at batch 1 and at the mean batch it served.
    const std::unique_ptr<sim::CloudNode> cloud = load_cloud(artifacts);
    const int batch = std::min(shapes.cloud_batch, test.size());
    const Tensor cloud_batch = test.images.slice_batch(0, batch);
    record("cloud.forward_ms_per_instance_b1",
           1e3 * median_call_s(log, "replay.cloud.classify", [&] { cloud->classify(b1); }), "ms",
           "CloudNode::classify, batch 1");
    record("cloud.forward_ms_per_instance",
           1e3 / batch *
               median_call_s(log, "replay.cloud.classify", [&] { cloud->classify(cloud_batch); }),
           "ms", "CloudNode::classify at the workload's mean cloud batch, per instance");

    // The client side of one offload payload of the mean size.
    const int instances = std::min(shapes.payload_instances, test.size());
    runtime::OffloadPayload payload;
    payload.images = test.images.slice_batch(0, instances);
    const std::vector<std::uint8_t> bytes = wire::encode_offload_request(payload);
    record("wire.encode_us_per_instance",
           1e6 / instances *
               median_call_s(log, "replay.wire.encode", [&] {
                 wire::encode_offload_request(payload);
               }),
           "us", "encode_offload_request at the mean payload, per instance");
    volatile std::uint32_t sink = 0;
    record("wire.crc_us_per_instance",
           1e6 / instances *
               median_call_s(log, "replay.wire.crc32", [&] {
                 sink = wire::crc32(bytes.data(), bytes.size());
               }),
           "us", "crc32 over the mean payload, per instance");
  }

  // MobileNet-B int8: the bulk_int8 edge.
  {
    const std::unique_ptr<EdgeModel> mobilenet =
        load_edge(artifacts, EdgeSystem::kMobileNetImageNet);
    const data::Dataset test = load_test_split(artifacts, EdgeSystem::kMobileNetImageNet);
    const ops::QuantizedScope quantized(true);
    const Tensor b32 = test.images.slice_batch(0, 32);
    const Tensor f32 = mobilenet->net.forward_main(b32, nn::Mode::kEval).features;
    record("edge.int8_main_ms_b32",
           1e3 * median_call_s(log, "replay.edge.int8_main", [&] {
             mobilenet->net.forward_main(b32, nn::Mode::kEval);
           }),
           "ms", "MobileNet-B int8 forward_main, batch 32");
    record("edge.int8_extension_ms_b32",
           1e3 * median_call_s(log, "replay.edge.int8_extension", [&] {
             mobilenet->net.forward_extension(b32, f32, nn::Mode::kEval);
           }),
           "ms", "MobileNet-B int8 forward_extension, batch 32");
  }
  return out;
}

}  // namespace perfbench
