// Deployment artifacts of the benchmark: the Alg. 1 weights, trained
// once at a fixed training seed by `perfbench_serve --prepare`, and the
// test splits the workloads draw their frames from. Timed runs only
// load them, so set-up time measures what a deployment pays at start,
// not the trainer.
#pragma once

#include <memory>
#include <string>

#include "core/meanet.h"
#include "data/class_dict.h"
#include "data/dataset.h"
#include "sim/cloud_node.h"

namespace perfbench {

/// The two edge systems the workloads serve.
enum class EdgeSystem {
  kResNetCifar,        // ResNet-B on the CIFAR-like split (+ its cloud model)
  kMobileNetImageNet,  // MobileNet-B on the ImageNet-like split
};

/// A deployed edge model: the net (main block frozen) and its
/// hard-class dictionary. Held by pointer because sessions keep
/// references to both.
struct EdgeModel {
  meanet::core::MEANet net;
  meanet::data::ClassDict dict;
};

/// Trains both edge systems and the cloud model (bench::train_system /
/// bench::train_cloud_model, disk-cached under ./meanet_bench_cache)
/// and writes the artifacts under `dir`. Idempotent.
void prepare_artifacts(const std::string& dir);

/// True once prepare_artifacts() completed for `dir`.
bool artifacts_ready(const std::string& dir);

meanet::data::Dataset load_test_split(const std::string& dir, EdgeSystem system);

std::unique_ptr<EdgeModel> load_edge(const std::string& dir, EdgeSystem system);

/// Input channels and classes of the CIFAR-like cloud classifier (the
/// architecture meanet_cloudd rebuilds before loading the weights).
struct CloudGeometry {
  int image_channels = 0;
  int classes = 0;
};
CloudGeometry cloud_geometry();

/// The cloud classifier of the CIFAR-like system, in process.
std::unique_ptr<meanet::sim::CloudNode> load_cloud(const std::string& dir);

/// Weights file meanet_cloudd loads with --model.
std::string cloud_weights_path(const std::string& dir);

}  // namespace perfbench
