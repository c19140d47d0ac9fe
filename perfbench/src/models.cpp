#include "models.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <vector>

#include "common.h"
#include "core/builders.h"
#include "nn/serialize.h"

namespace perfbench {

using namespace meanet;

namespace {

// Alg. 1 configuration of every artifact: the benches' defaults at a
// fixed training seed, so every checkout serves the same weights.
constexpr std::uint64_t kTrainSeed = 1234;
constexpr core::FusionMode kFusion = core::FusionMode::kSum;

bench::EdgeModel edge_model(EdgeSystem system) {
  return system == EdgeSystem::kResNetCifar ? bench::EdgeModel::kResNetB
                                            : bench::EdgeModel::kMobileNetB;
}

bench::DatasetKind dataset_kind(EdgeSystem system) {
  return system == EdgeSystem::kResNetCifar ? bench::DatasetKind::kCifarLike
                                            : bench::DatasetKind::kImageNetLike;
}

std::string prefix(const std::string& dir, EdgeSystem system) {
  return dir + (system == EdgeSystem::kResNetCifar ? "/resnet_b_cifar" : "/mobilenet_b_imagenet");
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("perfbench: cannot read " + path);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in), {});
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("perfbench: cannot write " + path);
}

template <typename T>
void append_pod(std::vector<std::uint8_t>& out, T value) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(&value);
  out.insert(out.end(), bytes, bytes + sizeof(T));
}

void export_system(const std::string& dir, EdgeSystem system, bench::TrainedSystem& trained) {
  const std::string base = prefix(dir, system);
  nn::save_model(trained.net.main_trunk(), base + ".trunk.bin");
  nn::save_model(trained.net.main_exit(), base + ".exit.bin");
  nn::save_model(trained.net.adaptive(), base + ".adaptive.bin");
  nn::save_model(trained.net.extension(), base + ".extension.bin");

  std::vector<std::uint8_t> dict;
  append_pod<std::int32_t>(dict, trained.dict.num_classes());
  append_pod<std::int32_t>(dict, trained.dict.num_hard());
  for (int c : trained.dict.hard_classes()) append_pod<std::int32_t>(dict, c);
  write_file(base + ".dict.bin", dict);

  const data::Dataset& test = trained.data.test;
  std::vector<std::uint8_t> split;
  nn::append_tensor(split, test.images);
  append_pod<std::int32_t>(split, test.num_classes);
  append_pod<std::int32_t>(split, test.size());
  for (int label : test.labels) append_pod<std::int32_t>(split, label);
  write_file(base + ".test.bin", split);
}

std::string ready_marker(const std::string& dir) { return dir + "/READY"; }

}  // namespace

void prepare_artifacts(const std::string& dir) {
  if (artifacts_ready(dir)) return;
  std::filesystem::create_directories(dir);
  for (EdgeSystem system : {EdgeSystem::kResNetCifar, EdgeSystem::kMobileNetImageNet}) {
    const bench::DatasetKind kind = dataset_kind(system);
    bench::TrainedSystem trained =
        bench::train_system(edge_model(system), kind, bench::default_num_hard(kind), kFusion,
                            bench::TrainBudget{}, kTrainSeed);
    export_system(dir, system, trained);
    if (system == EdgeSystem::kResNetCifar) {
      nn::Sequential cloud = bench::train_cloud_model(trained);
      nn::save_model(cloud, cloud_weights_path(dir));
    }
  }
  write_file(ready_marker(dir), {});
}

bool artifacts_ready(const std::string& dir) {
  return std::filesystem::exists(ready_marker(dir));
}

data::Dataset load_test_split(const std::string& dir, EdgeSystem system) {
  const std::vector<std::uint8_t> bytes = read_file(prefix(dir, system) + ".test.bin");
  nn::ByteReader in(bytes.data(), bytes.size());
  data::Dataset split;
  split.images = nn::read_tensor(in);
  split.num_classes = in.read<std::int32_t>();
  const std::int32_t count = in.read<std::int32_t>();
  if (count != split.images.shape().batch()) {
    throw std::runtime_error("perfbench: test split label count mismatch");
  }
  split.labels.resize(static_cast<std::size_t>(count));
  for (int& label : split.labels) label = in.read<std::int32_t>();
  return split;
}

std::unique_ptr<EdgeModel> load_edge(const std::string& dir, EdgeSystem system) {
  const std::string base = prefix(dir, system);
  const std::vector<std::uint8_t> bytes = read_file(base + ".dict.bin");
  nn::ByteReader in(bytes.data(), bytes.size());
  const int num_classes = in.read<std::int32_t>();
  std::vector<int> hard(static_cast<std::size_t>(in.read<std::int32_t>()));
  for (int& c : hard) c = in.read<std::int32_t>();

  // build_edge_model's random init is overwritten by the trained weights.
  util::Rng rng(kTrainSeed);
  const bench::DatasetKind kind = dataset_kind(system);
  auto model = std::make_unique<EdgeModel>(
      EdgeModel{bench::build_edge_model(edge_model(system), kind, static_cast<int>(hard.size()),
                                        kFusion, rng),
                data::ClassDict(num_classes, hard)});
  nn::load_model(model->net.main_trunk(), base + ".trunk.bin");
  nn::load_model(model->net.main_exit(), base + ".exit.bin");
  nn::load_model(model->net.adaptive(), base + ".adaptive.bin");
  nn::load_model(model->net.extension(), base + ".extension.bin");
  model->net.freeze_main();  // deployment state after Alg. 1
  return model;
}

CloudGeometry cloud_geometry() {
  const data::SyntheticSpec spec = bench::spec_for(bench::DatasetKind::kCifarLike);
  return CloudGeometry{spec.channels, spec.num_classes};
}

std::unique_ptr<sim::CloudNode> load_cloud(const std::string& dir) {
  const CloudGeometry geometry = cloud_geometry();
  util::Rng rng(kTrainSeed);
  auto cloud = std::make_unique<sim::CloudNode>(
      core::build_cloud_classifier(geometry.image_channels, geometry.classes, rng));
  nn::load_model(cloud->model(), cloud_weights_path(dir));
  return cloud;
}

std::string cloud_weights_path(const std::string& dir) { return dir + "/cloud_cifar.bin"; }

}  // namespace perfbench
