#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/builders.h"
#include "core/trainer.h"
#include "nn/batchnorm2d.h"
#include "nn/linear.h"
#include "nn/serialize.h"
#include "tiny_models.h"

namespace meanet::nn {
namespace {

using meanet::testing::tiny_data_spec;
using meanet::testing::tiny_resnet_config;

std::string temp_path(const char* tag) {
  return ::testing::TempDir() + "/meanet_" + tag + ".bin";
}

TEST(Serialize, RoundTripReproducesPredictions) {
  util::Rng rng(1);
  Sequential a = core::build_resnet_classifier(tiny_resnet_config(), rng, "net");
  util::Rng rng2(2);  // different init
  Sequential b = core::build_resnet_classifier(tiny_resnet_config(), rng2, "net");

  // Push some batches through `a` in train mode so BatchNorm running
  // statistics become non-trivial (they must survive the round trip).
  util::Rng data_rng(3);
  for (int i = 0; i < 3; ++i) {
    a.forward(Tensor::normal(Shape{8, 2, 8, 8}, data_rng), Mode::kTrain);
  }

  const std::string path = temp_path("roundtrip");
  save_model(a, path);
  load_model(b, path);

  const Tensor x = Tensor::normal(Shape{4, 2, 8, 8}, data_rng);
  const Tensor ya = a.forward(x, Mode::kEval);
  const Tensor yb = b.forward(x, Mode::kEval);
  EXPECT_TRUE(allclose(ya, yb, 0.0f));  // bit-identical
  std::remove(path.c_str());
}

TEST(Serialize, CloudToEdgeMainBlockDownload) {
  // The paper's Alg. 1 step 4: train the main block "at the cloud",
  // download it into a fresh edge MEANet, and verify the edge main block
  // behaves identically.
  util::Rng cloud_rng(4);
  core::MEANet cloud_net = meanet::testing::tiny_meanet_b(cloud_rng, 2);
  const data::SyntheticDataset ds = data::make_synthetic(tiny_data_spec(), 51);
  core::DistributedTrainer cloud_trainer(cloud_net);
  core::TrainOptions opts;
  opts.epochs = 3;
  opts.batch_size = 16;
  util::Rng train_rng(5);
  cloud_trainer.train_main(ds.train, opts, train_rng);

  const std::string trunk_path = temp_path("trunk");
  const std::string exit_path = temp_path("exit");
  save_model(cloud_net.main_trunk(), trunk_path);
  save_model(cloud_net.main_exit(), exit_path);

  util::Rng edge_rng(6);  // different init on the edge device
  core::MEANet edge_net = meanet::testing::tiny_meanet_b(edge_rng, 2);
  load_model(edge_net.main_trunk(), trunk_path);
  load_model(edge_net.main_exit(), exit_path);

  util::Rng data_rng(7);
  const Tensor x = Tensor::normal(Shape{5, 2, 8, 8}, data_rng);
  const core::MainForward cloud_fwd = cloud_net.forward_main(x, Mode::kEval);
  const core::MainForward edge_fwd = edge_net.forward_main(x, Mode::kEval);
  EXPECT_TRUE(allclose(cloud_fwd.logits, edge_fwd.logits, 0.0f));
  std::remove(trunk_path.c_str());
  std::remove(exit_path.c_str());
}

TEST(Serialize, ShapeMismatchRejected) {
  util::Rng rng(8);
  Linear small(4, 2, rng, "fc");
  Linear big(8, 2, rng, "fc");
  const std::string path = temp_path("mismatch");
  save_model(small, path);
  EXPECT_THROW(load_model(big, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, NameMismatchRejected) {
  util::Rng rng(9);
  Linear a(4, 2, rng, "fc_a");
  Linear b(4, 2, rng, "fc_b");
  const std::string path = temp_path("names");
  save_model(a, path);
  EXPECT_THROW(load_model(b, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, EntryCountMismatchRejected) {
  util::Rng rng(10);
  Linear one(4, 2, rng, "fc");
  Sequential two("two");
  two.emplace<Linear>(4, 2, rng, "fc");
  two.emplace<Linear>(2, 2, rng, "fc2");
  const std::string path = temp_path("count");
  save_model(one, path);
  EXPECT_THROW(load_model(two, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, CorruptFileRejected) {
  util::Rng rng(11);
  Linear fc(4, 2, rng, "fc");
  const std::string path = temp_path("corrupt");
  {
    std::ofstream os(path, std::ios::binary);
    os << "not a model file";
  }
  EXPECT_THROW(load_model(fc, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, TruncatedFileRejected) {
  util::Rng rng(12);
  Linear fc(16, 8, rng, "fc");
  const std::string path = temp_path("trunc");
  save_model(fc, path);
  // Truncate to half the size.
  const std::int64_t full = serialized_size(fc);
  std::string content(static_cast<std::size_t>(full / 2), '\0');
  {
    std::ifstream is(path, std::ios::binary);
    is.read(content.data(), static_cast<std::streamsize>(content.size()));
  }
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(content.data(), static_cast<std::streamsize>(content.size()));
  }
  EXPECT_THROW(load_model(fc, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileRejected) {
  util::Rng rng(13);
  Linear fc(4, 2, rng, "fc");
  EXPECT_THROW(load_model(fc, "/nonexistent/dir/model.bin"), std::runtime_error);
  EXPECT_THROW(save_model(fc, "/nonexistent/dir/model.bin"), std::runtime_error);
}

TEST(Serialize, SerializedSizeMatchesFile) {
  util::Rng rng(14);
  Sequential net = core::build_resnet_classifier(tiny_resnet_config(), rng, "sz");
  const std::string path = temp_path("size");
  save_model(net, path);
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  EXPECT_EQ(static_cast<std::int64_t>(is.tellg()), serialized_size(net));
  std::remove(path.c_str());
}

// ---- Hostile-input hardening (these bytes may arrive off a socket) ----

/// Reads a saved model file into memory for byte-surgery.
std::vector<char> slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  std::vector<char> bytes(static_cast<std::size_t>(is.tellg()));
  is.seekg(0);
  is.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(SerializeHardening, AllocationBombNameLengthRejected) {
  util::Rng rng(20);
  Linear fc(4, 2, rng, "fc");
  const std::string path = temp_path("bomb_name");
  save_model(fc, path);
  std::vector<char> bytes = slurp(path);
  // First entry's name length lives right after magic+version+count.
  const std::uint32_t bomb = 0xFFFFFFF0u;  // ~4 GiB name in a tiny file
  std::memcpy(bytes.data() + 16, &bomb, 4);
  spit(path, bytes);
  EXPECT_THROW(load_model(fc, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(SerializeHardening, HostileRankRejected) {
  util::Rng rng(21);
  Linear fc(4, 2, rng, "fc");
  const std::string path = temp_path("bomb_rank");
  save_model(fc, path);
  std::vector<char> bytes = slurp(path);
  // rank field of the first entry: after header(16) + name_len(4) + name.
  std::uint32_t name_len = 0;
  std::memcpy(&name_len, bytes.data() + 16, 4);
  const std::size_t rank_at = 16 + 4 + name_len;
  const std::uint32_t bomb = 0x10000u;  // rank 65536
  std::memcpy(bytes.data() + rank_at, &bomb, 4);
  spit(path, bytes);
  EXPECT_THROW(load_model(fc, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(SerializeHardening, OverflowingDimProductRejected) {
  util::Rng rng(22);
  Linear fc(4, 2, rng, "fc");
  const std::string path = temp_path("bomb_dims");
  save_model(fc, path);
  std::vector<char> bytes = slurp(path);
  std::uint32_t name_len = 0;
  std::memcpy(&name_len, bytes.data() + 16, 4);
  const std::size_t rank_at = 16 + 4 + name_len;
  // Keep the true rank (2) but claim dims whose product overflows any
  // naive int64 accumulator while each dim stays under the per-dim cap.
  const std::int32_t big = (1 << 24) - 1;
  std::memcpy(bytes.data() + rank_at + 4, &big, 4);
  std::memcpy(bytes.data() + rank_at + 8, &big, 4);
  spit(path, bytes);
  EXPECT_THROW(load_model(fc, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(SerializeHardening, EveryTruncationPointRejectsCleanly) {
  // Fuzz-ish sweep: a file cut at ANY byte boundary must throw (never
  // crash, never silently succeed).
  util::Rng rng(23);
  Linear fc(3, 2, rng, "fc");
  const std::string full_path = temp_path("cuts_full");
  save_model(fc, full_path);
  const std::vector<char> bytes = slurp(full_path);
  const std::string cut_path = temp_path("cuts");
  for (std::size_t cut = 0; cut + 1 < bytes.size(); cut += 3) {
    spit(cut_path, std::vector<char>(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut)));
    EXPECT_THROW(load_model(fc, cut_path), std::runtime_error) << "cut at " << cut;
  }
  std::remove(full_path.c_str());
  std::remove(cut_path.c_str());
}

TEST(SerializeHardening, RandomByteFlipsNeverCrash) {
  // Flip one byte at a time across the whole file: every variant must
  // either load (flips inside float data are legal) or throw — no
  // crashes, no unbounded allocation.
  util::Rng rng(24);
  Linear fc(3, 2, rng, "fc");
  const std::string path = temp_path("flips");
  save_model(fc, path);
  const std::vector<char> original = slurp(path);
  for (std::size_t at = 0; at < original.size(); ++at) {
    std::vector<char> mutated = original;
    mutated[at] = static_cast<char>(mutated[at] ^ 0x5A);
    spit(path, mutated);
    try {
      load_model(fc, path);
    } catch (const std::exception&) {
      // rejected: fine
    }
  }
  std::remove(path.c_str());
}

TEST(SerializeHardening, WireTensorRoundTripAndTruncation) {
  util::Rng rng(25);
  const Tensor t = Tensor::normal(Shape{2, 3, 4, 4}, rng);
  std::vector<std::uint8_t> bytes;
  append_tensor(bytes, t);
  // rank u32 + 4 dims i32 + float32 data.
  EXPECT_EQ(static_cast<std::int64_t>(bytes.size()), 4 + 4 * 4 + 4 * t.numel());

  ByteReader reader(bytes.data(), bytes.size());
  const Tensor back = read_tensor(reader);
  EXPECT_TRUE(reader.done());
  EXPECT_TRUE(allclose(back, t, 0.0f));

  // Any truncation of the encoding must throw, never over-read.
  for (std::size_t cut = 0; cut < bytes.size(); cut += 7) {
    ByteReader short_reader(bytes.data(), cut);
    EXPECT_THROW(read_tensor(short_reader), std::runtime_error) << "cut at " << cut;
  }
}

TEST(SerializeHardening, ByteReaderRefusesOverread) {
  const std::uint8_t bytes[4] = {1, 2, 3, 4};
  ByteReader reader(bytes, sizeof(bytes));
  EXPECT_EQ(reader.read<std::uint32_t>(), 0x04030201u);
  EXPECT_TRUE(reader.done());
  EXPECT_THROW(reader.read<std::uint8_t>(), std::runtime_error);
}

TEST(Serialize, BatchNormStateIncluded) {
  BatchNorm2d bn(3, 0.5f, 1e-5f, "bn");
  util::Rng rng(15);
  bn.forward(Tensor::normal(Shape{4, 3, 2, 2}, rng, 5.0f, 2.0f), Mode::kTrain);
  const std::string path = temp_path("bnstate");
  save_model(bn, path);
  BatchNorm2d fresh(3, 0.5f, 1e-5f, "bn");
  load_model(fresh, path);
  EXPECT_TRUE(allclose(bn.running_mean(), fresh.running_mean(), 0.0f));
  EXPECT_TRUE(allclose(bn.running_var(), fresh.running_var(), 0.0f));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace meanet::nn
