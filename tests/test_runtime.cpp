// Tests for the runtime serving layer: backend swap parity through one
// InferenceSession API, cloud-unavailable fallback, and multi-threaded
// submit/drain determinism.
#include <gtest/gtest.h>

#include <tuple>

#include "runtime/session.h"

#include "core/builders.h"
#include "core/trainer.h"
#include "sim/cloud_node.h"
#include "sim/feature_cloud.h"
#include "tiny_models.h"
#include "wire/wire_backend.h"

namespace meanet::runtime {
namespace {

using meanet::testing::tiny_data_spec;
using meanet::testing::tiny_meanet_b;

/// A fully trained tiny system shared by all tests in this file (built
/// once: training dominates the suite's runtime otherwise).
struct Fixture {
  data::SyntheticDataset ds;
  core::MEANet net;
  data::ClassDict dict;
  sim::CloudNode cloud;
  sim::FeatureCloudNode feature_cloud;

  static Fixture& instance() {
    static Fixture fixture = make();
    return fixture;
  }

  static Fixture make() {
    util::Rng rng(1);
    data::SyntheticDataset ds = data::make_synthetic(tiny_data_spec(), 21);
    core::MEANet net = tiny_meanet_b(rng, 2);
    core::DistributedTrainer trainer(net);
    core::TrainOptions options;
    options.epochs = 5;
    options.batch_size = 16;
    util::Rng train_rng(2);
    trainer.train_main(ds.train, options, train_rng);
    data::ClassDict dict = trainer.select_hard_classes_from_validation(ds.test, 2);
    trainer.train_edge_blocks(ds.train, dict, options, train_rng);

    nn::Sequential cloud_model = core::build_cloud_classifier(2, 4, rng);
    core::TrainOptions cloud_options;
    cloud_options.epochs = 6;
    cloud_options.batch_size = 16;
    core::train_classifier(cloud_model, ds.train, cloud_options, train_rng);

    const Shape feature_shape = net.main_trunk().output_shape(ds.test.instance_shape());
    util::Rng head_rng(3);
    sim::FeatureCloudNode feature_cloud(feature_shape, 4, head_rng);
    core::TrainOptions head_options;
    head_options.epochs = 5;
    head_options.batch_size = 16;
    feature_cloud.train(net, ds.train, head_options, train_rng);

    return Fixture{std::move(ds), std::move(net), std::move(dict),
                   sim::CloudNode(std::move(cloud_model)), std::move(feature_cloud)};
  }

  /// Offloading config: low entropy threshold so the cloud route fires.
  EngineConfig config() {
    EngineConfig cfg;
    cfg.net = &net;
    cfg.dict = &dict;
    cfg.policy_config.cloud_available = true;
    cfg.policy_config.entropy_threshold = 0.3;
    cfg.batch_size = 16;
    return cfg;
  }
};

TEST(InferenceSession, BackendSwapParityOnOneDataset) {
  Fixture& f = Fixture::instance();
  auto run_with = [&](std::shared_ptr<OffloadBackend> backend) {
    EngineConfig cfg = f.config();
    cfg.backend = std::move(backend);
    InferenceSession session(cfg);
    return session.run(f.ds.test);
  };
  const auto raw = run_with(std::make_shared<RawImageBackend>(&f.cloud));
  const auto feature = run_with(std::make_shared<FeatureBackend>(&f.feature_cloud));
  const auto none = run_with(nullptr);

  ASSERT_EQ(static_cast<int>(raw.size()), f.ds.test.size());
  ASSERT_EQ(raw.size(), feature.size());
  ASSERT_EQ(raw.size(), none.size());

  // Routing is decided at the edge, so swapping the backend must not
  // change any route — only who answers the cloud-routed instances.
  const core::RouteCounts raw_routes = count_routes(raw);
  const core::RouteCounts feature_routes = count_routes(feature);
  const core::RouteCounts none_routes = count_routes(none);
  EXPECT_GT(raw_routes.cloud, 0);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    EXPECT_EQ(raw[i].route, feature[i].route) << i;
    EXPECT_EQ(raw[i].route, none[i].route) << i;
    EXPECT_EQ(raw[i].edge_prediction, feature[i].edge_prediction) << i;
    if (raw[i].route == core::Route::kCloud) {
      EXPECT_TRUE(raw[i].offloaded);
      EXPECT_TRUE(feature[i].offloaded);
      EXPECT_FALSE(none[i].offloaded);
    } else {
      // Non-offloaded instances answer identically under every backend.
      EXPECT_EQ(raw[i].prediction, feature[i].prediction) << i;
      EXPECT_EQ(raw[i].prediction, none[i].prediction) << i;
    }
  }
  EXPECT_EQ(raw_routes.cloud, feature_routes.cloud);
  EXPECT_EQ(raw_routes.cloud, none_routes.cloud);
  EXPECT_EQ(raw_routes.main_exit, feature_routes.main_exit);
  EXPECT_EQ(raw_routes.extension_exit, feature_routes.extension_exit);
}

TEST(InferenceSession, CloudUnavailableFallsBackToEdgeBestGuess) {
  Fixture& f = Fixture::instance();
  EngineConfig cfg = f.config();  // backend defaults to NullBackend
  InferenceSession session(cfg);
  const auto results = session.run(f.ds.test);
  int cloud_routed = 0;
  for (const InferenceResult& r : results) {
    if (r.route != core::Route::kCloud) continue;
    ++cloud_routed;
    EXPECT_FALSE(r.offloaded);
    // The edge's best guess answers instead of the unreachable cloud.
    EXPECT_EQ(r.prediction, r.edge_prediction);
    EXPECT_GE(r.prediction, 0);
  }
  EXPECT_GT(cloud_routed, 0);
}

/// A backend whose cloud link is down: classify() always throws.
class ThrowingBackend : public OffloadBackend {
 public:
  std::vector<int> classify(const OffloadPayload&) override {
    throw std::runtime_error("cloud link down");
  }
  std::int64_t payload_bytes(const Shape&, const Shape&) const override { return 0; }
  std::string describe() const override { return "throwing"; }
};

TEST(InferenceSession, ThrowingBackendFallsBackLikeUnreachableCloud) {
  Fixture& f = Fixture::instance();
  EngineConfig cfg = f.config();
  cfg.backend = std::make_shared<ThrowingBackend>();
  InferenceSession session(cfg);
  const auto results = session.run(f.ds.test);  // must not throw
  int cloud_routed = 0;
  for (const InferenceResult& r : results) {
    if (r.route != core::Route::kCloud) continue;
    ++cloud_routed;
    EXPECT_FALSE(r.offloaded);
    EXPECT_EQ(r.prediction, r.edge_prediction);
  }
  EXPECT_GT(cloud_routed, 0);
}

TEST(InferenceSession, ThreadedSubmitDrainMatchesSingleThreaded) {
  Fixture& f = Fixture::instance();

  EngineConfig single = f.config();
  single.backend = std::make_shared<RawImageBackend>(&f.cloud);
  InferenceSession single_session(single);
  const auto baseline = single_session.run(f.ds.test);

  // Four workers sharing the one net (eval forwards are cache-free).
  EngineConfig threaded = f.config();
  threaded.backend = std::make_shared<RawImageBackend>(&f.cloud);
  threaded.worker_threads = 4;
  threaded.batch_size = 8;      // different batching must not matter
  threaded.queue_capacity = 4;  // exercise submit() backpressure
  InferenceSession threaded_session(threaded);
  ASSERT_EQ(threaded_session.worker_count(), 4);

  // Feed single instances so the batcher has to coalesce them.
  for (int i = 0; i < f.ds.test.size(); ++i) {
    threaded_session.submit(f.ds.test.instance(i));
  }
  const auto threaded_results = threaded_session.drain();

  ASSERT_EQ(threaded_results.size(), baseline.size());
  const core::RouteCounts base_routes = count_routes(baseline);
  const core::RouteCounts thread_routes = count_routes(threaded_results);
  EXPECT_EQ(base_routes.main_exit, thread_routes.main_exit);
  EXPECT_EQ(base_routes.extension_exit, thread_routes.extension_exit);
  EXPECT_EQ(base_routes.cloud, thread_routes.cloud);
  std::int64_t base_correct = 0, thread_correct = 0;
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(threaded_results[i].id, static_cast<std::int64_t>(i));
    EXPECT_EQ(threaded_results[i].route, baseline[i].route) << i;
    EXPECT_EQ(threaded_results[i].prediction, baseline[i].prediction) << i;
    const int label = f.ds.test.labels[i];
    base_correct += baseline[i].prediction == label;
    thread_correct += threaded_results[i].prediction == label;
  }
  EXPECT_EQ(base_correct, thread_correct);  // identical accuracy
}

TEST(InferenceSession, WorkersShareOneNetWithoutReplicas) {
  Fixture& f = Fixture::instance();
  EngineConfig cfg = f.config();
  cfg.worker_threads = 8;  // all serve on the one shared net
  InferenceSession session(cfg);
  EXPECT_EQ(session.worker_count(), 8);
}

TEST(InferenceSession, SessionIsReusableAcrossDrains) {
  Fixture& f = Fixture::instance();
  EngineConfig cfg = f.config();
  InferenceSession session(cfg);
  const auto first = session.run(f.ds.test);
  const auto second = session.run(f.ds.test);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    // Ids are rebased to dataset indices on every run() call.
    EXPECT_EQ(first[i].id, static_cast<std::int64_t>(i));
    EXPECT_EQ(second[i].id, static_cast<std::int64_t>(i));
    EXPECT_EQ(first[i].prediction, second[i].prediction);
  }
}

TEST(InferenceSession, MarginPolicyOffloadsThroughSameApi) {
  Fixture& f = Fixture::instance();
  EngineConfig cfg = f.config();
  core::MarginPolicyConfig margin;
  margin.margin_threshold = 0.35;
  margin.cloud_available = true;
  cfg.policy = std::make_shared<core::ConfidenceMarginPolicy>(f.dict, margin);
  cfg.backend = std::make_shared<RawImageBackend>(&f.cloud);
  InferenceSession session(cfg);
  const auto results = session.run(f.ds.test);
  const core::RouteCounts routes = count_routes(results);
  EXPECT_EQ(routes.total(), f.ds.test.size());
  EXPECT_GT(routes.cloud, 0);
  for (const InferenceResult& r : results) {
    // The margin rule, not the entropy rule, must have decided.
    if (r.route == core::Route::kCloud) {
      EXPECT_LT(r.margin, 0.35f);
    }
    if (r.margin >= 0.35f) {
      EXPECT_NE(r.route, core::Route::kCloud);
    }
  }
}

TEST(InferenceSession, CostsAreChargedPerRoute) {
  Fixture& f = Fixture::instance();
  EngineConfig cfg = f.config();
  cfg.backend = std::make_shared<RawImageBackend>(&f.cloud);
  cfg.costs.main_macs = 1000;
  cfg.costs.extension_macs = 500;
  cfg.costs.upload_bytes_per_instance = 2 * 8 * 8;
  InferenceSession session(cfg);
  for (const InferenceResult& r : session.run(f.ds.test)) {
    EXPECT_GT(r.compute_energy_j, 0.0);
    if (r.route == core::Route::kCloud) {
      EXPECT_GT(r.comm_energy_j, 0.0);
      EXPECT_GT(r.comm_time_s, 0.0);
    } else {
      EXPECT_DOUBLE_EQ(r.comm_energy_j, 0.0);
    }
  }
}

TEST(OffloadBackend, PayloadBytesMatchModeGeometry) {
  Fixture& f = Fixture::instance();
  const Shape image = f.ds.test.instance_shape();
  const Shape feature = f.net.main_trunk().output_shape(image);
  RawImageBackend raw(&f.cloud);
  FeatureBackend feat(&f.feature_cloud);
  NullBackend none;
  EXPECT_EQ(raw.payload_bytes(image, feature), image.numel());
  EXPECT_EQ(feat.payload_bytes(image, feature), sim::FeatureCloudNode::feature_bytes(feature));
  EXPECT_EQ(none.payload_bytes(image, feature), 0);
}

TEST(OffloadBackend, WirePricesMatchInProcessBackends) {
  Fixture& f = Fixture::instance();
  const Shape image = f.ds.test.instance_shape();
  const Shape feature = f.net.main_trunk().output_shape(image);
  const std::int64_t raw = RawImageBackend(&f.cloud).payload_bytes(image, feature);
  const std::int64_t feat = FeatureBackend(&f.feature_cloud).payload_bytes(image, feature);
  // The wire hop ships the same representations, so it costs the same
  // simulated airtime; nothing is dialed until classify().
  for (const auto& [images, features, expected] :
       {std::tuple{true, false, raw}, std::tuple{false, true, feat},
        std::tuple{true, true, raw + feat}}) {
    wire::WireBackendConfig config;
    config.socket_path = "/nonexistent/meanet.sock";
    config.send_images = images;
    config.send_features = features;
    const wire::WireBackend wire(config);
    EXPECT_EQ(wire.payload_bytes(image, feature), expected)
        << "images=" << images << " features=" << features;
  }
}

TEST(EngineConfig, InvalidConfigsAreRejected) {
  Fixture& f = Fixture::instance();
  EngineConfig no_net;
  no_net.dict = &f.dict;
  EXPECT_THROW(InferenceSession{no_net}, std::invalid_argument);
  EngineConfig bad_batch = f.config();
  bad_batch.batch_size = 0;
  EXPECT_THROW(InferenceSession{bad_batch}, std::invalid_argument);
  EXPECT_THROW(RawImageBackend{nullptr}, std::invalid_argument);
  EXPECT_THROW(FeatureBackend{nullptr}, std::invalid_argument);
}

}  // namespace
}  // namespace meanet::runtime
