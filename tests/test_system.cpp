#include <gtest/gtest.h>

#include "core/builders.h"
#include "core/trainer.h"
#include "runtime/session.h"
#include "sim/cloud_node.h"
#include "sim/system.h"
#include "tiny_models.h"

namespace meanet::sim {
namespace {

using meanet::testing::tiny_data_spec;
using meanet::testing::tiny_meanet_b;
using meanet::testing::tiny_resnet_config;

struct Fixture {
  data::SyntheticDataset ds;
  core::MEANet net;
  data::ClassDict dict;
  nn::Sequential cloud_model;

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
    cloud_options.epochs = 8;
    cloud_options.batch_size = 16;
    core::train_classifier(cloud_model, ds.train, cloud_options, train_rng);
    return Fixture{std::move(ds), std::move(net), std::move(dict), std::move(cloud_model)};
  }

  static EdgeNodeCosts costs() {
    EdgeNodeCosts c;
    c.upload_bytes_per_instance = 2 * 8 * 8;  // raw image bytes
    c.main_macs = 1000000;
    c.extension_macs = 500000;
    return c;
  }

  /// One Alg. 2 pass over the test set through an InferenceSession,
  /// folded into a report. A null backend = no cloud.
  SystemReport serve(core::PolicyConfig policy, std::shared_ptr<runtime::OffloadBackend> backend,
                     int batch_size = 64, int worker_threads = 1) {
    runtime::EngineConfig cfg;
    cfg.net = &net;
    cfg.dict = &dict;
    cfg.policy_config = policy;
    cfg.backend = std::move(backend);
    cfg.batch_size = batch_size;
    cfg.worker_threads = worker_threads;
    cfg.costs = costs();
    runtime::InferenceSession session(cfg);
    return summarize(session.run(ds.test), ds.test, dict);
  }
};

std::shared_ptr<runtime::OffloadBackend> raw(CloudNode& cloud) {
  return std::make_shared<runtime::RawImageBackend>(&cloud);
}

TEST(SystemReport, NoCloudMeansNoCommunication) {
  Fixture f = Fixture::make();
  const SystemReport report = f.serve(core::PolicyConfig{}, nullptr);
  EXPECT_EQ(report.routes.cloud, 0);
  EXPECT_DOUBLE_EQ(report.communication_energy_j, 0.0);
  EXPECT_GT(report.edge_compute_energy_j, 0.0);
  EXPECT_GT(report.accuracy, 0.4);
}

TEST(SystemReport, ZeroThresholdSendsEverythingToCloud) {
  Fixture f = Fixture::make();
  CloudNode cloud(std::move(f.cloud_model));
  core::PolicyConfig policy;
  policy.cloud_available = true;
  policy.entropy_threshold = 0.0;
  const SystemReport report = f.serve(policy, raw(cloud));
  // All test instances have strictly positive entropy in practice.
  EXPECT_GT(report.cloud_fraction, 0.99);
  EXPECT_GT(report.communication_energy_j, 0.0);
  EXPECT_EQ(cloud.instances_served(), f.ds.test.size());
}

TEST(SystemReport, HigherThresholdSendsLess) {
  Fixture f = Fixture::make();
  CloudNode cloud(std::move(f.cloud_model));
  auto run_with_threshold = [&](double threshold) {
    core::PolicyConfig policy;
    policy.cloud_available = true;
    policy.entropy_threshold = threshold;
    return f.serve(policy, raw(cloud));
  };
  const SystemReport low = run_with_threshold(0.2);
  const SystemReport high = run_with_threshold(1.0);
  EXPECT_GE(low.cloud_fraction, high.cloud_fraction);
  EXPECT_GE(low.communication_energy_j, high.communication_energy_j);
}

TEST(SystemReport, CloudImprovesAccuracyOverEdgeOnly) {
  Fixture f = Fixture::make();
  // Edge-only baseline.
  const SystemReport edge_report = f.serve(core::PolicyConfig{}, nullptr);

  CloudNode cloud(std::move(f.cloud_model));
  core::PolicyConfig policy;
  policy.cloud_available = true;
  policy.entropy_threshold = 0.3;
  const SystemReport cloud_report = f.serve(policy, raw(cloud));
  EXPECT_GE(cloud_report.accuracy, edge_report.accuracy);
}

TEST(SystemReport, ReportInternallyConsistent) {
  Fixture f = Fixture::make();
  CloudNode cloud(std::move(f.cloud_model));
  core::PolicyConfig policy;
  policy.cloud_available = true;
  policy.entropy_threshold = 0.5;
  const SystemReport report = f.serve(policy, raw(cloud), 13);  // odd batch size
  EXPECT_EQ(report.routes.total(), f.ds.test.size());
  EXPECT_EQ(static_cast<int>(report.predictions.size()), f.ds.test.size());
  EXPECT_EQ(static_cast<int>(report.instance_routes.size()), f.ds.test.size());
  EXPECT_NEAR(report.cloud_fraction,
              static_cast<double>(report.routes.cloud) / f.ds.test.size(), 1e-12);
  EXPECT_DOUBLE_EQ(report.edge_energy_j(),
                   report.edge_compute_energy_j + report.communication_energy_j);
  // Energy accounting: every instance pays main MACs; extension extra.
  const EdgeNodeCosts costs = f.costs();
  DeviceModel device;  // default throughput used in costs()
  const double expected_compute =
      device.compute_energy_j(costs.main_macs) * report.routes.total() +
      device.compute_energy_j(costs.extension_macs) * report.routes.extension_exit;
  EXPECT_NEAR(report.edge_compute_energy_j, expected_compute, 1e-9);
}

TEST(SystemReport, ThreadedRunMatchesSingleThreaded) {
  Fixture f = Fixture::make();
  CloudNode cloud(std::move(f.cloud_model));
  core::PolicyConfig policy;
  policy.cloud_available = true;
  policy.entropy_threshold = 0.3;
  const SystemReport single = f.serve(policy, raw(cloud), 16);

  // Two workers sharing the one net, small batches: the routed
  // predictions must be identical to the single-worker run.
  const SystemReport threaded = f.serve(policy, raw(cloud), 8, 2);
  ASSERT_EQ(threaded.predictions.size(), single.predictions.size());
  for (std::size_t i = 0; i < single.predictions.size(); ++i) {
    EXPECT_EQ(threaded.predictions[i], single.predictions[i]) << i;
  }
  EXPECT_DOUBLE_EQ(threaded.accuracy, single.accuracy);
  EXPECT_EQ(threaded.routes.cloud, single.routes.cloud);
}

TEST(EdgeNodeCosts, PerRouteCosts) {
  const EdgeNodeCosts costs = Fixture::costs();
  EXPECT_GT(costs.compute_energy_j(core::Route::kExtensionExit),
            costs.compute_energy_j(core::Route::kMainExit));
  EXPECT_DOUBLE_EQ(costs.compute_energy_j(core::Route::kCloud),
                   costs.compute_energy_j(core::Route::kMainExit));
  EXPECT_DOUBLE_EQ(costs.comm_energy_j(core::Route::kMainExit), 0.0);
  EXPECT_GT(costs.comm_energy_j(core::Route::kCloud), 0.0);
  EXPECT_GT(costs.comm_time_s(core::Route::kCloud), 0.0);
}

}  // namespace
}  // namespace meanet::sim
