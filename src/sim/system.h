// The distributed inference report (paper Alg. 2 + Fig. 1): folds the
// per-instance results of an InferenceSession run over a dataset into
// the accuracy / routing / energy figures the benches print.
//
//   runtime::EngineConfig cfg;
//   cfg.net = &net; cfg.dict = &dict;
//   cfg.policy_config.cloud_available = true;
//   cfg.policy_config.entropy_threshold = 0.4;
//   cfg.backend = std::make_shared<runtime::RawImageBackend>(&cloud);
//   cfg.costs = costs;
//   runtime::InferenceSession session(cfg);
//   const sim::SystemReport report = sim::summarize(session.run(test), test, dict);
#pragma once

#include <vector>

#include "core/edge_inference.h"
#include "data/class_dict.h"
#include "data/dataset.h"
#include "runtime/result_handle.h"

namespace meanet::sim {

struct SystemReport {
  // Accuracy.
  double accuracy = 0.0;
  double hard_class_accuracy = 0.0;
  // Routing.
  core::RouteCounts routes;
  double cloud_fraction = 0.0;  // the paper's beta
  // Edge-side energy (Fig. 8 quantities).
  double edge_compute_energy_j = 0.0;
  double communication_energy_j = 0.0;
  double edge_energy_j() const { return edge_compute_energy_j + communication_energy_j; }
  // Latency (seconds, summed over all instances).
  double edge_compute_time_s = 0.0;
  double communication_time_s = 0.0;
  // Per-instance outcome (prediction in global label space).
  std::vector<int> predictions;
  std::vector<core::Route> instance_routes;
};

/// Folds `results` — one per dataset instance, ids rebased to dataset
/// indices as InferenceSession::run returns them — into a report.
/// Hard-class accuracy is taken over the labels `dict` marks hard.
/// Throws std::invalid_argument on an empty dataset.
SystemReport summarize(const std::vector<runtime::InferenceResult>& results,
                       const data::Dataset& dataset, const data::ClassDict& dict);

}  // namespace meanet::sim
