// Replays of a workload's shapes through each layer's public functions,
// one layer at a time and single-threaded, for the traced run: the edge
// forwards (core::MEANet), the cloud forward (sim::CloudNode::classify),
// the wire codec (wire::encode_offload_request) and wire::crc32.
#pragma once

#include <string>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

/// The shapes a workload produced, which the cloud and wire replays use.
struct ReplayShapes {
  int cloud_batch = 1;        // mean instances per cloud forward
  int payload_instances = 1;  // mean instances per offload payload
};

/// Median time per call of every replayed layer, as per-layer metrics;
/// appends a readable line per replay to `report`.
std::vector<Metric> replay_layers(const std::string& artifacts, const ReplayShapes& shapes,
                                  SpanLog* log, std::vector<std::string>& report);

}  // namespace perfbench
