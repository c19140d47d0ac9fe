#include "runtime/offload_backend.h"

#include <stdexcept>

#include "sim/cloud_node.h"
#include "sim/feature_cloud.h"

namespace meanet::runtime {

std::int64_t OffloadBackend::payload_bytes(const Shape& image_shape,
                                           const Shape& feature_shape) const {
  std::int64_t bytes = 0;
  if (needs_images()) bytes += image_shape.numel() / image_shape.dim(0);
  if (needs_features()) bytes += sim::FeatureCloudNode::feature_bytes(feature_shape);
  return bytes;
}

RawImageBackend::RawImageBackend(sim::CloudNode* cloud) : cloud_(cloud) {
  if (cloud_ == nullptr) throw std::invalid_argument("RawImageBackend: null CloudNode");
}

std::vector<int> RawImageBackend::classify(const OffloadPayload& payload) {
  return cloud_->classify(payload.images);
}

FeatureBackend::FeatureBackend(sim::FeatureCloudNode* cloud) : cloud_(cloud) {
  if (cloud_ == nullptr) throw std::invalid_argument("FeatureBackend: null FeatureCloudNode");
}

std::vector<int> FeatureBackend::classify(const OffloadPayload& payload) {
  return cloud_->classify_features(payload.features);
}

std::vector<int> NullBackend::classify(const OffloadPayload& /*payload*/) { return {}; }

}  // namespace meanet::runtime
