// Table I of the paper: analytic per-deployment cost model. This bench
// prints the symbolic table and then evaluates it numerically for both
// dataset presets (raw-data vs feature offload, several q values).
#include <cstdio>

#include "common.h"
#include "sim/device_model.h"
#include "sim/energy_model.h"
#include "sim/wifi_model.h"
#include "util/stopwatch.h"

using namespace meanet;

namespace {

void evaluate(const char* name, const sim::CostParams& params, std::int64_t n, double beta) {
  const sim::EnergyModel model(params);
  std::printf("%s (N=%lld, beta=%.2f; per-image x=%.3g, x_cl=%.3g, x_cu=%.3g, x'_cu=%.3g J)\n",
              name, static_cast<long long>(n), beta, params.edge_compute, params.cloud_compute,
              params.comm_raw, params.comm_features);
  std::printf("%-28s %14s %14s %14s %14s\n", "mode", "edge comp J", "cloud comp J", "comm J",
              "edge total J");
  auto row = [&](const char* mode, const sim::CostBreakdown& c) {
    std::printf("%-28s %14.2f %14.2f %14.2f %14.2f\n", mode, c.edge_compute, c.cloud_compute,
                c.communication, c.edge_total());
  };
  row("edge", model.edge_only(n));
  row("cloud", model.cloud_only(n));
  row("edge-cloud (raw data)", model.edge_cloud_raw(n, beta));
  for (const double q : {1.0 / 3.0, 0.5, 2.0 / 3.0}) {
    char mode[48];
    std::snprintf(mode, sizeof(mode), "edge-cloud (features,q=%.2f)", q);
    row(mode, model.edge_cloud_features(n, beta, q));
  }
  std::printf("\n");
}

}  // namespace

int main() {
  util::Stopwatch sw;
  std::printf("=== Table I: cost estimation of inference deployments ===\n\n");
  std::printf("symbolic form (paper Table I):\n");
  std::printf("  edge                 : N*x          | -              | -\n");
  std::printf("  cloud                : -            | N*x_cl         | N*x_cu\n");
  std::printf("  edge-cloud (raw)     : N*x          | b*N*x_cl       | b*N*x_cu\n");
  std::printf("  edge-cloud (features): N*(q*x)      | b*N*(1-q)*x_cl | b*N*x'_cu\n\n");

  const sim::WifiModel wifi;

  // CIFAR-like preset: paper constants (Table VII) — small images, so
  // features are *larger* than raw data (paper §III-D).
  sim::CostParams cifar;
  cifar.edge_compute = sim::DeviceModel::paper_cifar_gpu().compute_energy_j(69'000'000);
  cifar.cloud_compute = 0.0;  // paper: cloud compute is not an edge concern
  cifar.comm_raw = wifi.upload_energy_j(32 * 32 * 3);
  cifar.comm_features = wifi.upload_energy_j(2 * 32 * 32 * 3);  // features bigger
  evaluate("CIFAR-100 preset", cifar, 10000, 0.15);

  // ImageNet-like preset: large raw images, features smaller.
  sim::CostParams imagenet;
  imagenet.edge_compute = sim::DeviceModel::paper_imagenet_gpu().compute_energy_j(1'722'000'000);
  imagenet.cloud_compute = 0.0;
  imagenet.comm_raw = wifi.upload_energy_j(224 * 224 * 3);
  imagenet.comm_features = wifi.upload_energy_j(224 * 224 * 3 / 4);
  evaluate("ImageNet preset", imagenet, 50000, 0.28);

  std::printf("[table1] done in %.1f s\n", sw.seconds());
  return 0;
}
