// Tracked performance baseline of the inference hot path.
//
// Times the GEMM-backed kernels against the naive per-pixel loop nests
// (the MEANET_NAIVE_KERNELS path) on:
//   - single-image eval forwards of the edge models,
//   - batched eval forwards,
//   - the routing-signal reductions (softmax / argmax / entropy /
//     margin),
//   - end-to-end submit -> settle through a 2-worker InferenceSession
//     sharing one net,
// and emits BENCH_forward.json so every future perf PR is judged
// against a measured trajectory, not vibes.
//
// The model-forward rows additionally time the portable 4x16
// microkernel (SIMD dispatch forced off) and the int8 quantized path
// (ops::QuantizedScope), so the JSON tracks all three serving tiers.
// Every compared path is timed rep by rep, interleaved, through one
// helper (interleaved_median_ms).
//
// The batch sweep reports float and int8 imgs/s for each model at
// batch 1 / 8 / 32 at auto pool width; a depthwise row compares the
// GemmPool fan-out against single-thread at batch 32. The JSON header
// carries GemmPool::stats() so a run proves the pool actually engaged.
//
// Usage: perf_forward [--quick] [--out PATH]
// Exit status is nonzero when, on any single-image forward, the GEMM
// path is *slower* than the naive path, the dispatched SIMD kernel is
// slower than the portable one, or (with a vectorized int8 tier) the
// int8 path is slower than float; or when (with >= 2 hardware threads)
// the threaded depthwise loses to single-thread at batch 32 — the CI
// perf smoke gates.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "diag/value.h"
#include "nn/conv2d.h"
#include "runtime/session.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "tensor/qgemm.h"
#include "tensor/simd.h"

using namespace meanet;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Interleaved medians of several alternatives: each rep times every
/// alternative once, rotating which one runs first, so a thermal
/// throttle or noisy-neighbor window lands on all of them instead of
/// skewing whichever happened to own that slice of wall clock. The exit
/// gates judge ratios between alternatives, which interleaving
/// stabilizes far better than extra serialized reps would. Returns one
/// median (ms) per alternative, in order; one warmup pass runs first.
std::vector<double> interleaved_median_ms(int reps,
                                          const std::vector<std::function<void()>>& fns) {
  for (const auto& fn : fns) fn();  // warm caches, scratch buffers, branch predictors
  std::vector<std::vector<double>> samples(fns.size());
  for (int r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < fns.size(); ++i) {
      const std::size_t which = (static_cast<std::size_t>(r) + i) % fns.size();
      const double start = now_s();
      fns[which]();
      samples[which].push_back((now_s() - start) * 1e3);
    }
  }
  std::vector<double> medians;
  for (std::vector<double>& s : samples) {
    std::sort(s.begin(), s.end());
    medians.push_back(s[s.size() / 2]);
  }
  return medians;
}

/// `fn` under the naive reference kernels.
template <typename Fn>
std::function<void()> naive(Fn fn) {
  return [fn] {
    ops::set_naive_kernels(true);
    fn();
    ops::set_naive_kernels(false);
  };
}

struct Row {
  std::string name;
  double gemm_ms = 0.0;
  double naive_ms = 0.0;
  double portable_ms = 0.0;  // SIMD dispatch forced to the portable kernel
  double int8_ms = 0.0;      // quantized serving path; 0 = not measured
  double speedup() const { return gemm_ms > 0.0 ? naive_ms / gemm_ms : 0.0; }
  double simd_speedup() const { return gemm_ms > 0.0 ? portable_ms / gemm_ms : 0.0; }
  double int8_speedup() const { return int8_ms > 0.0 ? gemm_ms / int8_ms : 0.0; }
};

/// GEMM vs naive, interleaved.
template <typename Fn>
Row measure(const std::string& name, int reps, Fn fn) {
  Row row;
  row.name = name;
  const std::vector<double> ms = interleaved_median_ms(reps, {fn, naive(fn)});
  row.gemm_ms = ms[0];
  row.naive_ms = ms[1];
  std::printf("  %-38s gemm %9.3f ms   naive %9.3f ms   speedup %5.2fx\n", name.c_str(),
              row.gemm_ms, row.naive_ms, row.speedup());
  return row;
}

/// measure() plus the portable-microkernel and int8 tiers, all four
/// interleaved — for the model-forward rows where those paths engage.
template <typename Fn>
Row measure_tiers(const std::string& name, int reps, Fn fn) {
  Row row;
  row.name = name;
  const ops::SimdLevel level = ops::simd_level();
  const std::vector<double> ms = interleaved_median_ms(
      reps, {fn, naive(fn),
             [&] {
               ops::set_simd_level(ops::SimdLevel::kPortable);
               fn();
               ops::set_simd_level(level);
             },
             [&] {
               ops::QuantizedScope quantized(true);
               fn();
             }});
  row.gemm_ms = ms[0];
  row.naive_ms = ms[1];
  row.portable_ms = ms[2];
  row.int8_ms = ms[3];
  std::printf("  %-38s gemm %9.3f ms   naive %9.3f ms   speedup %5.2fx\n", name.c_str(),
              row.gemm_ms, row.naive_ms, row.speedup());
  std::printf("  %-38s portable %5.3f ms  int8 %9.3f ms (%s)    int8 %5.2fx\n", "",
              row.portable_ms, row.int8_ms, ops::int8_kernel_name(ops::int8_kernel()),
              row.int8_speedup());
  return row;
}

struct ModelUnderTest {
  std::string name;
  bench::EdgeModel model;
  bench::DatasetKind kind;
};

/// One point of the batch sweep: float and int8 at a fixed batch size.
struct BatchRow {
  std::string model;
  int batch = 0;
  double float_ms = 0.0;
  double int8_ms = 0.0;
  double imgs_per_s(double ms) const { return ms > 0.0 ? batch * 1e3 / ms : 0.0; }
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_forward.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: perf_forward [--quick] [--out PATH]\n");
      return 2;
    }
  }
  const int reps = quick ? 5 : 21;
  const int e2e_frames = quick ? 48 : 200;

  std::printf("=== perf_forward: GEMM hot path vs naive kernels (%s) ===\n",
              quick ? "quick" : "full");
  std::vector<Row> rows;
  std::vector<Row> gated;  // single-image rows the exit status checks
  std::vector<BatchRow> sweep;

  const ModelUnderTest models[] = {
      {"resnet_b_cifar", bench::EdgeModel::kResNetB, bench::DatasetKind::kCifarLike},
      {"mobilenet_b_imagenet", bench::EdgeModel::kMobileNetB,
       bench::DatasetKind::kImageNetLike},
  };
  for (const ModelUnderTest& m : models) {
    util::Rng rng(3);
    core::MEANet net = bench::build_edge_model(m.model, m.kind, bench::default_num_hard(m.kind),
                                               core::FusionMode::kSum, rng);
    const data::SyntheticSpec spec = bench::spec_for(m.kind);
    util::Rng data_rng(9);
    const Tensor single = Tensor::normal(Shape{1, spec.channels, spec.height, spec.width},
                                         data_rng);
    const Tensor batch = Tensor::normal(Shape{32, spec.channels, spec.height, spec.width},
                                        data_rng);
    Row one = measure_tiers(m.name + "_single_image", reps,
                            [&] { (void)net.forward_main(single, nn::Mode::kEval); });
    rows.push_back(one);
    gated.push_back(one);
    rows.push_back(measure_tiers(m.name + "_batch32", std::max(3, reps / 3),
                                 [&] { (void)net.forward_main(batch, nn::Mode::kEval); }));

    // Batch sweep at auto pool width (the single-stream serving
    // config; on a single-core runner auto resolves to 1).
    const int threads_before = ops::gemm_threads();
    ops::set_gemm_threads(0);  // 0 = auto
    for (const int bs : {1, 8, 32}) {
      const Tensor input = Tensor::normal(
          Shape{bs, spec.channels, spec.height, spec.width}, data_rng);
      auto fwd = [&] { (void)net.forward_main(input, nn::Mode::kEval); };
      BatchRow row;
      row.model = m.name;
      row.batch = bs;
      const std::vector<double> ms =
          interleaved_median_ms(std::max(5, reps / std::max(1, bs / 4)),
                                {fwd, [&] {
                                   ops::QuantizedScope quantized(true);
                                   fwd();
                                 }});
      row.float_ms = ms[0];
      row.int8_ms = ms[1];
      std::printf("  %-28s batch %2d   float %8.3f ms (%7.1f img/s)   int8 %8.3f ms (%7.1f img/s)\n",
                  m.name.c_str(), bs, row.float_ms, row.imgs_per_s(row.float_ms), row.int8_ms,
                  row.imgs_per_s(row.int8_ms));
      sweep.push_back(row);
    }
    ops::set_gemm_threads(threads_before);
  }

  // Depthwise fan-out: one MobileNet-sized depthwise layer at batch 32,
  // GemmPool width 1 vs auto. Isolated from the pointwise GEMMs so the
  // gate judges the depthwise threading alone.
  double dw_single_ms = 0.0, dw_threaded_ms = 0.0;
  int dw_threads = 1;
  {
    util::Rng rng(29);
    nn::DepthwiseConv2d dw(64, 3, 1, 1, rng);
    const Tensor x = Tensor::normal(Shape{32, 64, 56, 56}, rng);
    const int dw_reps = std::max(5, reps / 3);
    const int before = ops::gemm_threads();
    ops::set_gemm_threads(0);  // 0 = auto (hardware concurrency, clamped)
    dw_threads = ops::gemm_threads();
    const std::vector<double> ms = interleaved_median_ms(
        dw_reps, {[&] {
                    ops::set_gemm_threads(1);
                    (void)dw.forward(x, nn::Mode::kEval);
                  },
                  [&] {
                    ops::set_gemm_threads(0);
                    (void)dw.forward(x, nn::Mode::kEval);
                  }});
    dw_single_ms = ms[0];
    dw_threaded_ms = ms[1];
    ops::set_gemm_threads(before);
    std::printf("  %-28s batch 32   1 thread %7.3f ms   %d threads %7.3f ms   %5.2fx\n",
                "depthwise_64x56x56", dw_single_ms, dw_threads, dw_threaded_ms,
                dw_threaded_ms > 0.0 ? dw_single_ms / dw_threaded_ms : 0.0);
  }

  {
    // Routing-signal reductions on a serving-sized logits block.
    util::Rng rng(17);
    const Tensor logits = Tensor::normal(Shape{256, 20}, rng);
    Tensor probs;
    std::vector<int> argmax;
    std::vector<float> conf, margin, entropy;
    rows.push_back(measure("routing_signal_reductions_256x20", reps * 4, [&] {
      ops::softmax_into(logits, probs);
      ops::row_argmax_into(probs, argmax);
      ops::row_max_into(probs, conf);
      ops::row_margin_into(probs, margin);
      ops::row_entropy_into(probs, entropy);
    }));
  }

  {
    // End-to-end submit -> settle on a shared net, 2 workers, no cloud.
    util::Rng rng(3);
    core::MEANet net =
        bench::build_edge_model(bench::EdgeModel::kResNetB, bench::DatasetKind::kCifarLike,
                                bench::default_num_hard(bench::DatasetKind::kCifarLike),
                                core::FusionMode::kSum, rng);
    const data::SyntheticSpec spec = bench::spec_for(bench::DatasetKind::kCifarLike);
    std::vector<int> hard(static_cast<std::size_t>(
        bench::default_num_hard(bench::DatasetKind::kCifarLike)));
    for (std::size_t i = 0; i < hard.size(); ++i) hard[i] = static_cast<int>(i);
    data::ClassDict dict(spec.num_classes, hard);
    util::Rng data_rng(11);
    std::vector<Tensor> frames;
    for (int i = 0; i < e2e_frames; ++i) {
      frames.push_back(Tensor::normal(Shape{spec.channels, spec.height, spec.width}, data_rng));
    }
    auto serve_once = [&] {
      runtime::EngineConfig cfg;
      cfg.net = &net;
      cfg.dict = &dict;
      cfg.worker_threads = 2;
      cfg.batch_size = 8;
      runtime::InferenceSession session(cfg);
      for (const Tensor& frame : frames) session.submit(frame);
      (void)session.drain();
    };
    rows.push_back(measure("e2e_submit_settle_" + std::to_string(e2e_frames) + "f", 3,
                           serve_once));
  }

  // The tracked baseline is rendered by the shared diag exporter — the
  // same serializer (and schema tag) behind the diagnostics registry.
  diag::Value doc = diag::Value::object();
  doc.set("schema", diag::kSchemaVersion);
  doc.set("bench", "perf_forward");
  doc.set("quick", quick);
  doc.set("gemm_threads", ops::gemm_threads());
  doc.set("simd", ops::simd_level_name(ops::simd_level()));
  doc.set("int8_kernel", ops::int8_kernel_name(ops::int8_kernel()));
  const ops::GemmPool::Stats pool = ops::GemmPool::instance().stats();
  diag::Value pool_v = diag::Value::object();
  pool_v.set("workers", pool.workers);
  pool_v.set("jobs", static_cast<std::uint64_t>(pool.jobs));
  pool_v.set("fanout_jobs", static_cast<std::uint64_t>(pool.fanout_jobs));
  pool_v.set("stripes", static_cast<std::uint64_t>(pool.stripes));
  doc.set("pool", std::move(pool_v));
  diag::Value results = diag::Value::array();
  for (const Row& row : rows) {
    diag::Value v = diag::Value::object();
    v.set("name", row.name);
    v.set("gemm_ms", row.gemm_ms);
    v.set("naive_ms", row.naive_ms);
    v.set("speedup", row.speedup());
    v.set("portable_ms", row.portable_ms);
    v.set("int8_ms", row.int8_ms);
    v.set("int8_speedup", row.int8_speedup());
    results.push(std::move(v));
  }
  doc.set("results", std::move(results));
  diag::Value batch_sweep = diag::Value::array();
  for (const BatchRow& row : sweep) {
    diag::Value v = diag::Value::object();
    v.set("model", row.model);
    v.set("batch", row.batch);
    v.set("float_ms", row.float_ms);
    v.set("imgs_per_s", row.imgs_per_s(row.float_ms));
    v.set("int8_ms", row.int8_ms);
    v.set("int8_imgs_per_s", row.imgs_per_s(row.int8_ms));
    batch_sweep.push(std::move(v));
  }
  doc.set("batch_sweep", std::move(batch_sweep));
  diag::Value depthwise = diag::Value::object();
  depthwise.set("single_ms", dw_single_ms);
  depthwise.set("threaded_ms", dw_threaded_ms);
  depthwise.set("threads", dw_threads);
  doc.set("depthwise_batch32", std::move(depthwise));
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  const std::string rendered = diag::to_json(doc);
  std::fprintf(out, "%s\n", rendered.c_str());
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());

  bool regressed = false;
  for (const Row& row : gated) {
    if (row.speedup() < 1.0) {
      std::fprintf(stderr, "PERF REGRESSION: %s GEMM path (%.3f ms) slower than naive (%.3f ms)\n",
                   row.name.c_str(), row.gemm_ms, row.naive_ms);
      regressed = true;
    } else if (row.speedup() < 3.0) {
      std::printf("note: %s speedup %.2fx is below the 3x target\n", row.name.c_str(),
                  row.speedup());
    }
    // The dispatched microkernel must never lose to the portable one
    // it replaced at startup.
    if (ops::simd_level() != ops::SimdLevel::kPortable && row.portable_ms > 0.0 &&
        row.gemm_ms > row.portable_ms) {
      std::fprintf(stderr,
                   "PERF REGRESSION: %s %s kernel (%.3f ms) slower than portable (%.3f ms)\n",
                   row.name.c_str(), ops::simd_level_name(ops::simd_level()), row.gemm_ms,
                   row.portable_ms);
      regressed = true;
    }
    // With a VNNI tier the int8 path must beat float; the scalar
    // fallback is a correctness tier, not a speed claim.
    if (ops::int8_kernel_vectorized() && row.int8_ms > 0.0 && row.int8_ms > row.gemm_ms) {
      std::fprintf(stderr,
                   "PERF REGRESSION: %s int8 path (%.3f ms) slower than float (%.3f ms)\n",
                   row.name.c_str(), row.int8_ms, row.gemm_ms);
      regressed = true;
    }
  }
  // Depthwise fan-out must not lose to single-thread — only judged on
  // hardware that can actually run two threads. The 1.10 factor is a
  // noise allowance for shared CI runners.
  if (std::thread::hardware_concurrency() >= 2 && dw_threads >= 2 &&
      dw_threaded_ms > 1.10 * dw_single_ms) {
    std::fprintf(stderr,
                 "PERF REGRESSION: depthwise batch-32 at %d threads (%.3f ms) slower than "
                 "single-thread (%.3f ms)\n",
                 dw_threads, dw_threaded_ms, dw_single_ms);
    regressed = true;
  }
  return regressed ? 1 : 0;
}
