// Benchmark-side tracing for the traced run: spans recorded around the
// calls into each layer's public functions, from the benchmark's own
// files. Spans are kept in memory and written out when the run ends;
// the untraced runs construct none of this.
//
// Two decorators put spans and counters at the layer boundaries the
// program exposes without touching it: TimingBackend wraps the
// session's runtime::OffloadBackend (EngineConfig::backend), and
// CountingTransport wraps each daemon connection
// (wire::WireBackendConfig::transport_factory over wire::connect_unix).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "diag/value.h"
#include "runtime/offload_backend.h"
#include "wire/transport.h"

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

/// One span: a named interval at a layer boundary. `rid` ties the spans
/// of one request together (frame index, dispatch or wire request id);
/// `parent` is the span that was open on the same thread when this one
/// began (0 = none).
struct Span {
  const char* name = "";
  std::int64_t id = 0;
  std::int64_t parent = 0;
  std::int64_t rid = 0;
  double start_us = 0.0;
  double end_us = 0.0;
};

/// Thread-safe in-memory span store.
class SpanLog {
 public:
  SpanLog() : origin_(SteadyClock::now()) {}

  double micros(SteadyClock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  std::int64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void add(const Span& span);

  /// Every recorded span, ordered by start time.
  meanet::diag::Value to_value() const;

 private:
  SteadyClock::time_point origin_;
  std::atomic<std::int64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// RAII span: opens at construction, becomes the thread's current
/// parent, and is recorded at destruction. A null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::int64_t rid);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  Span span_;
  std::int64_t saved_parent_ = 0;
};

/// Samples the timing decorators collect (thread-safe).
class SampleSet {
 public:
  void add(double value);
  std::vector<double> values() const;
  double sum() const;
  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<double> values_;  // guarded by mutex_
};

/// OffloadBackend decorator: times every classify() (the offload round
/// trip as the session's dispatcher sees it) and counts its instances.
class TimingBackend : public meanet::runtime::OffloadBackend {
 public:
  TimingBackend(std::shared_ptr<meanet::runtime::OffloadBackend> inner, SpanLog* log);

  std::vector<int> classify(const meanet::runtime::OffloadPayload& payload) override;
  bool needs_images() const override { return inner_->needs_images(); }
  bool needs_features() const override { return inner_->needs_features(); }
  std::int64_t payload_bytes(const meanet::Shape& image_shape,
                             const meanet::Shape& feature_shape) const override {
    return inner_->payload_bytes(image_shape, feature_shape);
  }
  std::string describe() const override { return "timed(" + inner_->describe() + ")"; }

  /// Round-trip seconds of every classify() so far.
  const SampleSet& rtt_s() const { return rtt_s_; }
  std::int64_t instances() const { return instances_.load(); }
  /// Forgets everything recorded so far (the warm-up).
  void reset();

 private:
  std::shared_ptr<meanet::runtime::OffloadBackend> inner_;
  SpanLog* log_;
  SampleSet rtt_s_;
  std::atomic<std::int64_t> calls_{0};
  std::atomic<std::int64_t> instances_{0};
};

/// Client-side wire counters, shared by every connection of a session.
struct WireCounters {
  std::atomic<std::int64_t> bytes_out{0};
  std::atomic<std::int64_t> bytes_in{0};
  SampleSet write_s;          // time inside write_all()
  SampleSet response_wait_s;  // end of a write -> first byte of the reply
  void reset();
};

/// wire::Transport decorator counting bytes and timing writes and the
/// wait for each reply.
class CountingTransport : public meanet::wire::Transport {
 public:
  CountingTransport(std::unique_ptr<meanet::wire::Transport> inner,
                    std::shared_ptr<WireCounters> counters, SpanLog* log);

  std::size_t read_some(std::uint8_t* buf, std::size_t max, double timeout_s) override;
  void write_all(const std::uint8_t* data, std::size_t size) override;
  void close() override { inner_->close(); }
  std::string describe() const override { return "counted(" + inner_->describe() + ")"; }

 private:
  std::unique_ptr<meanet::wire::Transport> inner_;
  std::shared_ptr<WireCounters> counters_;
  SpanLog* log_;
  // The exchange in flight: set by write_all, consumed by the first
  // read that returns bytes. WireBackend runs one exchange at a time.
  std::mutex mutex_;
  bool awaiting_reply_ = false;        // guarded by mutex_
  SteadyClock::time_point written_at_;  // guarded by mutex_
  std::int64_t request_id_ = 0;         // guarded by mutex_
};

}  // namespace perfbench
