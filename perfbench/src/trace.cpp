#include "trace.h"

#include <algorithm>
#include <cstring>
#include <numeric>

namespace perfbench {

namespace {

// The span open on this thread: the parent of any span begun below it.
thread_local std::int64_t t_current_span = 0;

double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

}  // namespace

void SpanLog::add(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

meanet::diag::Value SpanLog::to_value() const {
  std::vector<Span> spans;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    spans = spans_;
  }
  std::stable_sort(spans.begin(), spans.end(),
                   [](const Span& a, const Span& b) { return a.start_us < b.start_us; });
  meanet::diag::Value out = meanet::diag::Value::array();
  for (const Span& span : spans) {
    meanet::diag::Value v;
    v.set("name", span.name);
    v.set("id", span.id);
    v.set("parent", span.parent);
    v.set("rid", span.rid);
    v.set("start_us", span.start_us);
    v.set("end_us", span.end_us);
    out.push(std::move(v));
  }
  return out;
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, std::int64_t rid) : log_(log) {
  if (log_ == nullptr) return;
  span_.name = name;
  span_.id = log_->next_id();
  span_.parent = t_current_span;
  span_.rid = rid;
  saved_parent_ = t_current_span;
  t_current_span = span_.id;
  span_.start_us = log_->micros(SteadyClock::now());
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  span_.end_us = log_->micros(SteadyClock::now());
  t_current_span = saved_parent_;
  log_->add(span_);
}

void SampleSet::add(double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  values_.push_back(value);
}

std::vector<double> SampleSet::values() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return values_;
}

void SampleSet::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  values_.clear();
}

double SampleSet::sum() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

TimingBackend::TimingBackend(std::shared_ptr<meanet::runtime::OffloadBackend> inner,
                             SpanLog* log)
    : inner_(std::move(inner)), log_(log) {}

std::vector<int> TimingBackend::classify(const meanet::runtime::OffloadPayload& payload) {
  const std::int64_t call = calls_.fetch_add(1) + 1;
  const meanet::Tensor& rows = payload.images.empty() ? payload.features : payload.images;
  instances_.fetch_add(rows.shape().batch());
  ScopedSpan span(log_, "offload.classify", call);
  const SteadyClock::time_point start = SteadyClock::now();
  try {
    std::vector<int> predictions = inner_->classify(payload);
    rtt_s_.add(seconds_since(start));
    return predictions;
  } catch (...) {
    // The session falls back to edge predictions; the time still counts.
    rtt_s_.add(seconds_since(start));
    throw;
  }
}

void TimingBackend::reset() {
  rtt_s_.clear();
  calls_.store(0);
  instances_.store(0);
}

void WireCounters::reset() {
  bytes_out.store(0);
  bytes_in.store(0);
  write_s.clear();
  response_wait_s.clear();
}

CountingTransport::CountingTransport(std::unique_ptr<meanet::wire::Transport> inner,
                                     std::shared_ptr<WireCounters> counters, SpanLog* log)
    : inner_(std::move(inner)), counters_(std::move(counters)), log_(log) {}

void CountingTransport::write_all(const std::uint8_t* data, std::size_t size) {
  // write_frame hands over a whole frame: the request id sits at header
  // offset 8 (little-endian u64, see wire/frame.h).
  std::uint64_t request_id = 0;
  if (size >= 16) std::memcpy(&request_id, data + 8, sizeof(request_id));
  const SteadyClock::time_point start = SteadyClock::now();
  {
    ScopedSpan span(log_, "wire.write", static_cast<std::int64_t>(request_id));
    inner_->write_all(data, size);
  }
  const SteadyClock::time_point written = SteadyClock::now();
  counters_->write_s.add(std::chrono::duration<double>(written - start).count());
  counters_->bytes_out.fetch_add(static_cast<std::int64_t>(size));
  std::lock_guard<std::mutex> lock(mutex_);
  awaiting_reply_ = true;
  written_at_ = written;
  request_id_ = static_cast<std::int64_t>(request_id);
}

std::size_t CountingTransport::read_some(std::uint8_t* buf, std::size_t max, double timeout_s) {
  const std::size_t n = inner_->read_some(buf, max, timeout_s);
  if (n == 0) return n;
  const SteadyClock::time_point arrived = SteadyClock::now();
  counters_->bytes_in.fetch_add(static_cast<std::int64_t>(n));
  std::lock_guard<std::mutex> lock(mutex_);
  if (awaiting_reply_) {
    awaiting_reply_ = false;
    counters_->response_wait_s.add(std::chrono::duration<double>(arrived - written_at_).count());
    if (log_ != nullptr) {
      Span span;
      span.name = "wire.response_wait";
      span.id = log_->next_id();
      span.parent = t_current_span;
      span.rid = request_id_;
      span.start_us = log_->micros(written_at_);
      span.end_us = log_->micros(arrived);
      log_->add(span);
    }
  }
  return n;
}

}  // namespace perfbench
