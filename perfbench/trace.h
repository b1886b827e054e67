// Benchmark-side tracing: an in-memory span log and decorators over FLINT's
// public seams (SessionStream, WindowStream, ml::Model). Nothing here touches the library's internals; every
// number is taken at a public call boundary. The decorators are installed
// only in the traced run, so untraced timings never pay for them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "flint/device/availability.h"
#include "flint/device/session_stream.h"
#include "flint/ml/model.h"

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
inline double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch).count();
}

/// CPU seconds this process has run, summed over its threads. Unlike the
/// steady clock, it leaves out time the process waited for a CPU: time the
/// hypervisor gave this virtual CPU to another guest, and time other
/// processes held it. For a workload on one thread it is the wall time the
/// workload would take on a CPU of its own.
inline double cpu_s() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

/// A monotonically increasing time total that several threads add to.
class BusyTime {
 public:
  void add(double seconds) {
    ns_.fetch_add(static_cast<std::uint64_t>(seconds * 1e9), std::memory_order_relaxed);
  }
  double seconds() const { return static_cast<double>(ns_.load(std::memory_order_relaxed)) * 1e-9; }

 private:
  std::atomic<std::uint64_t> ns_{0};
};

using Count = std::atomic<std::uint64_t>;

/// One closed span. `parent` is the span open on the same thread when this
/// one began (0 at a root); all spans of a run share the log's run id.
struct SpanRecord {
  const char* name = "";
  double start_s = 0.0;
  double end_s = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint32_t thread = 0;
};

/// Process-wide span log. Disabled (every Span a no-op apart from its clock
/// reads) until enable(); bounded so a runaway workload cannot exhaust memory.
class SpanLog {
 public:
  static SpanLog& instance() {
    static SpanLog log;
    return log;
  }

  void enable(std::uint64_t run_id, std::size_t max_spans) {
    run_id_ = run_id;
    max_spans_ = max_spans;
    enabled_.store(true, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  std::uint64_t mint_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void record(const SpanRecord& span) {
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() >= max_spans_) {
      ++dropped_;
      return;
    }
    spans_.push_back(span);
  }

  std::uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
  }

  /// Self time per span name: each span's duration minus the time its
  /// children cover. Children nest strictly inside their parent on the
  /// parent's thread (Span is RAII), so coverage is the sum of child
  /// durations.
  std::map<std::string, double> self_time_by_name() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::uint64_t, double> child_time;
    for (const SpanRecord& s : spans_)
      if (s.parent != 0) child_time[s.parent] += s.end_s - s.start_s;
    std::map<std::string, double> self;
    for (const SpanRecord& s : spans_) {
      auto it = child_time.find(s.id);
      double covered = it == child_time.end() ? 0.0 : it->second;
      self[s.name] += (s.end_s - s.start_s) - covered;
    }
    return self;
  }

  /// Write every span as one JSON object per line.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    for (const SpanRecord& s : spans_)
      std::fprintf(f,
                   "{\"run\":%llu,\"id\":%llu,\"parent\":%llu,\"thread\":%u,\"name\":\"%s\","
                   "\"start_s\":%.9f,\"end_s\":%.9f}\n",
                   static_cast<unsigned long long>(run_id_), static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.thread, s.name, s.start_s,
                   s.end_s);
    return std::fclose(f) == 0;
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::uint64_t run_id_ = 0;
  std::size_t max_spans_ = 0;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::uint64_t dropped_ = 0;
};

inline std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local std::uint32_t index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

inline std::uint64_t& current_span() {
  thread_local std::uint64_t id = 0;
  return id;
}

/// RAII span: records [construction, destruction) under `name` when the log
/// is enabled, and always adds its duration to `busy` when one is given.
class Span {
 public:
  explicit Span(const char* name, BusyTime* busy = nullptr) : name_(name), busy_(busy) {
    SpanLog& log = SpanLog::instance();
    if (log.enabled()) {
      id_ = log.mint_id();
      parent_ = current_span();
      current_span() = id_;
    }
    start_ = now_s();
  }
  ~Span() {
    double end = now_s();
    if (busy_ != nullptr) busy_->add(end - start_);
    if (id_ != 0) {
      current_span() = parent_;
      SpanLog::instance().record({name_, start_, end, id_, parent_, thread_index()});
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  BusyTime* busy_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  double start_ = 0.0;
};

// --- Layer counters (shared by every decorator of one traced run). ----------

struct DeviceCounters {
  Count sessions_pulled{0};
  Count windows_pulled{0};
  BusyTime window_next;
};

struct MlCounters {
  Count forward_calls{0};
  Count backward_calls{0};
  Count examples{0};
  Count clones{0};
  BusyTime forward;
  BusyTime backward;
  double busy_s() const { return forward.seconds() + backward.seconds(); }
};

// --- Decorators. -------------------------------------------------------------

class TracedSessionStream final : public flint::device::SessionStream {
 public:
  TracedSessionStream(std::unique_ptr<flint::device::SessionStream> inner, DeviceCounters& c)
      : inner_(std::move(inner)), c_(&c) {}

  std::optional<flint::device::Session> next() override {
    Span span("device.session_next");
    auto s = inner_->next();
    if (s.has_value()) c_->sessions_pulled.fetch_add(1, std::memory_order_relaxed);
    return s;
  }
  std::size_t clients() const override { return inner_->clients(); }
  double horizon() const override { return inner_->horizon(); }

 private:
  std::unique_ptr<flint::device::SessionStream> inner_;
  DeviceCounters* c_;
};

class TracedWindowStream final : public flint::device::WindowStream {
 public:
  TracedWindowStream(flint::device::WindowStream& inner, DeviceCounters& c)
      : inner_(&inner), c_(&c) {}

  std::optional<flint::device::AvailabilityWindow> next() override {
    Span span("device.window_next", &c_->window_next);
    auto w = inner_->next();
    if (w.has_value()) c_->windows_pulled.fetch_add(1, std::memory_order_relaxed);
    return w;
  }

 private:
  flint::device::WindowStream* inner_;
  DeviceCounters* c_;
};

/// Wraps a model; clone() returns a wrapped clone, so every trainer replica
/// and evaluation shard the runners derive from the template is counted.
class TracedModel final : public flint::ml::Model {
 public:
  TracedModel(std::unique_ptr<flint::ml::Model> inner, MlCounters& c)
      : inner_(std::move(inner)), c_(&c) {}

  flint::ml::Tensor forward(const flint::ml::Batch& batch) override {
    Span span("ml.forward", &c_->forward);
    c_->forward_calls.fetch_add(1, std::memory_order_relaxed);
    c_->examples.fetch_add(batch.size(), std::memory_order_relaxed);
    return inner_->forward(batch);
  }
  void backward(const flint::ml::Tensor& d_logits) override {
    Span span("ml.backward", &c_->backward);
    c_->backward_calls.fetch_add(1, std::memory_order_relaxed);
    inner_->backward(d_logits);
  }
  std::vector<flint::ml::Parameter*> parameters() override { return inner_->parameters(); }
  std::size_t heads() const override { return inner_->heads(); }
  std::unique_ptr<flint::ml::Model> clone() const override {
    Span span("ml.clone");
    c_->clones.fetch_add(1, std::memory_order_relaxed);
    return std::make_unique<TracedModel>(inner_->clone(), *c_);
  }
  void init(flint::util::Rng& rng) override { inner_->init(rng); }

 private:
  std::unique_ptr<flint::ml::Model> inner_;
  MlCounters* c_;
};

}  // namespace perfbench
