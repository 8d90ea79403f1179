#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "expert/util/thread_safety.hpp"

namespace expert::obs {

class Histogram;
class Registry;
struct TraceBuffer;

/// Self time of every span sharing one name, summed over all threads.
/// Self time is a span's own time minus that of its direct children on
/// the same thread, so the rows are disjoint and sum to the traced time.
struct SpanTotals {
  std::string name;
  std::uint64_t entries = 0;
  std::uint64_t self_wall_ns = 0;
  std::uint64_t self_cpu_ns = 0;  ///< CLOCK_THREAD_CPUTIME_ID
};

/// Calling thread's CPU time in nanoseconds (CLOCK_THREAD_CPUTIME_ID).
std::uint64_t thread_cpu_ns();

/// Collector of completed spans, and the one timing record every view is
/// folded from: the Chrome trace (chrome://tracing, ui.perfetto.dev), the
/// self-time table and the obs.span.* gauges. Each thread appends to its
/// own buffer; buffers outlive their threads. Disabled (the default),
/// starting a span costs one relaxed atomic load.
class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Process-wide tracer used by EXPERT_SPAN. Starts disabled; the CLI's
  /// --trace-out and --profile and the bench harness's EXPERT_TRACE_OUT
  /// enable it.
  static Tracer& global();

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Monotonic nanoseconds since tracer construction.
  std::uint64_t now_ns() const;

  /// Record a completed span. `name` must outlive the tracer (string
  /// literals only — the pointer is stored, not the characters).
  void record(const char* name, std::uint64_t start_ns,
              std::uint64_t duration_ns, std::uint64_t cpu_ns = 0);

  std::size_t event_count() const;
  /// Chrome trace format: {"traceEvents": [...]} of "ph":"X" complete
  /// events with the thread-CPU duration as "tdur"; one tid per recording
  /// thread, so spans nest by containment.
  void write_chrome_trace(std::ostream& os) const;
  void reset();

  /// Per-name self times, heaviest self wall time first (ties by name).
  std::vector<SpanTotals> self_times() const;
  /// Self-time table: one row per span name (entries, self wall, self
  /// CPU) and a total row.
  void write_self_time_table(std::ostream& os) const;
  /// Publish self_times() into `registry` as gauges labeled {span=name}:
  /// obs.span.entries, obs.span.self_seconds, obs.span.self_cpu_seconds.
  /// Gauges (set, not add), so republishing is idempotent.
  void publish(Registry& registry) const;

 private:
  TraceBuffer& local_buffer() const;

  std::atomic<bool> enabled_{false};
  const std::uint64_t gen_;  ///< process-unique id keying the TLS cache
  const std::chrono::steady_clock::time_point origin_;
  mutable util::Mutex mutex_;  ///< guards the buffer list
  mutable std::vector<std::unique_ptr<TraceBuffer>> buffers_
      EXPERT_GUARDED_BY(mutex_);
};

/// RAII scope timer. Captures the tracer's enabled state at construction:
/// a span started while disabled records nothing even if tracing is
/// enabled before it ends. Given a histogram, the span also observes its
/// own wall duration (seconds) there when it closes, whether or not the
/// tracer is on; pass nullptr to skip the clock reads when metrics are off.
class Span {
 public:
  explicit Span(const char* name, const Histogram* histogram = nullptr)
      : Span(name, Tracer::global(), histogram) {}
  Span(const char* name, Tracer& tracer, const Histogram* histogram = nullptr)
      : tracer_(&tracer),
        name_(name),
        histogram_(histogram),
        recording_(tracer.enabled()) {
    // The CPU interval sits inside the wall interval, so self CPU never
    // exceeds self wall by the cost of the clock reads.
    if (recording_ || histogram_ != nullptr) start_ns_ = tracer.now_ns();
    if (recording_) start_cpu_ns_ = thread_cpu_ns();
  }
  ~Span() {
    if (recording_ || histogram_ != nullptr) close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void close() const;

  Tracer* tracer_;
  const char* name_;
  const Histogram* histogram_;
  bool recording_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t start_cpu_ns_ = 0;
};

}  // namespace expert::obs

// EXPERT_SPAN("layer.operation") times the enclosing scope on the global
// tracer. Define EXPERT_OBS_DISABLE_TRACING to compile every span out.
#if defined(EXPERT_OBS_DISABLE_TRACING)
#define EXPERT_SPAN(name) static_cast<void>(0)
#else
#define EXPERT_OBS_CONCAT_IMPL(a, b) a##b
#define EXPERT_OBS_CONCAT(a, b) EXPERT_OBS_CONCAT_IMPL(a, b)
#define EXPERT_SPAN(name) \
  const ::expert::obs::Span EXPERT_OBS_CONCAT(expert_obs_span_, __LINE__)(name)
#endif
