#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "expert/util/thread_safety.hpp"

namespace expert::obs {

class Registry;
struct RegistryShard;

/// One dimension of a labeled series, e.g. {"pool", "reliable"}.
using Label = std::pair<std::string, std::string>;

/// Canonicalized label set: keys sorted, unique, values attached. Two label
/// sets written in different orders name the same series. Keys and values
/// must be non-empty. Stored as a sorted vector (never an unordered map) so
/// iteration — and therefore snapshot and JSON ordering — is deterministic.
class Labels {
 public:
  Labels() = default;
  Labels(std::initializer_list<Label> items);
  explicit Labels(std::vector<Label> items);

  bool empty() const noexcept { return items_.empty(); }
  std::size_t size() const noexcept { return items_.size(); }
  const std::vector<Label>& items() const noexcept { return items_; }
  /// Value for `key`, or nullptr when the key is absent.
  const std::string* value(std::string_view key) const noexcept;

  /// Prometheus-style rendering: `{k="v",k2="v2"}`; empty set renders "".
  std::string render() const;

  friend bool operator==(const Labels& a, const Labels& b) noexcept {
    return a.items_ == b.items_;
  }
  friend bool operator<(const Labels& a, const Labels& b) noexcept {
    return a.items_ < b.items_;
  }

 private:
  std::vector<Label> items_;  ///< sorted by key, keys unique
};

/// Fixed bucket layout of a histogram: strictly ascending upper bounds,
/// with an implicit +inf overflow bucket appended on registration.
struct HistogramSpec {
  std::vector<double> bounds;

  /// `count` geometrically spaced bounds from `first` to `last`, inclusive
  /// on both ends.
  static HistogramSpec exponential(double first, double last,
                                   std::size_t count);
  /// Default latency layout: 1 us .. ~100 s, four bounds per decade.
  static HistogramSpec latency_seconds();

  void validate() const;
};

/// Monotonically increasing counter. Handles are value types created by
/// Registry::counter(); a default-constructed handle is a no-op. Handles
/// must not outlive their registry.
class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t n = 1) const;

 private:
  friend class Registry;
  Counter(Registry* registry, std::uint32_t index)
      : registry_(registry), index_(index) {}
  Registry* registry_ = nullptr;
  std::uint32_t index_ = 0;
};

/// Last-write-wins instantaneous value, shared across threads.
class Gauge {
 public:
  Gauge() = default;
  void set(double value) const;
  void add(double delta) const;
  /// Raise the gauge to `value` if it is currently lower (high-water mark).
  void record_max(double value) const;

 private:
  friend class Registry;
  Gauge(Registry* registry, std::atomic<double>* cell)
      : registry_(registry), cell_(cell) {}
  Registry* registry_ = nullptr;
  std::atomic<double>* cell_ = nullptr;
};

/// Fixed-bucket distribution with count / sum / min / max.
class Histogram {
 public:
  Histogram() = default;
  void observe(double value) const;

 private:
  friend class Registry;
  Histogram(Registry* registry, std::uint32_t index)
      : registry_(registry), index_(index) {}
  Registry* registry_ = nullptr;
  std::uint32_t index_ = 0;
};

struct CounterSnapshot {
  std::string name;
  Labels labels;
  std::uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  Labels labels;
  double value = 0.0;
};

struct HistogramSnapshot {
  std::string name;
  Labels labels;
  std::vector<double> bounds;           ///< upper bounds, ascending
  std::vector<std::uint64_t> buckets;   ///< bounds.size() + 1 (overflow last)
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< meaningful only when count > 0
  double max = 0.0;  ///< meaningful only when count > 0

  /// Quantile estimate by linear interpolation inside the bucket holding
  /// the q-th ranked observation, clamped to [min, max]. The first bucket
  /// interpolates from `min`, the overflow bucket toward `max`, so the
  /// estimate error is bounded by one bucket width. Returns 0 when empty.
  double quantile(double q) const;
};

/// Point-in-time aggregate of every metric in a registry, summed across
/// all per-thread shards. Entries are sorted by (name, labels) within each
/// kind, so two snapshots of the same registered series render identically
/// regardless of registration or write order.
struct Snapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  std::size_t size() const noexcept {
    return counters.size() + gauges.size() + histograms.size();
  }
  /// Exact lookup of the unlabeled series `name`.
  const CounterSnapshot* counter(std::string_view name) const;
  const GaugeSnapshot* gauge(std::string_view name) const;
  const HistogramSnapshot* histogram(std::string_view name) const;
  /// Exact lookup of the series (name, labels).
  const CounterSnapshot* counter(std::string_view name,
                                 const Labels& labels) const;
  const GaugeSnapshot* gauge(std::string_view name,
                             const Labels& labels) const;
  const HistogramSnapshot* histogram(std::string_view name,
                                     const Labels& labels) const;
  /// Sum of every series named `name` across all label sets.
  std::uint64_t counter_total(std::string_view name) const;

  /// Serialize as the `expert.metrics.v2` JSON document (see
  /// docs/observability.md): counters/gauges/histograms are arrays of
  /// series objects with optional `labels`, and histograms carry
  /// p50/p95/p99 quantile estimates.
  void write_json(std::ostream& os) const;
  std::string to_json() const;
};

/// Metrics registry with per-thread shards: counter increments and
/// histogram observations land in a shard owned by the calling thread
/// (relaxed atomics, no shared cache line), and snapshot() aggregates the
/// shards under a mutex. Shards outlive their threads, so counts from
/// joined workers are never lost. Gauges are registry-level atomics
/// (an instantaneous value has no meaningful per-thread sum).
///
/// Series may carry a label set (e.g. {"pool","reliable"}). Labeled
/// registration is a cold-path lookup; the returned handle indexes the
/// same flat sharded storage as an unlabeled one, so the write fast path
/// is identical. Cardinality is bounded: at most max_series_per_name()
/// label sets per metric name (default kMaxSeriesPerName, raisable via
/// set_max_series_per_name for components that admit a known larger
/// dimension, e.g. the campaign service's tenant label). Registration
/// beyond the cap is *dropped*, never fatal: the returned handle is a
/// no-op and the reserved `obs.series.dropped` counter in snapshots
/// counts the dropped registrations. Labels remain for small closed
/// dimensions (pool, shard, span, tenant), never unbounded values.
///
/// When disabled, every write is a single relaxed atomic load and a
/// branch. Registration is allowed while disabled.
class Registry {
 public:
  /// Default upper bound on label sets per metric name. Generous for
  /// closed dimensions (16 cache shards, a handful of pools, a few dozen
  /// span names) while catching unbounded label values at the
  /// registration site.
  static constexpr std::size_t kMaxSeriesPerName = 64;
  /// Series name under which snapshot() reports dropped registrations.
  /// Reserved: registering a metric with this name is undefined.
  static constexpr std::string_view kDroppedSeriesName = "obs.series.dropped";

  explicit Registry(bool enabled = true);
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Process-wide registry used by the library's built-in instrumentation.
  /// Starts disabled; the CLI's --metrics-out and the bench harness's
  /// EXPERT_METRICS_OUT enable it.
  static Registry& global();

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Per-name label-cardinality cap. Raising it never invalidates existing
  /// handles; lowering it only affects future registrations. A registration
  /// that would exceed the cap returns a no-op handle and is counted in
  /// the `obs.series.dropped` snapshot entry (present only when > 0, so
  /// capless runs snapshot byte-identically to before the cap existed).
  void set_max_series_per_name(std::size_t cap) EXPERT_EXCLUDES(mutex_);
  std::size_t max_series_per_name() const EXPERT_EXCLUDES(mutex_);
  /// Registrations dropped by the cardinality cap since construction/reset.
  std::uint64_t dropped_series() const noexcept {
    return dropped_series_.load(std::memory_order_relaxed);
  }

  /// Register (or look up) a metric series. A series is identified by
  /// (name, labels); names must be unique across kinds (a counter name
  /// cannot double as a gauge name, labeled or not). Re-registering the
  /// same series returns a handle to the same storage. Histogram
  /// re-registration requires an identical bucket layout.
  Counter counter(std::string_view name);
  Counter counter(std::string_view name, const Labels& labels);
  Gauge gauge(std::string_view name);
  Gauge gauge(std::string_view name, const Labels& labels);
  Histogram histogram(std::string_view name,
                      const HistogramSpec& spec = HistogramSpec::latency_seconds());
  Histogram histogram(std::string_view name, const Labels& labels,
                      const HistogramSpec& spec = HistogramSpec::latency_seconds());

  /// Aggregate every shard. Safe to call while other threads write:
  /// concurrent increments land either in this snapshot or in the next.
  Snapshot snapshot() const;
  /// Zero all values. Registered metrics and existing handles stay valid.
  void reset();

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  /// Identity of one registered series.
  struct SeriesName {
    std::string name;
    Labels labels;
  };

  RegistryShard& local_shard() const;
  void grow_shard(RegistryShard& shard) const EXPERT_EXCLUDES(mutex_);
  void counter_add(std::uint32_t index, std::uint64_t n) const;
  void histogram_observe(std::uint32_t index, double value) const;
  void check_name_free(std::string_view name, const char* kind) const
      EXPERT_REQUIRES(mutex_);
  /// True when a new series named `name` fits under the cardinality cap;
  /// otherwise records the drop and the caller must return a no-op handle.
  bool cardinality_ok(const std::vector<SeriesName>& series,
                      std::string_view name) EXPERT_REQUIRES(mutex_);

  std::atomic<bool> enabled_;
  std::atomic<std::uint64_t> dropped_series_{0};
  const std::uint64_t gen_;  ///< process-unique id keying the TLS cache

  /// Guards registration, shard list and growth. Shard *cells* are not
  /// guarded: they are atomics written by the owning thread and summed by
  /// snapshot(), which locks only to pin the shard list.
  mutable util::Mutex mutex_;
  std::size_t max_series_ EXPERT_GUARDED_BY(mutex_) = kMaxSeriesPerName;
  std::vector<SeriesName> counter_series_ EXPERT_GUARDED_BY(mutex_);
  std::vector<SeriesName> gauge_series_ EXPERT_GUARDED_BY(mutex_);
  std::vector<SeriesName> histogram_series_ EXPERT_GUARDED_BY(mutex_);
  /// Stable-address storage; set once in the constructor, contents guarded.
  std::unique_ptr<struct RegistryTables> tables_ EXPERT_PT_GUARDED_BY(mutex_);
  mutable std::vector<std::unique_ptr<RegistryShard>> shards_
      EXPERT_GUARDED_BY(mutex_);
};

}  // namespace expert::obs
