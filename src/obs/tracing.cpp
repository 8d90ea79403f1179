#include "expert/obs/tracing.hpp"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>

#include "expert/obs/metrics.hpp"

namespace expert::obs {

struct TraceBuffer {
  struct Event {
    const char* name = nullptr;
    std::uint64_t start_ns = 0;
    std::uint64_t duration_ns = 0;
    std::uint64_t cpu_ns = 0;  ///< thread-CPU time spent inside the span
  };

  std::uint32_t tid = 0;
  // Guards `events` against write_chrome_trace/reset; uncontended on the
  // recording path, so the cost is two uncontested atomic operations.
  util::Mutex mutex;
  std::vector<Event> events EXPERT_GUARDED_BY(mutex);
};

namespace {

std::atomic<std::uint64_t> next_tracer_gen{1};

struct TlsEntry {
  std::uint64_t gen = 0;
  TraceBuffer* buffer = nullptr;
};

thread_local std::vector<TlsEntry> tls_buffers;

void write_escaped(std::ostream& os, const char* text) {
  for (const char* p = text; *p != '\0'; ++p) {
    const char c = *p;
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      static const char* hex = "0123456789abcdef";
      os << "\\u00" << hex[(c >> 4) & 0xF] << hex[c & 0xF];
    } else {
      os << c;
    }
  }
}

}  // namespace

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

Tracer::Tracer()
    : gen_(next_tracer_gen.fetch_add(1, std::memory_order_relaxed)),
      origin_(std::chrono::steady_clock::now()) {}

Tracer::~Tracer() = default;

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count());
}

TraceBuffer& Tracer::local_buffer() const {
  for (const TlsEntry& entry : tls_buffers) {
    if (entry.gen == gen_) return *entry.buffer;
  }
  util::MutexLock lock(mutex_);
  buffers_.push_back(std::make_unique<TraceBuffer>());
  TraceBuffer* buffer = buffers_.back().get();
  buffer->tid = static_cast<std::uint32_t>(buffers_.size());
  tls_buffers.push_back(TlsEntry{gen_, buffer});
  return *buffer;
}

void Tracer::record(const char* name, std::uint64_t start_ns,
                    std::uint64_t duration_ns, std::uint64_t cpu_ns) {
  TraceBuffer& buffer = local_buffer();
  util::MutexLock lock(buffer.mutex);
  buffer.events.push_back(
      TraceBuffer::Event{name, start_ns, duration_ns, cpu_ns});
}

std::size_t Tracer::event_count() const {
  util::MutexLock lock(mutex_);
  std::size_t total = 0;
  for (const auto& buffer : buffers_) {
    util::MutexLock buffer_lock(buffer->mutex);
    total += buffer->events.size();
  }
  return total;
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  util::MutexLock lock(mutex_);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char line[96];
  for (const auto& buffer : buffers_) {
    util::MutexLock buffer_lock(buffer->mutex);
    for (const TraceBuffer::Event& event : buffer->events) {
      if (!first) os << ',';
      first = false;
      os << "\n{\"name\":\"";
      write_escaped(os, event.name);
      os << "\",\"cat\":\"expert\",\"ph\":\"X\",\"pid\":1,\"tid\":"
         << buffer->tid;
      // Chrome trace timestamps are microseconds; keep ns precision.
      std::snprintf(line, sizeof(line),
                    ",\"ts\":%.3f,\"dur\":%.3f,\"tdur\":%.3f}",
                    static_cast<double>(event.start_ns) / 1e3,
                    static_cast<double>(event.duration_ns) / 1e3,
                    static_cast<double>(event.cpu_ns) / 1e3);
      os << line;
    }
  }
  os << "\n]}\n";
}

void Tracer::reset() {
  util::MutexLock lock(mutex_);
  for (const auto& buffer : buffers_) {
    util::MutexLock buffer_lock(buffer->mutex);
    buffer->events.clear();
  }
}

std::vector<SpanTotals> Tracer::self_times() const {
  using Event = TraceBuffer::Event;
  // Keyed by the characters: one literal may have a different address in
  // each translation unit.
  std::map<std::string, SpanTotals> by_name;
  std::vector<const Event*> order;
  std::vector<std::int64_t> self_wall;
  std::vector<std::int64_t> self_cpu;
  std::vector<std::size_t> open;  // enclosing spans of the current event
  util::MutexLock lock(mutex_);
  for (const auto& buffer : buffers_) {
    util::MutexLock buffer_lock(buffer->mutex);
    // Spans are recorded as they close; order them outermost-first (start
    // ascending, longer first, later-closed first) so a stack of open
    // spans finds each event's direct parent by containment.
    order.clear();
    for (const Event& event : buffer->events) order.push_back(&event);
    std::sort(order.begin(), order.end(), [](const Event* a, const Event* b) {
      if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
      if (a->duration_ns != b->duration_ns) {
        return a->duration_ns > b->duration_ns;
      }
      return a > b;
    });
    self_wall.clear();
    self_cpu.clear();
    open.clear();
    for (std::size_t i = 0; i < order.size(); ++i) {
      const Event& event = *order[i];
      const std::uint64_t end = event.start_ns + event.duration_ns;
      while (!open.empty()) {
        const Event& top = *order[open.back()];
        if (top.start_ns + top.duration_ns >= end) break;
        open.pop_back();
      }
      self_wall.push_back(static_cast<std::int64_t>(event.duration_ns));
      self_cpu.push_back(static_cast<std::int64_t>(event.cpu_ns));
      if (!open.empty()) {
        self_wall[open.back()] -= static_cast<std::int64_t>(event.duration_ns);
        self_cpu[open.back()] -= static_cast<std::int64_t>(event.cpu_ns);
      }
      open.push_back(i);
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
      SpanTotals& row = by_name[order[i]->name];
      ++row.entries;
      row.self_wall_ns += static_cast<std::uint64_t>(std::max<std::int64_t>(
          self_wall[i], 0));
      row.self_cpu_ns += static_cast<std::uint64_t>(std::max<std::int64_t>(
          self_cpu[i], 0));
    }
  }
  std::vector<SpanTotals> rows;
  rows.reserve(by_name.size());
  for (auto& [name, row] : by_name) {
    row.name = name;
    rows.push_back(std::move(row));
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const SpanTotals& a, const SpanTotals& b) {
                     return a.self_wall_ns > b.self_wall_ns;
                   });
  return rows;
}

void Tracer::write_self_time_table(std::ostream& os) const {
  const std::vector<SpanTotals> rows = self_times();
  SpanTotals total;
  total.name = "total";
  for (const SpanTotals& row : rows) {
    total.entries += row.entries;
    total.self_wall_ns += row.self_wall_ns;
    total.self_cpu_ns += row.self_cpu_ns;
  }
  char line[160];
  std::snprintf(line, sizeof(line), "%-28s %9s %15s %14s\n", "span",
                "entries", "self wall [ms]", "self cpu [ms]");
  os << line;
  const auto print = [&](const SpanTotals& row) {
    std::snprintf(line, sizeof(line), "%-28s %9llu %15.3f %14.3f\n",
                  row.name.c_str(),
                  static_cast<unsigned long long>(row.entries),
                  static_cast<double>(row.self_wall_ns) / 1e6,
                  static_cast<double>(row.self_cpu_ns) / 1e6);
    os << line;
  };
  for (const SpanTotals& row : rows) print(row);
  print(total);
}

void Tracer::publish(Registry& registry) const {
  for (const SpanTotals& row : self_times()) {
    const Labels labels{{"span", row.name}};
    registry.gauge("obs.span.entries", labels)
        .set(static_cast<double>(row.entries));
    registry.gauge("obs.span.self_seconds", labels)
        .set(static_cast<double>(row.self_wall_ns) / 1e9);
    registry.gauge("obs.span.self_cpu_seconds", labels)
        .set(static_cast<double>(row.self_cpu_ns) / 1e9);
  }
}

void Span::close() const {
  const std::uint64_t cpu_ns = recording_ ? thread_cpu_ns() - start_cpu_ns_ : 0;
  const std::uint64_t duration_ns = tracer_->now_ns() - start_ns_;
  if (recording_) tracer_->record(name_, start_ns_, duration_ns, cpu_ns);
  if (histogram_ != nullptr) {
    histogram_->observe(static_cast<double>(duration_ns) / 1e9);
  }
}

}  // namespace expert::obs
