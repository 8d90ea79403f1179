#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <ctime>
#include <mutex>
#include <thread>

#include "bench.hpp"

namespace perfbench {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double timeval_s(const ::timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

std::atomic<bool> g_tracing{false};
std::mutex g_mutex;
std::vector<Span> g_spans;  // guarded by g_mutex
std::thread::id g_main_thread;   // guarded by g_mutex

struct Frame {
  int index;
  int unit;
};
thread_local std::vector<Frame> t_stack;

}  // namespace

double process_cpu_now() {
  ::timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  ::rusage children{};
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9 +
         timeval_s(children.ru_utime) + timeval_s(children.ru_stime);
}

double thread_cpu_now() {
  ::timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  ::rusage self{};
  ::getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void tracing_begin() {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_spans.clear();
  g_main_thread = std::this_thread::get_id();
  t_stack.clear();
  g_tracing.store(true, std::memory_order_release);
}

std::vector<Span> tracing_end() {
  g_tracing.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> lock(g_mutex);
  return std::move(g_spans);
}

bool tracing_on() { return g_tracing.load(std::memory_order_relaxed); }

Scope::Scope(const char* name, bool unit_root) {
  if (!tracing_on()) return;
  Span span;
  span.name = name;
  span.unit_root = unit_root;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    span.main_thread = std::this_thread::get_id() == g_main_thread;
    if (span.main_thread && !t_stack.empty()) {
      span.parent = t_stack.back().index;
      span.unit = t_stack.back().unit;
    }
    index_ = static_cast<int>(g_spans.size());
    if (unit_root) span.unit = index_;
    g_spans.push_back(span);
  }
  if (span.main_thread) t_stack.push_back({index_, span.unit});
  // Clocks last, so the bookkeeping above is not charged to the span.
  const double thread_cpu = thread_cpu_now();
  const double cpu = process_cpu_now();
  const double wall = wall_now();
  std::lock_guard<std::mutex> lock(g_mutex);
  Span& stored = g_spans[static_cast<std::size_t>(index_)];
  stored.start = wall;
  stored.cpu_start = cpu;
  stored.thread_cpu_start = thread_cpu;
}

Scope::~Scope() {
  if (index_ < 0) return;
  const double wall = wall_now();
  const double cpu = process_cpu_now();
  const double thread_cpu = thread_cpu_now();
  if (!t_stack.empty() && t_stack.back().index == index_) t_stack.pop_back();
  std::lock_guard<std::mutex> lock(g_mutex);
  // tracing_end() may have taken the spans while this scope was open.
  if (static_cast<std::size_t>(index_) >= g_spans.size()) return;
  Span& stored = g_spans[static_cast<std::size_t>(index_)];
  stored.end = wall;
  stored.cpu_end = cpu;
  stored.thread_cpu_end = thread_cpu;
}

}  // namespace perfbench
