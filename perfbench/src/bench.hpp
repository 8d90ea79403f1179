// Shared pieces of the end-to-end benchmark: clocks, in-memory spans, and
// the per-workload result record every workload fills in.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock, seconds.
double wall_now();
/// CPU time of the whole process (every thread, CLOCK_PROCESS_CPUTIME_ID)
/// plus the user+sys time of reaped children (RUSAGE_CHILDREN), seconds.
double process_cpu_now();
/// CPU time of the calling thread alone (CLOCK_THREAD_CPUTIME_ID), seconds.
double thread_cpu_now();
/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// One timed call into a library module. Spans on the main thread (the one
/// that called tracing_begin) form a tree by parent index; spans on other
/// threads keep parent -1 and are left out of the self-time tree.
struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  double cpu_start = 0.0;
  double cpu_end = 0.0;
  double thread_cpu_start = 0.0;  ///< the recording thread's own CPU
  double thread_cpu_end = 0.0;
  int parent = -1;
  int unit = -1;  ///< index of the enclosing unit root span, or -1
  bool main_thread = true;
  bool unit_root = false;
};

/// Spans are recorded only between tracing_begin() and tracing_end(); the
/// rest of the time Scope costs one relaxed atomic load.
void tracing_begin();
std::vector<Span> tracing_end();
bool tracing_on();

class Scope {
 public:
  explicit Scope(const char* name, bool unit_root = false);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int index_ = -1;
};

/// Counters the link-time interposers (wraps.cpp) gather while tracing.
struct WrapCounters {
  std::uint64_t calibrate_distinct_inputs = 0;
  std::uint64_t characterize_history_records = 0;
  /// Estimator::estimate and Estimator::simulate calls made from outside
  /// the estimator, and their wall time summed over every thread (eval
  /// pool workers included).
  std::uint64_t estimator_calls = 0;
  double estimator_wall_s = 0.0;
};
WrapCounters wrap_counters_take();

/// What one pass of a workload produced.
struct PassResult {
  std::vector<double> unit_latency_s;  ///< one entry per completed unit
  std::vector<double> setup_s;         ///< every set-up done in the pass
  double window_wall_s = 0.0;          ///< first unit start .. last unit end
  double window_cpu_s = 0.0;           ///< process+children CPU in window
  double window_main_cpu_s = 0.0;    ///< the driving thread's share of it
  double peak_rss_mb = 0.0;            ///< at the end of the window
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> pred_dev;        ///< |predicted-observed|/observed
  std::vector<std::string> check_failures;
  /// Layer figures only the workload can know (journal bytes, process-pool
  /// counts, codec sizes); merged into the per-layer metrics.
  std::vector<std::pair<std::string, double>> extra;
  /// Content that must repeat byte for byte between two passes at one
  /// seed (journals, encoded traces).
  std::string fingerprint;
};

struct Settings {
  std::uint64_t seed = 0;
  double seconds = 10.0;
  std::string work_dir;    ///< scratch for journals and state dirs
  std::string worker_cli;  ///< expert_cli binary (replay worker)
  /// Timed runs loop until `seconds` elapsed; a traced run does exactly
  /// this many units so its counts repeat at one seed.
  std::size_t fixed_units = 0;
  /// Run the output checks that need extra work (re-runs, reference runs).
  bool verify = true;
};

PassResult run_campaign(const Settings& settings);
PassResult run_service(const Settings& settings);
PassResult run_replay(const Settings& settings);

/// Units a traced run executes per workload (sized near 10 s on 4 vCPUs).
std::size_t traced_units(const std::string& workload);

}  // namespace perfbench
