// expert_perfbench: runs one workload and prints its metrics. The last line
// of stdout is the JSON result; the lines before it are a readable table.
//
//   expert_perfbench --workload campaign|service|replay --seed N
//                    --seconds S --trace 0|1 --cli PATH --work-dir DIR
//                    --trace-dir DIR
//
// --trace 0 times the workload for S seconds and reports the end-to-end
// metrics. --trace 1 runs a fixed number of units twice, first untraced and
// then with spans on, and reports the per-layer metrics of the traced pass;
// it also writes a Chrome trace and a self-time table to --trace-dir.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "expert/obs/metrics.hpp"

namespace perfbench {

extern const double kProcessStart = wall_now();

namespace {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return std::nan("");
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// The highest order statistic with at least 10 samples beyond it (the
/// maximum when there are fewer than 11), and its percentile rank.
std::pair<double, double> tail(std::vector<double> v) {
  if (v.empty()) return {std::nan(""), 0.0};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t index = n > 10 ? n - 11 : n - 1;
  return {v[index], 100.0 * static_cast<double>(index + 1) /
                        static_cast<double>(n)};
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// -------------------------------------------------------- per-layer views

struct SpanStats {
  std::uint64_t calls = 0;
  double wall = 0.0;        ///< inclusive
  double cpu = 0.0;         ///< process-wide, inclusive
  double main_cpu = 0.0;  ///< the recording thread's own CPU
  std::vector<double> walls;
};

/// Self time of every main-thread span: its duration minus its children's.
struct SelfTimes {
  std::vector<double> wall;
  std::vector<double> cpu;
};

SelfTimes self_times(const std::vector<Span>& spans) {
  SelfTimes out;
  out.wall.resize(spans.size());
  out.cpu.resize(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out.wall[i] = spans[i].end - spans[i].start;
    out.cpu[i] = spans[i].cpu_end - spans[i].cpu_start;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    if (p < 0 || !spans[i].main_thread) continue;
    out.wall[static_cast<std::size_t>(p)] -= spans[i].end - spans[i].start;
    out.cpu[static_cast<std::size_t>(p)] -=
        spans[i].cpu_end - spans[i].cpu_start;
  }
  return out;
}

bool inside(const std::vector<Span>& spans, std::size_t i, const char* name) {
  for (int p = spans[i].parent; p >= 0;
       p = spans[static_cast<std::size_t>(p)].parent) {
    if (std::string(spans[static_cast<std::size_t>(p)].name) == name) {
      return true;
    }
  }
  return false;
}

/// Writes the Chrome trace and the per-unit self-time table; returns the
/// readable table and fills `unattributed_s` (per unit root).
std::string write_trace(const std::vector<Span>& spans, const SelfTimes& self,
                        const std::string& stem, double& unattributed_s,
                        double& unit_wall_s, std::size_t& unit_roots) {
  const double t0 = spans.empty() ? 0.0 : spans.front().start;
  {
    std::ofstream out(stem + ".trace.json");
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& s = spans[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << (s.main_thread ? 1 : 2)
          << ",\"ts\":" << number((s.start - t0) * 1e6)
          << ",\"dur\":" << number((s.end - s.start) * 1e6)
          << ",\"args\":{\"unit\":" << s.unit << ",\"parent\":" << s.parent
          << ",\"cpu_us\":" << number((s.cpu_end - s.cpu_start) * 1e6)
          << "}}";
    }
    out << "\n]}\n";
  }

  // Aggregate self time by layer over every unit; a root's own self time
  // is its `unattributed` row.
  struct Row {
    std::uint64_t calls = 0;
    double wall = 0.0;  ///< self
    double cpu = 0.0;   ///< self, process-wide
    double incl = 0.0;  ///< inclusive wall
  };
  std::map<std::string, Row> rows;
  std::ostringstream per_unit;
  unattributed_s = 0.0;
  unit_wall_s = 0.0;
  unit_roots = 0;
  double residual = 0.0;
  for (std::size_t r = 0; r < spans.size(); ++r) {
    if (!spans[r].unit_root) continue;
    ++unit_roots;
    const double wall = spans[r].end - spans[r].start;
    unit_wall_s += wall;
    unattributed_s += self.wall[r];
    std::map<std::string, Row> unit;
    unit["unattributed"] = {1, self.wall[r], self.cpu[r], self.wall[r]};
    double sum = self.wall[r];
    for (std::size_t i = r + 1; i < spans.size(); ++i) {
      if (spans[i].unit != static_cast<int>(r) || !spans[i].main_thread) {
        continue;
      }
      auto& row = unit[spans[i].name];
      ++row.calls;
      row.wall += self.wall[i];
      row.cpu += self.cpu[i];
      row.incl += spans[i].end - spans[i].start;
      sum += self.wall[i];
    }
    residual = std::max(residual, std::abs(sum - wall));
    per_unit << "unit " << unit_roots << " " << spans[r].name << " wall "
             << number(wall) << " s\n";
    for (const auto& [name, row] : unit) {
      per_unit << "  " << name << " calls " << row.calls << " self_wall_s "
               << number(row.wall) << " self_cpu_s " << number(row.cpu)
               << "\n";
      auto& total = rows[name];
      total.calls += row.calls;
      total.wall += row.wall;
      total.cpu += row.cpu;
      total.incl += row.incl;
    }
  }

  std::ostringstream table;
  table << "self time over " << unit_roots << " unit roots ("
        << number(unit_wall_s) << " s wall; self times + unattributed sum "
        << "to it within " << number(residual) << " s per unit)\n";
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.wall > b.second.wall;
  });
  char line[256];
  std::snprintf(line, sizeof line, "  %-28s %8s %12s %12s %8s %12s\n",
                "layer", "calls", "self wall s", "self cpu s", "share",
                "incl wall s");
  table << line;
  for (const auto& [name, row] : sorted) {
    std::snprintf(line, sizeof line,
                  "  %-28s %8llu %12.4f %12.4f %7.2f%% %12.4f\n",
                  name.c_str(), static_cast<unsigned long long>(row.calls),
                  row.wall, row.cpu,
                  unit_wall_s > 0 ? 100.0 * row.wall / unit_wall_s : 0.0,
                  row.incl);
    table << line;
  }
  std::ofstream(stem + ".selftime.txt") << table.str() << "\n"
                                        << per_unit.str();
  return table.str();
}

std::vector<Metric> layer_metrics(const PassResult& untraced,
                                  const PassResult& traced,
                                  const std::vector<Span>& spans,
                                  const expert::obs::Snapshot& registry,
                                  const WrapCounters& wraps,
                                  const std::string& stem,
                                  std::string& table) {
  std::map<std::string, SpanStats> by_name;
  for (const auto& s : spans) {
    auto& st = by_name[s.name];
    ++st.calls;
    st.wall += s.end - s.start;
    st.cpu += s.cpu_end - s.cpu_start;
    st.main_cpu += s.thread_cpu_end - s.thread_cpu_start;
    st.walls.push_back(s.end - s.start);
  }
  const auto stat = [&](const char* name) -> const SpanStats& {
    static const SpanStats empty;
    const auto it = by_name.find(name);
    return it == by_name.end() ? empty : it->second;
  };
  const SelfTimes self = self_times(spans);

  // core.plan: run_bot minus the backend and journal calls made inside it.
  double plan_wall = 0.0, plan_cpu = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    const double wall = spans[i].end - spans[i].start;
    const double cpu = spans[i].cpu_end - spans[i].cpu_start;
    if (name == "core.campaign.run_bot") {
      plan_wall += wall;
      plan_cpu += cpu;
    } else if ((name == "gridsim.run" ||
                name == "resilience.journal.record") &&
               inside(spans, i, "core.campaign.run_bot")) {
      plan_wall -= wall;
      plan_cpu -= cpu;
    }
  }

  const auto counter = [&](const char* name) {
    return static_cast<double>(registry.counter_total(name));
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  // A layer a workload never calls reads 0, not NaN.
  const auto p50 = [&](const char* name) {
    return stat(name).walls.empty() ? 0.0 : median(stat(name).walls);
  };
  const auto extra = [&](const char* name) {
    for (const auto* pass : {&traced, &untraced}) {
      for (const auto& [key, value] : pass->extra) {
        if (key == name) return value;
      }
    }
    return 0.0;
  };

  double unattributed = 0.0, unit_wall = 0.0;
  std::size_t roots = 0;
  table = write_trace(spans, self, stem, unattributed, unit_wall, roots);

  const double hits = counter("eval.cache.hits");
  const double misses = counter("eval.cache.misses");
  const double scheduled = counter("sim.engine.events_scheduled");
  const double fired = counter("sim.engine.events_fired");
  const double calibrations = static_cast<double>(stat("stats.calibrate").calls);
  return {
      {"units", static_cast<double>(traced.unit_latency_s.size()), "count"},
      {"unit_wall_s", unit_wall, "s"},
      {"workload.make_bot.calls",
       static_cast<double>(stat("workload.make_bot").calls), "count"},
      {"workload.make_bot.wall_s", stat("workload.make_bot").wall, "s"},
      {"workload.make_bot.p50_s", p50("workload.make_bot"), "s"},
      {"stats.calibrate.calls", calibrations, "count"},
      {"stats.calibrate.distinct_inputs",
       static_cast<double>(wraps.calibrate_distinct_inputs), "count"},
      {"stats.calibrate.distinct_share",
       ratio(static_cast<double>(wraps.calibrate_distinct_inputs),
             calibrations),
       "ratio"},
      {"stats.calibrate.wall_s", stat("stats.calibrate").wall, "s"},
      {"core.characterize.calls",
       static_cast<double>(stat("core.characterize").calls), "count"},
      {"core.characterize.wall_s", stat("core.characterize").wall, "s"},
      {"core.characterize.history_records",
       static_cast<double>(wraps.characterize_history_records), "count"},
      {"core.effective_size.wall_s", stat("core.effective_size").wall, "s"},
      {"core.plan.wall_s", plan_wall, "s"},
      {"core.plan.cpu_s", plan_cpu, "s"},
      {"eval.batch.wall_s", stat("eval.batch").wall, "s"},
      // Process CPU next to the driving thread's own CPU in the parallel
      // sweeps, where the driving thread mostly waits on the pool.
      {"eval.batch.cpu_s", stat("eval.batch").cpu, "s"},
      {"eval.batch.main_thread_cpu_s", stat("eval.batch").main_cpu, "s"},
      {"eval.batch.units", counter("eval.batch.units"), "count"},
      {"eval.cache.hits", hits, "count"},
      {"eval.cache.misses", misses, "count"},
      {"eval.cache.hit_ratio", ratio(hits, hits + misses), "ratio"},
      {"core.estimator.runs", counter("core.estimator.runs"), "count"},
      {"core.estimator.calls", static_cast<double>(wraps.estimator_calls),
       "count"},
      {"core.estimator.estimate.wall_s", wraps.estimator_wall_s, "s"},
      {"sim.engine.events_scheduled", scheduled, "count"},
      {"sim.engine.events_fired", fired, "count"},
      {"sim.engine.events_cancelled", counter("sim.engine.events_cancelled"),
       "count"},
      {"sim.engine.fired_ratio", ratio(fired, scheduled), "ratio"},
      {"gridsim.run.calls", static_cast<double>(stat("gridsim.run").calls),
       "count"},
      {"gridsim.run.wall_s", stat("gridsim.run").wall, "s"},
      {"gridsim.instances.sent", counter("gridsim.instances.sent"), "count"},
      {"resilience.journal.record.wall_s",
       stat("resilience.journal.record").wall, "s"},
      {"resilience.journal.record.p50_s", p50("resilience.journal.record"),
       "s"},
      {"resilience.journal.bytes", extra("resilience.journal.bytes"), "B"},
      {"procexec.run.wall_s", stat("procexec.run").wall, "s"},
      {"procexec.spawned", extra("procexec.spawned"), "count"},
      {"procexec.restarts", extra("procexec.restarts"), "count"},
      {"procexec.xpf1_roundtrip.wall_s",
       extra("procexec.xpf1_roundtrip.wall_s"), "s"},
      {"procexec.payload_bytes", extra("procexec.payload_bytes"), "B"},
      {"service.submit.wall_s", stat("service.submit").wall, "s"},
      {"service.step.wall_s", stat("service.step").wall, "s"},
      {"service.rounds", counter("service.rounds"), "count"},
      {"unattributed_s", roots ? unattributed / static_cast<double>(roots) : 0.0,
       "s"},
      {"unattributed_pct", unit_wall > 0 ? 100.0 * unattributed / unit_wall : 0.0,
       "%"},
      {"obs.tracing_overhead_pct",
       100.0 * (traced.window_wall_s - untraced.window_wall_s) /
           untraced.window_wall_s,
       "%"},
      {"pred_dev_pct", 100.0 * mean(traced.pred_dev), "%"},
  };
}

std::vector<Metric> end_to_end_metrics(const PassResult& r) {
  const double units = static_cast<double>(r.unit_latency_s.size());
  return {
      {"bots_per_s", units / r.window_wall_s, "1/s"},
      {"bot_p50_s", median(r.unit_latency_s), "s"},
      {"bot_tail_s", tail(r.unit_latency_s).first, "s"},
      {"cpu_s_per_bot", r.window_cpu_s / units, "s"},
      {"setup_s", median(r.setup_s), "s"},
      {"peak_rss_mb", r.peak_rss_mb, "MiB"},
  };
}

struct Args {
  std::string workload;
  Settings settings;
  bool trace = false;
  std::string trace_dir;
};

Args parse(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::runtime_error("bad argument " + key);
    kv[key.substr(2)] = argv[i + 1];
  }
  const auto need = [&](const char* key) {
    const auto it = kv.find(key);
    if (it == kv.end()) {
      throw std::runtime_error(std::string("missing --") + key);
    }
    return it->second;
  };
  Args a;
  a.workload = need("workload");
  a.settings.seed = std::stoull(need("seed"));
  a.settings.seconds = std::stod(need("seconds"));
  a.trace = need("trace") == "1";
  a.settings.worker_cli = need("cli");
  a.settings.work_dir = need("work-dir");
  a.trace_dir = need("trace-dir");
  if (a.workload != "campaign" && a.workload != "service" &&
      a.workload != "replay") {
    throw std::runtime_error("unknown workload " + a.workload);
  }
  return a;
}

PassResult run_pass(const std::string& workload, const Settings& settings) {
  std::filesystem::remove_all(settings.work_dir);
  std::filesystem::create_directories(settings.work_dir);
  if (workload == "campaign") return run_campaign(settings);
  if (workload == "service") return run_service(settings);
  return run_replay(settings);
}

int run(const Args& args) {
  PassResult result;
  std::vector<Metric> metrics;
  std::string table;
  if (!args.trace) {
    result = run_pass(args.workload, args.settings);
    metrics = end_to_end_metrics(result);
    const double tail_rank = tail(result.unit_latency_s).second;
    std::printf("%s: %zu units in %.3f s (bot_tail_s is p%.1f of %zu)\n",
                args.workload.c_str(), result.unit_latency_s.size(),
                result.window_wall_s, tail_rank, result.unit_latency_s.size());
    std::printf("cpu: %.3f s process+children, %.3f s (%.1f%%) on the "
                "driving thread\n",
                result.window_cpu_s, result.window_main_cpu_s,
                100.0 * result.window_main_cpu_s / result.window_cpu_s);
    std::printf("unit latencies [s]:");
    for (double l : result.unit_latency_s) std::printf(" %.3f", l);
    std::printf("\n");
  } else {
    // Both passes count into the program's registry (off by default), so
    // the overhead figure measures the spans alone.
    expert::obs::Registry::global().set_enabled(true);
    Settings settings = args.settings;
    settings.fixed_units = traced_units(args.workload);
    const PassResult untraced = run_pass(args.workload, settings);
    settings.verify = false;
    expert::obs::Registry::global().reset();
    wrap_counters_take();
    tracing_begin();
    result = run_pass(args.workload, settings);
    const auto spans = tracing_end();
    const auto registry = expert::obs::Registry::global().snapshot();
    const auto wraps = wrap_counters_take();
    result.failed = std::max(result.failed, untraced.failed);
    result.check_failures.insert(result.check_failures.end(),
                                 untraced.check_failures.begin(),
                                 untraced.check_failures.end());
    if (untraced.fingerprint != result.fingerprint) {
      result.check_failures.push_back(
          args.workload + ": traced and untraced passes at one seed differ");
    }
    std::filesystem::create_directories(args.trace_dir);
    const std::string stem = args.trace_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.settings.seed);
    metrics = layer_metrics(untraced, result, spans, registry, wraps, stem,
                            table);
    std::printf("%s", table.c_str());
    std::printf("trace: %s.trace.json, %s.selftime.txt\n", stem.c_str(),
                stem.c_str());
  }

  bool correct = result.check_failures.empty();
  std::vector<Metric> shown = metrics;
  if (!args.trace) {
    // Readable only: failed_ratio can be 0 and pred_dev_pct is a per-layer
    // figure of the traced run, so neither is an end-to-end metric.
    shown.push_back({"failed_ratio",
                     static_cast<double>(result.failed) /
                         static_cast<double>(std::max<std::uint64_t>(
                             1, result.attempted)),
                     "ratio"});
    shown.push_back({"pred_dev_pct", 100.0 * mean(result.pred_dev), "%"});
  }
  if (!std::isfinite(mean(result.pred_dev))) {
    result.check_failures.push_back(args.workload +
                                    ": pred_dev_pct is not finite");
    correct = false;
  }
  for (const auto& m : shown) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    if (!std::isfinite(m.value)) correct = false;
  }
  for (const auto& f : result.check_failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  const std::uint64_t failed =
      std::max<std::uint64_t>(result.failed, correct ? 0 : 1);

  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << std::max<std::uint64_t>(1, result.attempted)
       << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    json << (i ? ", " : "") << "\"" << metrics[i].name
         << "\": {\"value\": " << number(v) << ", \"unit\": \""
         << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return correct && failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // The program's own span tracer and metrics sink stay off: the benchmark
  // measures without them and the replay workers inherit this environment.
  ::unsetenv("EXPERT_TRACE_OUT");
  ::unsetenv("EXPERT_METRICS_OUT");
  try {
    const auto args = perfbench::parse(argc, argv);
    const int code = perfbench::run(args);
    std::filesystem::remove_all(args.settings.work_dir);
    return code;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "expert_perfbench: %s\n", e.what());
    return 1;
  }
}
