// §VI "ExPERT Runtime": the computational cost of running ExPERT at the
// paper's resolution — single-strategy estimation in seconds, the full
// space sweep in minutes on a 2008 laptop (much faster here). Implemented
// with google-benchmark.

#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>

#include "common.hpp"
#include "expert/core/expert.hpp"
#include "expert/gridsim/env/environment.hpp"
#include "expert/gridsim/executor.hpp"
#include "expert/sim/engine.hpp"
#include "expert/util/rng.hpp"
#include "expert/workload/presets.hpp"

namespace {

using namespace expert;

core::Estimator make_estimator(std::size_t repetitions) {
  return core::Estimator(bench::figure_config(repetitions),
                         bench::experiment11_model());
}

strategies::StrategyConfig knee_strategy() {
  strategies::NTDMr p;
  p.n = 3;
  p.timeout_t = bench::kTur;
  p.deadline_d = 2.0 * bench::kTur;
  p.mr = 0.02;
  return strategies::make_ntdmr_strategy(p);
}

void BM_SingleStrategyOneRun(benchmark::State& state) {
  const auto estimator = make_estimator(1);
  const auto strategy = knee_strategy();
  std::uint64_t stream = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        estimator.simulate(bench::kBotTasks, strategy, stream++).first);
  }
}
BENCHMARK(BM_SingleStrategyOneRun);

void BM_SingleStrategyTenRepetitions(benchmark::State& state) {
  const auto estimator = make_estimator(10);
  const auto strategy = knee_strategy();
  std::uint64_t stream = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        estimator.estimate(bench::kBotTasks, strategy, stream++));
  }
}
BENCHMARK(BM_SingleStrategyTenRepetitions);

void BM_EstimatorScalesWithBotSize(benchmark::State& state) {
  const auto estimator = make_estimator(1);
  const auto strategy = knee_strategy();
  const auto tasks = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.simulate(tasks, strategy).first);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EstimatorScalesWithBotSize)->Range(64, 4096)->Complexity();

/// The estimator's event mix in miniature: every send cancels the task's
/// pending timeout check, schedules an instance finish and re-arms the
/// check; a check that fires replicates the task. Each task gets a fixed
/// send budget, so one run is about 2k events, ~40% of them cancelled (the
/// estimator's share).
class EngineWorkload {
 public:
  static constexpr std::size_t kTasks = 200;
  static constexpr int kSendsPerTask = 5;

  explicit EngineWorkload(std::uint64_t seed) : rng_(seed) {
    for (std::size_t task = 0; task < kTasks; ++task) send(task);
  }

  void run() { engine_.run(); }
  std::uint64_t scheduled() const noexcept { return scheduled_; }
  std::uint64_t fired() const noexcept { return engine_.processed_events(); }
  double finish_sum() const noexcept { return finish_sum_; }

 private:
  void send(std::size_t task) {
    checks_[task].cancel();
    if (sends_[task] == kSendsPerTask) return;
    ++sends_[task];
    const double now = engine_.now();
    const double draw = rng_.uniform(0.0, 1.7);
    engine_.schedule_in(draw, [this, task, now, draw] {
      finish_sum_ += now + draw;
      send(task);
    });
    checks_[task] = engine_.schedule_in(1.2, [this, task] { send(task); });
    scheduled_ += 2;
  }

  sim::Engine engine_;
  util::Rng rng_;
  std::array<sim::Engine::EventHandle, kTasks> checks_{};
  std::array<int, kTasks> sends_{};
  double finish_sum_ = 0.0;
  std::uint64_t scheduled_ = 0;
};

void BM_EngineScheduleFire(benchmark::State& state) {
  std::uint64_t seed = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t fired = 0;
  for (auto _ : state) {
    EngineWorkload workload(++seed);
    workload.run();
    benchmark::DoNotOptimize(workload.finish_sum());
    scheduled += workload.scheduled();
    fired += workload.fired();
  }
  state.counters["events_per_run"] = benchmark::Counter(
      static_cast<double>(scheduled), benchmark::Counter::kAvgIterations);
  state.counters["cancelled_share"] =
      scheduled > 0 ? static_cast<double>(scheduled - fired) /
                          static_cast<double>(scheduled)
                    : 0.0;
}
BENCHMARK(BM_EngineScheduleFire)->Unit(benchmark::kMicrosecond);

void BM_ParetoFrontierComputation(benchmark::State& state) {
  util::Rng rng(1);
  std::vector<core::StrategyPoint> points(
      static_cast<std::size_t>(state.range(0)));
  for (auto& p : points) {
    p.makespan = rng.uniform(1000.0, 40000.0);
    p.cost = rng.uniform(0.1, 5.0);
    p.params.n = static_cast<unsigned>(rng.below(4));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::s_pareto(points));
  }
}
BENCHMARK(BM_ParetoFrontierComputation)->Range(64, 8192);

/// Cache hit/miss deltas across one benchmark, exported as counters so the
/// BENCH_eval.json artifact records the hit rate next to the wall time.
void export_cache_counters(benchmark::State& state,
                           const eval::EvalCache::Stats& before) {
  const auto after = eval::EvalService::global().cache().stats();
  const auto hits = static_cast<double>(after.hits - before.hits);
  const auto misses = static_cast<double>(after.misses - before.misses);
  state.counters["cache_hits"] = hits;
  state.counters["cache_misses"] = misses;
  state.counters["cache_hit_rate"] =
      hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
}

void BM_FullFrontierSweepPaperResolution(benchmark::State& state) {
  // The paper's headline: "several minutes" on a 2008 dual-core for dozens
  // of strategies x >10 repetitions. One iteration = the whole ExPERT
  // frontier-generation step at paper resolution, simulated cold: the
  // shared evaluation cache is cleared per iteration.
  const auto estimator = make_estimator(10);
  const auto before = eval::EvalService::global().cache().stats();
  for (auto _ : state) {
    bench::reset_eval_cache();
    benchmark::DoNotOptimize(core::generate_frontier(
        estimator, bench::kBotTasks, bench::paper_sampling()));
  }
  export_cache_counters(state, before);
}
BENCHMARK(BM_FullFrontierSweepPaperResolution)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_FrontierSweepWarmCache(benchmark::State& state) {
  // A repeated sweep over an unchanged estimator — a campaign re-planning
  // with a stable history window — is pure cache service: zero simulate
  // calls, so this measures keying + lookup + Pareto construction only.
  const auto estimator = make_estimator(10);
  bench::reset_eval_cache();
  benchmark::DoNotOptimize(core::generate_frontier(
      estimator, bench::kBotTasks, bench::paper_sampling()));
  const auto before = eval::EvalService::global().cache().stats();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::generate_frontier(
        estimator, bench::kBotTasks, bench::paper_sampling()));
  }
  export_cache_counters(state, before);
}
BENCHMARK(BM_FrontierSweepWarmCache)->Unit(benchmark::kMillisecond);

void BM_FrontierSweepSingleRepetition(benchmark::State& state) {
  // The accuracy/speed trade the paper mentions: 1 repetition instead of 10.
  const auto estimator = make_estimator(1);
  for (auto _ : state) {
    bench::reset_eval_cache();
    benchmark::DoNotOptimize(core::generate_frontier(
        estimator, bench::kBotTasks, bench::paper_sampling()));
  }
}
BENCHMARK(BM_FrontierSweepSingleRepetition)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_ArchExecution(benchmark::State& state,
                      gridsim::env::Architecture arch) {
  // Machine-level execution cost per environment architecture: one 150-task
  // BoT through gridsim on the architecture's reference environment. Gates
  // the dynamics machinery (price paths, forced windows, duty cycles) the
  // environment seam added to the executor hot path.
  const auto& wl = workload::workload_spec(workload::WorkloadId::WL1);
  gridsim::ExecutorConfig cfg;
  cfg.environment = gridsim::env::make_reference_environment(
      arch, bench::kPoolSize, bench::kGamma11, bench::kTur);
  cfg.throughput_deadline = wl.deadline_d;
  cfg.seed = bench::kSeed;
  gridsim::Executor executor(cfg);
  strategies::NTDMr p;
  p.n = 3;
  p.timeout_t = wl.timeout_t;
  p.deadline_d = wl.deadline_d;
  p.mr = executor.environment().has_cloud() ? 0.4 : 0.0;
  const auto strategy = strategies::make_ntdmr_strategy(p);
  const auto bot = workload::make_bot(workload::WorkloadId::WL1, 0xB07ULL);
  std::uint64_t stream = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.run(bot, strategy, stream++));
  }
}
BENCHMARK_CAPTURE(BM_ArchExecution, classic,
                  gridsim::env::Architecture::Classic)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ArchExecution, spot, gridsim::env::Architecture::Spot)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ArchExecution, serverless,
                  gridsim::env::Architecture::Serverless)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ArchExecution, multiregion,
                  gridsim::env::Architecture::MultiRegion)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ArchExecution, volunteer,
                  gridsim::env::Architecture::Volunteer)
    ->Unit(benchmark::kMillisecond);

void BM_MakeBotCold(benchmark::State& state) {
  // BoT generation when the CPU-time calibration is not memoized: each
  // iteration asks for a WL1-sized BoT with a mean no earlier iteration
  // (in any repetition) used, so every from_stats call calibrates afresh.
  const auto& wl = workload::workload_spec(workload::WorkloadId::WL1);
  static double next_mean = wl.mean_cpu;
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload::make_synthetic_bot(
        wl.name, wl.task_count, next_mean, wl.min_cpu, wl.max_cpu, 0xB07ULL));
    next_mean += 1.0;
  }
}
BENCHMARK(BM_MakeBotCold)->Unit(benchmark::kMillisecond);

void BM_MakeBotWarm(benchmark::State& state) {
  // BoT generation for a repeated CPU triple (a campaign's every BoT): the
  // calibration is a memo hit and only the task-time draws remain.
  benchmark::DoNotOptimize(
      workload::make_bot(workload::WorkloadId::WL1, 0xB07ULL));
  std::uint64_t seed = 0xB07ULL;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        workload::make_bot(workload::WorkloadId::WL1, ++seed));
  }
}
BENCHMARK(BM_MakeBotWarm)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
