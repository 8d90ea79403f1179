// The paper's "dynamic online selection" loop: start a BoT with the naive
// no-replication strategy, and at T_tail let ExPERT characterize the
// running BoT's own throughput phase (online reliability model), build the
// frontier, and choose the tail strategy mid-flight.

#include <gtest/gtest.h>

#include "expert/core/expert.hpp"
#include "expert/util/assert.hpp"
#include "expert/gridsim/executor.hpp"
#include "expert/gridsim/presets.hpp"
#include "expert/workload/presets.hpp"

namespace expert {
namespace {

constexpr double kMeanCpu = 1000.0;

gridsim::ExecutorConfig environment() {
  gridsim::ExecutorConfig cfg;
  cfg.environment = gridsim::env::Environment::classic(
      gridsim::make_wm(40, 0.8, kMeanCpu), gridsim::make_tech(10));
  cfg.seed = 0xADA97;
  return cfg;
}

core::UserParams params() {
  core::UserParams p;
  p.tur = kMeanCpu;
  p.tr = kMeanCpu;
  return p;
}

strategies::StrategyConfig naive() {
  return strategies::make_static_strategy(strategies::StaticStrategyKind::AUR,
                                          kMeanCpu, 0.25);
}

TEST(OnlineAdaptation, SelectorSeesThroughputHistoryOnce) {
  gridsim::Executor ex(environment());
  const auto bot = workload::make_synthetic_bot("ada", 200, kMeanCpu, 400.0,
                                                2500.0, 21);
  int calls = 0;
  trace::ExecutionTrace seen;
  const auto result = ex.run_adaptive(
      bot, naive(),
      [&](const trace::ExecutionTrace& history) {
        ++calls;
        seen = history;
        return naive();
      });
  EXPECT_EQ(calls, 1);
  EXPECT_GT(seen.t_tail(), 0.0);
  EXPECT_FALSE(seen.records().empty());
  // The snapshot includes pending (unreturned) instances: at T_tail every
  // remaining task has one running instance.
  std::size_t unreturned = 0;
  for (const auto& r : seen.records()) {
    if (r.outcome == trace::InstanceOutcome::Timeout &&
        r.turnaround == trace::kNeverReturns)
      ++unreturned;
  }
  EXPECT_GT(unreturned, 0u);
  // And the adapted run still completes.
  for (workload::TaskId t = 0; t < bot.size(); ++t) {
    EXPECT_TRUE(result.task_completion_time(t).has_value());
  }
}

TEST(OnlineAdaptation, KeepingTheSameStrategyMatchesPlainRun) {
  gridsim::Executor ex(environment());
  const auto bot = workload::make_synthetic_bot("ada", 150, kMeanCpu, 400.0,
                                                2500.0, 22);
  const auto plain = ex.run(bot, naive(), 5);
  const auto adaptive = ex.run_adaptive(
      bot, naive(),
      [](const trace::ExecutionTrace&) { return naive(); }, 5);
  EXPECT_DOUBLE_EQ(adaptive.makespan(), plain.makespan());
  EXPECT_DOUBLE_EQ(adaptive.total_cost_cents(), plain.total_cost_cents());
}

TEST(OnlineAdaptation, ExpertMidRunShortensTheTail) {
  gridsim::Executor ex(environment());
  const auto bot = workload::make_synthetic_bot("ada", 200, kMeanCpu, 400.0,
                                                2500.0, 23);

  // The selector optimizes tail speed ('fastest'); averaged over a couple
  // of streams, online replication must beat naive no-replication on this
  // gamma ~0.8 pool — the paper's headline effect.
  double baseline_tail = 0.0;
  double adaptive_tail = 0.0;
  for (std::uint64_t stream : {7u, 8u}) {
    const auto baseline = ex.run(bot, naive(), stream);
    baseline_tail += baseline.tail_makespan();

    const auto adaptive = ex.run_adaptive(
        bot, naive(),
        [&](const trace::ExecutionTrace& history) {
          core::ExpertOptions options;
          options.repetitions = 3;
          options.characterization.mode = core::ReliabilityMode::Online;
          options.sampling.n_values = {1u, 2u, 3u};
          options.sampling.d_samples = 3;
          options.sampling.t_samples = 3;
          options.sampling.mr_values = {0.05, 0.25};
          const auto expert =
              core::Expert::from_history(history, params(), options);
          const auto rec =
              expert.recommend(bot.size(), core::Utility::fastest());
          EXPECT_TRUE(rec.has_value());
          return rec ? strategies::make_ntdmr_strategy(rec->strategy)
                     : naive();
        },
        stream);
    adaptive_tail += adaptive.tail_makespan();
    for (workload::TaskId t = 0; t < bot.size(); ++t) {
      ASSERT_TRUE(adaptive.task_completion_time(t).has_value());
    }
  }
  EXPECT_LT(adaptive_tail, baseline_tail);
}

TEST(OnlineAdaptation, SelectorCannotChangeThroughputPolicy) {
  gridsim::Executor ex(environment());
  const auto bot = workload::make_synthetic_bot("ada", 120, kMeanCpu, 400.0,
                                                2500.0, 24);
  const auto result = ex.run_adaptive(
      bot, naive(),
      [&](const trace::ExecutionTrace&) {
        // Ask for AR — only its *tail* behaviour may apply; the throughput
        // policy stays as initially configured.
        return strategies::make_static_strategy(
            strategies::StaticStrategyKind::AR, kMeanCpu, 0.25);
      });
  // Pre-tail instances all ran on the unreliable pool.
  for (const auto& r : result.records()) {
    if (!r.tail_phase && r.outcome != trace::InstanceOutcome::Cancelled) {
      EXPECT_EQ(r.pool, trace::PoolKind::Unreliable);
    }
  }
}

TEST(OnlineAdaptation, NullSelectorRejected) {
  gridsim::Executor ex(environment());
  const auto bot = workload::make_synthetic_bot("ada", 10, kMeanCpu, 400.0,
                                                2500.0, 25);
  EXPECT_THROW(ex.run_adaptive(bot, naive(), nullptr),
               util::ContractViolation);
}

}  // namespace
}  // namespace expert
