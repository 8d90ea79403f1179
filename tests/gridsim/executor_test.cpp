#include "expert/gridsim/executor.hpp"

#include <gtest/gtest.h>

#include "expert/gridsim/presets.hpp"
#include "expert/util/assert.hpp"
#include "expert/workload/presets.hpp"

namespace expert::gridsim {
namespace {

using strategies::StaticStrategyKind;
using strategies::make_ntdmr_strategy;
using strategies::make_static_strategy;
using strategies::NTDMr;

workload::Bot small_bot(std::size_t tasks = 60) {
  return workload::make_synthetic_bot("test-bot", tasks, 1000.0, 400.0,
                                      2500.0, 99);
}

ExecutorConfig grid_plus_cluster(std::size_t machines = 30,
                                 double gamma = 0.9) {
  ExecutorConfig cfg;
  cfg.environment = env::Environment::classic(
      make_wm(machines, gamma, 1000.0), make_tech(5));
  cfg.seed = 4242;
  return cfg;
}

NTDMr tail_params(unsigned n, double t, double d, double mr) {
  NTDMr p;
  p.n = n;
  p.timeout_t = t;
  p.deadline_d = d;
  p.mr = mr;
  return p;
}

TEST(Executor, CompletesEveryTask) {
  const auto bot = small_bot();
  Executor ex(grid_plus_cluster());
  const auto trace =
      ex.run(bot, make_ntdmr_strategy(tail_params(1, 1000.0, 2000.0, 0.1)));
  for (workload::TaskId t = 0; t < bot.size(); ++t) {
    EXPECT_TRUE(trace.task_completion_time(t).has_value()) << "task " << t;
  }
  EXPECT_GT(trace.makespan(), 0.0);
  EXPECT_GE(trace.t_tail(), 0.0);
  EXPECT_LE(trace.t_tail(), trace.makespan());
}

TEST(Executor, DeterministicInSeedAndStream) {
  const auto bot = small_bot();
  Executor ex(grid_plus_cluster());
  const auto strategy = make_ntdmr_strategy(tail_params(2, 500.0, 2000.0, 0.1));
  const auto a = ex.run(bot, strategy, 3);
  const auto b = ex.run(bot, strategy, 3);
  EXPECT_DOUBLE_EQ(a.makespan(), b.makespan());
  EXPECT_DOUBLE_EQ(a.total_cost_cents(), b.total_cost_cents());
  EXPECT_EQ(a.records().size(), b.records().size());

  const auto c = ex.run(bot, strategy, 4);
  EXPECT_NE(a.makespan(), c.makespan());
}

TEST(Executor, PerfectPoolNeverFailsAnInstance) {
  ExecutorConfig cfg;
  // A perfectly reliable "unreliable" pool.
  cfg.environment = env::Environment::classic(make_tech(10));
  cfg.seed = 7;
  Executor ex(cfg);
  const auto bot = small_bot(25);
  const auto trace = ex.run(
      bot, make_static_strategy(StaticStrategyKind::AUR, 1000.0, 0.0));
  EXPECT_NEAR(trace.average_reliability(), 1.0, 1e-12);
  // No replication needed: exactly one instance per task.
  EXPECT_EQ(trace.records().size(), bot.size());
}

TEST(Executor, ObservedReliabilityTracksCalibration) {
  const auto bot = workload::make_synthetic_bot("big", 400, 1000.0, 400.0,
                                                2500.0, 5);
  for (double gamma : {0.75, 0.9}) {
    ExecutorConfig cfg;
    cfg.environment = env::Environment::classic(
        make_wm(50, gamma, 1000.0), make_tech(5));
    cfg.seed = 11;
    Executor ex(cfg);
    const auto trace = ex.run(
        bot, make_ntdmr_strategy(tail_params(2, 1000.0, 2000.0, 0.1)));
    // Within +-0.08: the calibration maps mean runtime -> mean uptime, and
    // runtimes vary around the mean.
    EXPECT_NEAR(trace.average_reliability(), gamma, 0.08) << gamma;
  }
}

TEST(Executor, ARRunsEntirelyOnReliablePool) {
  Executor ex(grid_plus_cluster());
  const auto bot = small_bot(20);
  const auto trace =
      ex.run(bot, make_static_strategy(StaticStrategyKind::AR, 1000.0, 0.5));
  for (const auto& r : trace.records()) {
    EXPECT_EQ(r.pool, trace::PoolKind::Reliable);
  }
}

TEST(Executor, AURNeverUsesReliablePool) {
  Executor ex(grid_plus_cluster());
  const auto bot = small_bot(40);
  const auto trace =
      ex.run(bot, make_static_strategy(StaticStrategyKind::AUR, 1000.0, 0.5));
  EXPECT_EQ(trace.reliable_instances_sent(), 0u);
}

TEST(Executor, ReliableOnlyWithoutReliablePoolThrows) {
  ExecutorConfig cfg;
  cfg.environment = env::Environment::classic(make_wm(10, 0.9, 1000.0));
  cfg.seed = 1;
  Executor ex(cfg);
  const auto bot = small_bot(5);
  EXPECT_THROW(
      ex.run(bot, make_static_strategy(StaticStrategyKind::AR, 1000.0, 0.5)),
      util::ContractViolation);
}

TEST(Executor, TailPhaseStartsWhenPoolOutnumbersTasks) {
  const auto bot = small_bot(100);
  Executor ex(grid_plus_cluster(30));
  const auto trace = ex.run(
      bot, make_ntdmr_strategy(tail_params(1, 1000.0, 2000.0, 0.1)));
  // 100 tasks on 30 machines: several waves before the tail.
  EXPECT_GT(trace.t_tail(), 0.0);
  // At t_tail, remaining tasks must be below the unreliable pool size.
  EXPECT_LT(trace.remaining_at(trace.t_tail()), 30u);
}

TEST(Executor, FiniteNWithoutReliableCapacityIsRejected) {
  // A finite N relies on the guaranteed reliable (N+1)-th instance; the
  // paper restricts reliable-less users to N = inf strategies.
  Executor ex(grid_plus_cluster());
  const auto bot = small_bot(40);
  EXPECT_THROW(
      ex.run(bot, make_ntdmr_strategy(tail_params(2, 500.0, 2000.0, 0.0))),
      util::ContractViolation);
}

TEST(Executor, CostsAreNonNegativeAndOnlyForSuccesses) {
  Executor ex(grid_plus_cluster(30, 0.8));
  const auto bot = small_bot(80);
  const auto trace = ex.run(
      bot, make_ntdmr_strategy(tail_params(1, 500.0, 2000.0, 0.1)));
  for (const auto& r : trace.records()) {
    if (r.successful()) {
      EXPECT_GT(r.cost_cents, 0.0);
    } else {
      EXPECT_DOUBLE_EQ(r.cost_cents, 0.0);
    }
  }
}

TEST(Executor, BudgetStrategyStaysNearBudget) {
  Executor ex(grid_plus_cluster(30, 0.8));
  const auto bot = small_bot(80);
  const double budget = 200.0;  // cents
  const auto trace = ex.run(
      bot, make_static_strategy(StaticStrategyKind::Budget, 1000.0, 0.5,
                                budget));
  // The trigger replicates only when the estimated cost fits; the total can
  // exceed the budget only by estimation error on task lengths.
  EXPECT_LT(trace.total_cost_cents(), budget * 1.5);
}

TEST(Executor, BudgetWithoutReliableCapacityFinishesOnTheGrid) {
  // Mr = 0 leaves no reliable machine to replicate onto: the budget
  // trigger must not fire (firing would cancel every queued unreliable
  // instance and strand those tasks until the horizon).
  Executor ex(grid_plus_cluster(30, 0.8));
  const auto bot = small_bot(80);
  const auto trace = ex.run(
      bot, make_static_strategy(StaticStrategyKind::Budget, 1000.0,
                                /*mr_max=*/0.0, /*budget_cents=*/1e6));
  EXPECT_FALSE(trace.truncated());
  for (workload::TaskId t = 0; t < bot.size(); ++t) {
    EXPECT_TRUE(trace.task_completion_time(t).has_value()) << "task " << t;
  }
  EXPECT_EQ(trace.reliable_instances_sent(), 0u);
}

TEST(Executor, CombinedPoolOverflowsToReliable) {
  // 5 unreliable machines, 40 tasks: CN-inf must spill work to reliable.
  ExecutorConfig cfg;
  cfg.environment = env::Environment::classic(
      make_wm(5, 0.9, 1000.0), make_tech(5));
  cfg.seed = 21;
  Executor ex(cfg);
  const auto bot = small_bot(40);
  const auto trace = ex.run(
      bot, make_static_strategy(StaticStrategyKind::CNInf, 1000.0, 1.0));
  EXPECT_GT(trace.reliable_instances_sent(), 0u);
}

TEST(Executor, ResourceExclusionRaisesReliabilityOverTime) {
  // Heterogeneous host reliability + exclusion: flaky hosts get replaced,
  // so the pool's reliability drifts upward across the throughput phase
  // (the gamma(t') drift of paper experiments 1-6). Measured as a
  // difference-in-differences against the same run without exclusion, over
  // throughput-phase windows only (identical task mix).
  const auto bot = workload::make_synthetic_bot("xl", 800, 1000.0, 400.0,
                                                2500.0, 31);
  auto grid = make_wm(40, 0.75, 1000.0);
  grid.groups[0].availability_cv = 1.2;
  ExecutorConfig cfg;
  cfg.environment = env::Environment::classic(grid, make_tech(8));
  cfg.seed = 77;
  const auto strategy =
      make_ntdmr_strategy(tail_params(2, 1000.0, 2000.0, 0.1));

  auto drift = [&](std::size_t threshold) {
    auto variant = cfg;
    variant.exclusion_threshold = threshold;
    double total = 0.0;
    for (std::uint64_t stream : {1u, 2u, 3u}) {
      const auto tr = Executor(variant).run(bot, strategy, stream);
      const double half = tr.t_tail() / 2.0;
      total += tr.reliability_in_window(half, tr.t_tail()).value_or(0.0) -
               tr.reliability_in_window(0.0, half).value_or(0.0);
    }
    return total / 3.0;
  };

  EXPECT_GT(drift(/*threshold=*/2), drift(/*threshold=*/0) + 0.015);
}

TEST(Executor, ExclusionDisabledKeepsHostsStable) {
  // Same flaky environment without exclusion: no systematic improvement.
  const auto bot = workload::make_synthetic_bot("xl", 800, 1000.0, 400.0,
                                                2500.0, 31);
  auto grid = make_wm(40, 0.75, 1000.0);
  grid.groups[0].availability_cv = 1.2;
  ExecutorConfig cfg;
  cfg.environment = env::Environment::classic(grid, make_tech(8));
  cfg.seed = 77;
  Executor ex(cfg);
  const auto trace =
      ex.run(bot, make_ntdmr_strategy(tail_params(2, 1000.0, 2000.0, 0.1)));
  EXPECT_LT(trace.average_reliability(), 0.9);
  for (workload::TaskId t = 0; t < bot.size(); ++t) {
    ASSERT_TRUE(trace.task_completion_time(t).has_value());
  }
}

TEST(Executor, QueueWaitLengthensTurnaroundsButNotCost) {
  const auto bot = small_bot(40);
  auto cfg = grid_plus_cluster(20, 0.95);
  auto grid = make_wm(20, 0.95, 1000.0);
  for (auto& g : grid.groups) g.mean_queue_wait_s = 0.0;
  cfg.environment = env::Environment::classic(grid, make_tech(5));
  Executor instant(cfg);
  for (auto& g : grid.groups) g.mean_queue_wait_s = 400.0;
  cfg.environment = env::Environment::classic(grid, make_tech(5));
  Executor queued(cfg);
  const auto strategy =
      make_ntdmr_strategy(tail_params(1, 1000.0, 3000.0, 0.1));
  const auto fast = instant.run(bot, strategy);
  const auto slow = queued.run(bot, strategy);

  auto mean_turnaround = [](const trace::ExecutionTrace& tr) {
    const auto t = tr.successful_turnarounds(trace::PoolKind::Unreliable);
    double sum = 0.0;
    for (double x : t) sum += x;
    return sum / static_cast<double>(t.size());
  };
  // Mean turnaround grows by roughly the mean wait...
  EXPECT_GT(mean_turnaround(slow), mean_turnaround(fast) + 150.0);
  // ...but only consumed CPU is charged, so per-result cost is unchanged
  // in expectation (same task mix, same rates).
  EXPECT_NEAR(slow.cost_per_task_cents(), fast.cost_per_task_cents(),
              0.5 * fast.cost_per_task_cents());
}

TEST(Executor, FasterMachinesShortenMakespan) {
  const auto bot = small_bot(50);
  auto cfg = grid_plus_cluster(20, 0.95);
  Executor slow(cfg);
  auto grid = make_wm(20, 0.95, 1000.0);
  for (auto& g : grid.groups) g.speed_mean = 2.0;
  cfg.environment = env::Environment::classic(grid, make_tech(5));
  Executor fast(cfg);
  const auto strategy = make_ntdmr_strategy(tail_params(1, 1000.0, 2000.0, 0.1));
  EXPECT_LT(fast.run(bot, strategy).makespan(),
            slow.run(bot, strategy).makespan());
}

}  // namespace
}  // namespace expert::gridsim
