#include "expert/core/estimator.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "expert/util/assert.hpp"

namespace expert::core {
namespace {

using strategies::make_ntdmr_strategy;
using strategies::make_static_strategy;
using strategies::NTDMr;
using strategies::StaticStrategyKind;

constexpr double kTurMean = 1000.0;

EstimatorConfig small_config(std::size_t pool = 20) {
  EstimatorConfig cfg;
  cfg.unreliable_size = pool;
  cfg.tr = kTurMean;
  cfg.cur_cents_per_s = 1.0 / 3600.0;
  cfg.cr_cents_per_s = 34.0 / 3600.0;
  cfg.throughput_deadline = 4.0 * kTurMean;
  cfg.repetitions = 5;
  cfg.seed = 777;
  return cfg;
}

TurnaroundModel model(double gamma) {
  return make_synthetic_model(kTurMean, 300.0, 3200.0, gamma);
}

NTDMr params(std::optional<unsigned> n, double t, double d, double mr) {
  NTDMr p;
  p.n = n;
  p.timeout_t = t;
  p.deadline_d = d;
  p.mr = mr;
  return p;
}

TEST(Estimator, CompletesAllTasks) {
  Estimator est(small_config(), model(0.9));
  const auto [metrics, trace] =
      est.simulate(60, make_ntdmr_strategy(params(2, 500.0, 2000.0, 0.1)));
  EXPECT_TRUE(metrics.finished);
  for (workload::TaskId t = 0; t < 60; ++t) {
    EXPECT_TRUE(trace.task_completion_time(t).has_value()) << t;
  }
  EXPECT_GT(metrics.makespan, 0.0);
  EXPECT_GE(metrics.tail_makespan, 0.0);
  EXPECT_DOUBLE_EQ(metrics.makespan,
                   metrics.t_tail + metrics.tail_makespan);
}

TEST(Estimator, DeterministicPerRepetition) {
  Estimator est(small_config(), model(0.85));
  const auto strategy = make_ntdmr_strategy(params(1, 500.0, 2000.0, 0.1));
  const auto a = est.simulate(50, strategy, 0, 3).first;
  const auto b = est.simulate(50, strategy, 0, 3).first;
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.total_cost_cents, b.total_cost_cents);
  const auto c = est.simulate(50, strategy, 0, 4).first;
  EXPECT_NE(a.makespan, c.makespan);
}

TEST(Estimator, EstimateAveragesRepetitions) {
  Estimator est(small_config(), model(0.85));
  const auto result =
      est.estimate(50, make_ntdmr_strategy(params(1, 500.0, 2000.0, 0.1)));
  ASSERT_EQ(result.runs.size(), 5u);
  double sum = 0.0;
  for (const auto& r : result.runs) sum += r.makespan;
  EXPECT_NEAR(result.mean.makespan, sum / 5.0, 1e-9);
  EXPECT_GE(result.stddev.makespan, 0.0);
}

TEST(Estimator, PerfectPoolNoReplicationOneInstancePerTask) {
  Estimator est(small_config(), model(1.0));
  const auto [metrics, trace] = est.simulate(
      40, make_static_strategy(StaticStrategyKind::AUR, kTurMean, 0.0));
  EXPECT_DOUBLE_EQ(metrics.unreliable_instances_sent, 40.0);
  EXPECT_DOUBLE_EQ(metrics.reliable_instances_sent, 0.0);
  EXPECT_DOUBLE_EQ(metrics.duplicate_results, 0.0);
}

TEST(Estimator, ThroughputPhaseSaturatesPool) {
  // 100 tasks on 20 machines: the first wave sends exactly 20 instances at
  // time zero.
  Estimator est(small_config(20), model(1.0));
  const auto [metrics, trace] = est.simulate(
      100, make_static_strategy(StaticStrategyKind::AUR, kTurMean, 0.0));
  std::size_t at_zero = 0;
  for (const auto& r : trace.records()) {
    if (r.send_time == 0.0) ++at_zero;
  }
  EXPECT_EQ(at_zero, 20u);
  EXPECT_GT(metrics.t_tail, 0.0);
}

TEST(Estimator, TailTasksBelowPoolSize) {
  Estimator est(small_config(20), model(0.9));
  const auto [metrics, trace] =
      est.simulate(100, make_ntdmr_strategy(params(1, 500.0, 2000.0, 0.1)));
  EXPECT_LT(metrics.tail_tasks, 20.0);
  EXPECT_GT(metrics.tail_tasks, 0.0);
}

TEST(Estimator, TailTasksOverrideRespected) {
  auto cfg = small_config(20);
  cfg.tail_tasks_override = 7;
  Estimator est(cfg, model(0.9));
  const auto [metrics, trace] =
      est.simulate(100, make_ntdmr_strategy(params(1, 500.0, 2000.0, 0.1)));
  EXPECT_DOUBLE_EQ(metrics.tail_tasks, 7.0);
}

TEST(Estimator, ARMakespanMatchesWaveCount) {
  // All-to-reliable with 4 reliable machines (mr=0.2 of 20) and 12 tasks:
  // 3 waves of T_r each.
  Estimator est(small_config(20), model(0.9));
  auto strategy = make_static_strategy(StaticStrategyKind::AR, kTurMean, 0.2);
  const auto [metrics, trace] = est.simulate(12, strategy);
  EXPECT_NEAR(metrics.makespan, 3.0 * kTurMean, 1e-6);
  EXPECT_DOUBLE_EQ(metrics.reliable_instances_sent, 12.0);
}

TEST(Estimator, ARCostIsReliableRateTimesTr) {
  Estimator est(small_config(20), model(0.9));
  auto strategy = make_static_strategy(StaticStrategyKind::AR, kTurMean, 0.2);
  const auto [metrics, trace] = est.simulate(12, strategy);
  const double expected = charge_cents(kTurMean, 34.0 / 3600.0, 1.0);
  EXPECT_NEAR(metrics.cost_per_task_cents, expected, 1e-9);
}

TEST(Estimator, LowerGammaRaisesCostAndMakespan) {
  const auto strategy = make_ntdmr_strategy(params(2, 1000.0, 2000.0, 0.1));
  Estimator reliable(small_config(), model(0.98));
  Estimator flaky(small_config(), model(0.6));
  const auto good = reliable.estimate(80, strategy).mean;
  const auto bad = flaky.estimate(80, strategy).mean;
  EXPECT_GT(bad.makespan, good.makespan);
  EXPECT_GT(bad.total_cost_cents, 0.0);
}

TEST(Estimator, NZeroSendsTailTasksToReliable) {
  Estimator est(small_config(20), model(0.7));
  const auto [metrics, trace] =
      est.simulate(60, make_ntdmr_strategy(params(0, 0.0, 4000.0, 0.5)));
  EXPECT_GT(metrics.reliable_instances_sent, 0.0);
  // With N = 0, no tail-phase unreliable instance may exist.
  for (const auto& r : trace.records()) {
    if (r.tail_phase && r.outcome != trace::InstanceOutcome::Cancelled) {
      EXPECT_EQ(r.pool, trace::PoolKind::Reliable);
    }
  }
}

TEST(Estimator, NInfinityNeverUsesReliable) {
  Estimator est(small_config(20), model(0.7));
  const auto [metrics, trace] = est.simulate(
      60, make_ntdmr_strategy(params(std::nullopt, 1000.0, 2000.0, 0.0)));
  EXPECT_DOUBLE_EQ(metrics.reliable_instances_sent, 0.0);
  EXPECT_TRUE(metrics.finished);
}

TEST(Estimator, UsedMrNeverExceedsMr) {
  Estimator est(small_config(50), model(0.8));
  for (double mr : {0.02, 0.1, 0.3}) {
    const auto [metrics, trace] =
        est.simulate(150, make_ntdmr_strategy(params(1, 500.0, 2000.0, mr)));
    EXPECT_LE(metrics.used_mr,
              std::ceil(mr * 50.0) / 50.0 + 1e-12)
        << "mr=" << mr;
  }
}

TEST(Estimator, ReliableQueueBoundedByTailTasks) {
  Estimator est(small_config(50), model(0.8));
  const auto [metrics, trace] =
      est.simulate(150, make_ntdmr_strategy(params(0, 0.0, 4000.0, 0.02)));
  EXPECT_LE(metrics.max_reliable_queue, metrics.tail_tasks);
  EXPECT_GT(metrics.max_reliable_queue, 0.0);
}

TEST(Estimator, CancelledReliableInstancesSaveCost) {
  // Mr = 0.02 (1 machine): a long reliable queue lets slow unreliable
  // instances finish first and cancel queued reliable work (paper Fig. 10).
  Estimator est(small_config(50), model(0.85));
  const auto [m_small, t_small] =
      est.simulate(150, make_ntdmr_strategy(params(0, 0.0, 4000.0, 0.02)));
  const auto [m_big, t_big] =
      est.simulate(150, make_ntdmr_strategy(params(0, 0.0, 4000.0, 0.5)));
  std::size_t cancelled_small = 0;
  for (const auto& r : t_small.records()) {
    if (r.pool == trace::PoolKind::Reliable &&
        r.outcome == trace::InstanceOutcome::Cancelled)
      ++cancelled_small;
  }
  EXPECT_GT(cancelled_small, 0u);
  EXPECT_LT(m_small.total_cost_cents, m_big.total_cost_cents);
  EXPECT_GE(m_small.tail_makespan, m_big.tail_makespan);
}

TEST(Estimator, TimeoutTDelaysReplication) {
  // Larger T defers replicas; cost falls, makespan grows.
  Estimator est(small_config(30), model(0.75));
  const auto eager =
      est.estimate(90, make_ntdmr_strategy(params(3, 0.0, 2000.0, 0.1))).mean;
  const auto lazy =
      est.estimate(90, make_ntdmr_strategy(params(3, 2000.0, 2000.0, 0.1)))
          .mean;
  EXPECT_LE(lazy.unreliable_instances_sent, eager.unreliable_instances_sent);
  EXPECT_LE(lazy.total_cost_cents, eager.total_cost_cents + 1e-9);
}

TEST(Estimator, BudgetStrategyTriggersReplication) {
  Estimator est(small_config(20), model(0.7));
  auto strategy = make_static_strategy(StaticStrategyKind::Budget, kTurMean,
                                       0.5, /*budget=*/2000.0);
  const auto [metrics, trace] = est.simulate(60, strategy);
  EXPECT_GT(metrics.reliable_instances_sent, 0.0);
  EXPECT_TRUE(metrics.finished);
}

TEST(Estimator, BudgetWithoutReliableCapacityStillFinishes) {
  // Mr = 0 leaves no reliable capacity: the budget trigger must not fire
  // (firing would cancel every queued unreliable instance and strand those
  // tasks until the horizon).
  Estimator est(small_config(25), model(0.8));
  auto strategy = make_static_strategy(StaticStrategyKind::Budget, kTurMean,
                                       /*mr_max=*/0.0, /*budget=*/1e6);
  const auto [metrics, trace] = est.simulate(60, strategy);
  EXPECT_TRUE(metrics.finished);
  EXPECT_LT(metrics.makespan, small_config().max_sim_time);
  EXPECT_EQ(metrics.reliable_instances_sent, 0.0);
}

TEST(Estimator, CombinedPoolUsesReliableWhenSaturated) {
  Estimator est(small_config(5), model(0.9));
  auto strategy = make_static_strategy(StaticStrategyKind::CNInf, kTurMean,
                                       1.0);
  const auto [metrics, trace] = est.simulate(40, strategy);
  EXPECT_GT(metrics.reliable_instances_sent, 0.0);
}

TEST(Estimator, HourlyBillingRoundsUp) {
  auto cfg = small_config(20);
  cfg.charging_period_r_s = 3600.0;
  cfg.tr = 1800.0;  // half an hour, billed as a full hour
  Estimator est(cfg, model(0.9));
  auto strategy = make_static_strategy(StaticStrategyKind::AR, kTurMean, 0.2);
  const auto [metrics, trace] = est.simulate(8, strategy);
  EXPECT_NEAR(metrics.cost_per_task_cents, 34.0, 1e-9);
}

TEST(Estimator, UnfinishedRunsAreFlagged) {
  auto cfg = small_config(5);
  cfg.max_sim_time = 10.0;  // absurdly tight horizon
  Estimator est(cfg, model(0.9));
  const auto [metrics, trace] =
      est.simulate(50, make_ntdmr_strategy(params(1, 500.0, 2000.0, 0.1)));
  EXPECT_FALSE(metrics.finished);
}

TEST(Estimator, ConfigValidation) {
  EstimatorConfig cfg = small_config();
  cfg.unreliable_size = 0;
  EXPECT_THROW(Estimator(cfg, model(0.9)), util::ContractViolation);
  cfg = small_config();
  cfg.repetitions = 0;
  EXPECT_THROW(Estimator(cfg, model(0.9)), util::ContractViolation);
}

TEST(Estimator, FromUserParamsCopiesEverything) {
  UserParams p;
  p.tr = 1234.0;
  p.tur = 500.0;
  p.charging_period_r_s = 3600.0;
  const auto cfg = EstimatorConfig::from_user_params(p, 33);
  EXPECT_EQ(cfg.unreliable_size, 33u);
  EXPECT_DOUBLE_EQ(cfg.tr, 1234.0);
  EXPECT_DOUBLE_EQ(cfg.throughput_deadline, 2000.0);
  EXPECT_DOUBLE_EQ(cfg.charging_period_r_s, 3600.0);
}

}  // namespace
}  // namespace expert::core
