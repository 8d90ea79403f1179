// Fault injection in the machine-level executor: determinism, the chaos-off
// byte-identity guarantee, each fault class's observable footprint, horizon
// truncation, and the blackout -> gamma(t') tracking property.

#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "expert/chaos/chaos.hpp"
#include "expert/core/characterization.hpp"
#include "expert/gridsim/executor.hpp"
#include "expert/gridsim/presets.hpp"
#include "expert/obs/metrics.hpp"
#include "expert/trace/csv_io.hpp"
#include "expert/util/assert.hpp"
#include "expert/workload/presets.hpp"

namespace expert::gridsim {
namespace {

using strategies::StaticStrategyKind;
using strategies::make_ntdmr_strategy;
using strategies::make_static_strategy;
using strategies::NTDMr;

workload::Bot small_bot(std::size_t tasks = 60) {
  return workload::make_synthetic_bot("chaos-bot", tasks, 1000.0, 400.0,
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

std::string csv_of(const trace::ExecutionTrace& t) {
  std::ostringstream os;
  trace::write_csv(t, os);
  return os.str();
}

void expect_sane(const trace::ExecutionTrace& t) {
  EXPECT_FALSE(std::isnan(t.makespan()));
  EXPECT_GE(t.makespan(), 0.0);
  EXPECT_GE(t.t_tail(), 0.0);
  EXPECT_FALSE(std::isnan(t.total_cost_cents()));
  EXPECT_GE(t.total_cost_cents(), 0.0);
  for (const auto& r : t.records()) {
    EXPECT_GE(r.send_time, 0.0);
    EXPECT_FALSE(std::isnan(r.cost_cents));
    EXPECT_GE(r.cost_cents, 0.0);
  }
}

TEST(ChaosExecutor, InertPlanIsByteIdenticalToNoPlan) {
  const auto bot = small_bot();
  const auto strategy =
      make_ntdmr_strategy(tail_params(2, 500.0, 2000.0, 0.1));

  auto plain_cfg = grid_plus_cluster();
  Executor plain(plain_cfg);

  auto inert_cfg = grid_plus_cluster();
  inert_cfg.chaos = chaos::ChaosConfig{};  // present but all-zero
  Executor inert(inert_cfg);

  EXPECT_EQ(csv_of(plain.run(bot, strategy, 3)),
            csv_of(inert.run(bot, strategy, 3)));
}

TEST(ChaosExecutor, SamePlanSeedStreamReplaysByteForByte) {
  const auto bot = small_bot();
  const auto strategy =
      make_ntdmr_strategy(tail_params(2, 500.0, 2000.0, 0.1));

  auto cfg = grid_plus_cluster();
  cfg.chaos = chaos::parse_chaos_plan(
      "seed=9 blackouts=1 blackout_window=3000 blackout_duration=2000 "
      "dispatch_fail=0.3 backoff_base=10 backoff_max=100 loss=0.1");
  Executor ex(cfg);

  const auto a = ex.run(bot, strategy, 5);
  const auto b = ex.run(bot, strategy, 5);
  EXPECT_EQ(csv_of(a), csv_of(b));

  // A different stream replays a different fault sequence.
  const auto c = ex.run(bot, strategy, 6);
  EXPECT_NE(csv_of(a), csv_of(c));
  expect_sane(a);
  expect_sane(c);
}

TEST(ChaosExecutor, DispatchFailuresFallBackToUnreliable) {
  const auto bot = small_bot(40);
  auto cfg = grid_plus_cluster();
  chaos::ChaosConfig plan;
  plan.dispatch_failure_prob = 1.0;  // every reliable launch fails
  plan.max_dispatch_retries = 2;
  plan.dispatch_backoff_base_s = 10.0;
  plan.dispatch_backoff_max_s = 40.0;
  cfg.chaos = plan;
  Executor ex(cfg);

  const auto trace =
      ex.run(bot, make_ntdmr_strategy(tail_params(1, 500.0, 2000.0, 0.2)));
  expect_sane(trace);

  std::size_t dispatch_failed = 0;
  for (const auto& r : trace.records()) {
    if (r.outcome == trace::InstanceOutcome::DispatchFailed) {
      ++dispatch_failed;
      EXPECT_EQ(r.pool, trace::PoolKind::Reliable);
      EXPECT_DOUBLE_EQ(r.cost_cents, 0.0);  // launches that never ran are free
    } else if (r.pool == trace::PoolKind::Reliable) {
      // No reliable instance can have actually run.
      ADD_FAILURE() << "reliable instance ran despite 100% launch failure";
    }
  }
  EXPECT_GT(dispatch_failed, 0u);
  EXPECT_EQ(trace.reliable_instances_sent(), 0u);
  // Every task still completes via the unreliable fallback.
  for (workload::TaskId t = 0; t < bot.size(); ++t) {
    EXPECT_TRUE(trace.task_completion_time(t).has_value()) << "task " << t;
  }
}

TEST(ChaosExecutor, PartialDispatchFailureStillUsesReliablePool) {
  const auto bot = small_bot(40);
  auto cfg = grid_plus_cluster();
  chaos::ChaosConfig plan;
  plan.dispatch_failure_prob = 0.3;
  plan.dispatch_backoff_base_s = 10.0;
  plan.dispatch_backoff_max_s = 40.0;
  cfg.chaos = plan;
  Executor ex(cfg);

  const auto trace =
      ex.run(bot, make_ntdmr_strategy(tail_params(1, 500.0, 2000.0, 0.2)));
  expect_sane(trace);
  // Retries eventually get through: some reliable instances run.
  EXPECT_GT(trace.reliable_instances_sent(), 0u);
  for (workload::TaskId t = 0; t < bot.size(); ++t) {
    EXPECT_TRUE(trace.task_completion_time(t).has_value()) << "task " << t;
  }
}

TEST(ChaosExecutor, ResultLossLooksLikeSilentFailure) {
  // A perfectly reliable pool plus result loss: the only failures in the
  // trace are lost results, so any non-success among unreliable records is
  // the loss channel's footprint.
  const auto bot = small_bot(30);
  ExecutorConfig cfg;
  cfg.environment = env::Environment::classic(make_tech(10));  // never dies
  cfg.seed = 77;
  chaos::ChaosConfig plan;
  plan.result_loss_prob = 0.3;
  cfg.chaos = plan;
  Executor ex(cfg);

  const auto trace = ex.run(
      bot, make_static_strategy(StaticStrategyKind::AUR, 1000.0, 0.0));
  expect_sane(trace);
  std::size_t lost = 0;
  for (const auto& r : trace.records()) {
    if (!r.successful() && r.outcome != trace::InstanceOutcome::Cancelled)
      ++lost;
  }
  EXPECT_GT(lost, 0u);
  EXPECT_LT(trace.average_reliability(), 1.0);
  for (workload::TaskId t = 0; t < bot.size(); ++t) {
    EXPECT_TRUE(trace.task_completion_time(t).has_value()) << "task " << t;
  }
}

TEST(ChaosExecutor, PoolShrinkSlowsTheRunDown) {
  const auto bot = small_bot(80);
  const auto strategy =
      make_static_strategy(StaticStrategyKind::AUR, 1000.0, 0.0);

  auto clean_cfg = grid_plus_cluster(20);
  Executor clean(clean_cfg);
  const auto base = clean.run(bot, strategy, 2);

  auto shrunk_cfg = grid_plus_cluster(20);
  chaos::ChaosConfig plan;
  plan.shrink_fraction = 0.8;
  plan.shrink_start_s = 0.0;
  plan.shrink_duration_s = 1.0e9;  // the whole run
  shrunk_cfg.chaos = plan;
  Executor shrunk(shrunk_cfg);
  const auto slow = shrunk.run(bot, strategy, 2);

  expect_sane(slow);
  EXPECT_GT(slow.makespan(), base.makespan());
  for (workload::TaskId t = 0; t < bot.size(); ++t) {
    EXPECT_TRUE(slow.task_completion_time(t).has_value()) << "task " << t;
  }
}

TEST(ChaosExecutor, FlashCrowdAddsCapacity) {
  const auto bot = small_bot(80);
  const auto strategy =
      make_static_strategy(StaticStrategyKind::AUR, 1000.0, 0.0);

  auto clean_cfg = grid_plus_cluster(10);
  Executor clean(clean_cfg);
  const auto base = clean.run(bot, strategy, 2);

  auto flash_cfg = grid_plus_cluster(10);
  chaos::ChaosConfig plan;
  plan.flash_fraction = 2.0;  // triple the capacity...
  plan.flash_start_s = 0.0;
  plan.flash_duration_s = 1.0e9;  // ...for the whole run
  flash_cfg.chaos = plan;
  Executor flash(flash_cfg);
  const auto fast = flash.run(bot, strategy, 2);

  expect_sane(fast);
  // The spares triple the throughput-phase capacity. (Total makespan is no
  // fair yardstick under AUR — it is dominated by deadline-paced retries of
  // the unluckiest tail task, not by capacity.)
  EXPECT_LT(fast.t_tail(), base.t_tail());
  EXPECT_LT(fast.remaining_at(5000.0), base.remaining_at(5000.0));
}

TEST(ChaosExecutor, HorizonTruncationReturnsPartialTrace) {
  // 100% result loss under AUR never completes a task: the run must hit
  // the horizon and come back truncated instead of throwing.
  const auto bot = small_bot(20);
  ExecutorConfig cfg;
  cfg.environment = env::Environment::classic(make_tech(10));
  cfg.seed = 5;
  cfg.max_sim_time = 50000.0;
  chaos::ChaosConfig plan;
  plan.result_loss_prob = 1.0;
  cfg.chaos = plan;
  Executor ex(cfg);

  const auto trace = ex.run(
      bot, make_static_strategy(StaticStrategyKind::AUR, 1000.0, 0.0));
  EXPECT_TRUE(trace.truncated());
  EXPECT_DOUBLE_EQ(trace.makespan(), cfg.max_sim_time);
  EXPECT_FALSE(trace.records().empty());
  expect_sane(trace);
}

TEST(ChaosExecutor, StrictHorizonStillThrows) {
  const auto bot = small_bot(20);
  ExecutorConfig cfg;
  cfg.environment = env::Environment::classic(make_tech(10));
  cfg.seed = 5;
  cfg.max_sim_time = 50000.0;
  cfg.strict_horizon = true;
  chaos::ChaosConfig plan;
  plan.result_loss_prob = 1.0;
  cfg.chaos = plan;
  Executor ex(cfg);

  EXPECT_THROW(ex.run(bot, make_static_strategy(StaticStrategyKind::AUR,
                                                1000.0, 0.0)),
               util::ContractViolation);
}

TEST(ChaosExecutor, FaultsAreVisibleInObsMetrics) {
  obs::Registry& reg = obs::Registry::global();
  reg.set_enabled(true);
  reg.reset();

  const auto bot = small_bot(40);
  auto cfg = grid_plus_cluster();
  cfg.chaos = chaos::parse_chaos_plan(
      "blackouts=1 blackout_window=3000 blackout_duration=2000 "
      "dispatch_fail=0.5 backoff_base=10 backoff_max=100 loss=0.1");
  Executor ex(cfg);
  ex.run(bot, make_ntdmr_strategy(tail_params(1, 500.0, 2000.0, 0.2)), 1);

  const auto snap = reg.snapshot();
  reg.set_enabled(false);
  // Chaos fault counters are pool-labeled in the v2 schema; sum the
  // family rather than pinning the label here.
  const auto count_of = [&](const char* name) {
    return snap.counter_total(name);
  };
  EXPECT_GT(count_of("chaos.blackout_windows"), 0u);
  EXPECT_GT(count_of("chaos.forced_down_transitions"), 0u);
  EXPECT_GT(count_of("chaos.dispatch_failures"), 0u);
  EXPECT_GT(count_of("chaos.results_lost"), 0u);
}

// Satellite (c): a correlated group blackout in mid-throughput raises the
// observed failure fraction, and the online gamma(t') characterization
// tracks the dip — instances sent into the blackout show depressed
// reliability relative to early sends. Asserted on averages across seeds so
// single-draw noise (short exponential blackouts) cannot flip the result.
TEST(ChaosExecutorProperty, BlackoutRaisesFailuresAndGammaTracksIt) {
  const auto bot = workload::make_synthetic_bot("gamma-bot", 200, 1000.0,
                                                400.0, 2500.0, 7);
  const auto strategy =
      make_ntdmr_strategy(tail_params(2, 1000.0, 4000.0, 0.1));

  chaos::ChaosConfig plan;
  plan.blackouts_per_group = 1;
  plan.blackout_window_s = 3000.0;       // starts early in the run
  plan.blackout_mean_duration_s = 6000.0;  // long enough to bite

  double clean_failures = 0.0, chaos_failures = 0.0;
  double clean_gamma_dip = 0.0, chaos_gamma_dip = 0.0;
  std::size_t measured = 0;

  for (std::uint64_t stream = 1; stream <= 5; ++stream) {
    // The executor derives the schedule from the same public function, so
    // the test knows exactly when the lights go out.
    const auto schedule = chaos::blackout_schedule(plan, 1, stream);
    ASSERT_EQ(schedule.size(), 1u);
    ASSERT_EQ(schedule[0].size(), 1u);
    const auto window = schedule[0][0];
    if (window.end - window.start < 1500.0) continue;  // too weak to measure

    auto clean_cfg = grid_plus_cluster(30);
    Executor clean(clean_cfg);
    const auto base = clean.run(bot, strategy, stream);

    auto chaos_cfg = grid_plus_cluster(30);
    chaos_cfg.chaos = plan;
    Executor chaotic(chaos_cfg);
    const auto hit = chaotic.run(bot, strategy, stream);

    expect_sane(hit);
    for (workload::TaskId t = 0; t < bot.size(); ++t) {
      EXPECT_TRUE(hit.task_completion_time(t).has_value()) << "task " << t;
    }

    clean_failures += 1.0 - base.average_reliability();
    chaos_failures += 1.0 - hit.average_reliability();

    // Online characterization at each trace's own T_tail: gamma for sends
    // just before the blackout (which mostly die) vs the same t' on the
    // clean run.
    core::CharacterizationOptions copts;
    copts.mode = core::ReliabilityMode::Online;
    copts.instance_deadline = 4000.0;
    const auto clean_model = core::characterize(base, copts);
    const auto chaos_model = core::characterize(hit, copts);
    const double probe = std::max(0.0, window.start - 500.0);
    clean_gamma_dip += clean_model.gamma(probe);
    chaos_gamma_dip += chaos_model.gamma(probe);
    ++measured;
  }

  ASSERT_GE(measured, 2u) << "blackout draws too short across all streams";
  const double n = static_cast<double>(measured);
  EXPECT_GT(chaos_failures / n, clean_failures / n + 0.02)
      << "blackout did not raise the observed failure fraction";
  EXPECT_LT(chaos_gamma_dip / n, clean_gamma_dip / n - 0.02)
      << "online gamma(t') did not track the blackout dip";
}

}  // namespace
}  // namespace expert::gridsim
