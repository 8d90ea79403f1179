// The paper's headline quantitative claims, enforced as tests on the
// Experiment-11-style setting (synthetic CDF with mean T_ur = 2066 s and
// gamma = 0.827; 150-task BoT on 50 unreliable machines; Table II costs).
// Thresholds are set looser than the paper's reported numbers — the claims
// must hold in *shape*, robustly to our substitute environment.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "expert/core/expert.hpp"
#include "expert/gridsim/scenarios.hpp"
#include "expert/stats/summary.hpp"

namespace expert {
namespace {

using core::StrategyPoint;
using strategies::make_static_strategy;
using strategies::StaticStrategyKind;

constexpr double kTur = 2066.0;
constexpr std::size_t kTasks = 150;

class PaperClaims : public ::testing::Test {
 protected:
  PaperClaims()
      : estimator_(config(),
                   core::make_synthetic_model(kTur, 300.0, 6000.0, 0.827)) {}

  static core::EstimatorConfig config() {
    auto cfg = core::EstimatorConfig::from_user_params(core::UserParams{},
                                                       /*unreliable=*/50);
    cfg.repetitions = 6;
    cfg.seed = 0xC1A115;
    return cfg;
  }

  core::FrontierResult frontier(double mr_max,
                                core::TimeObjective objective) const {
    core::SamplingSpec spec;
    spec.max_deadline = 4.0 * kTur;
    std::erase_if(spec.mr_values, [mr_max](double mr) { return mr > mr_max; });
    core::FrontierOptions options;
    options.time_objective = objective;
    return core::generate_frontier(estimator_, kTasks, spec, options);
  }

  core::RunMetrics run_static(StaticStrategyKind kind, double mr_max) const {
    return estimator_
        .estimate(kTasks,
                  make_static_strategy(kind, kTur, mr_max, 5.0 * kTasks))
        .mean;
  }

  core::Estimator estimator_;
};

TEST_F(PaperClaims, Fig6_NZeroCostsSeveralTimesTheKnee) {
  // "using the Pareto frontier can save the user from paying an
  // inefficient cost of 4 cent/task using N = 0 ... instead of an
  // efficient cost of under 1 cent/task (4 times better) using N = 3."
  const auto result = frontier(0.5, core::TimeObjective::TailMakespan);
  double worst_n0 = 0.0;
  double cheapest = 1e300;
  for (const auto& p : result.sampled) {
    if (p.params.n == 0u) worst_n0 = std::max(worst_n0, p.cost);
  }
  for (const auto& p : result.frontier()) {
    cheapest = std::min(cheapest, p.cost);
  }
  EXPECT_LT(cheapest, 1.0);             // efficient cost under 1 cent/task
  EXPECT_GT(worst_n0 / cheapest, 3.0);  // paper: 4x
}

TEST_F(PaperClaims, Fig6_KneeIsHighN) {
  const auto result = frontier(0.5, core::TimeObjective::TailMakespan);
  const auto rec = core::Expert::recommend(
      result, core::Utility::min_cost_makespan_product());
  ASSERT_TRUE(rec.has_value());
  ASSERT_TRUE(rec->strategy.n.has_value());
  EXPECT_GE(*rec->strategy.n, 2u);  // the knee replicates on the cheap grid
}

TEST_F(PaperClaims, Fig8a_FrontierDominatesStaticStrategiesExceptMaybeAUR) {
  const auto result = frontier(0.1, core::TimeObjective::BotMakespan);
  for (auto kind :
       {StaticStrategyKind::AR, StaticStrategyKind::TRR,
        StaticStrategyKind::TR, StaticStrategyKind::Budget,
        StaticStrategyKind::CNInf, StaticStrategyKind::CN1T0}) {
    const auto m = run_static(kind, 0.1);
    StrategyPoint p;
    p.makespan = m.makespan;
    p.cost = m.cost_per_task_cents;
    bool dominated = false;
    for (const auto& f : result.frontier()) {
      if (core::dominates(f, p)) dominated = true;
    }
    EXPECT_TRUE(dominated) << strategies::to_string(kind);
  }
}

TEST_F(PaperClaims, Fig8a_RecommendedCutsCNInfByAtLeastThirtyPercent) {
  // Abstract headline: "reduces both makespan and cost by 30%-70% in
  // comparison to commonly-used scheduling strategies."
  const auto result = frontier(0.1, core::TimeObjective::BotMakespan);
  const auto rec = core::Expert::recommend(
      result, core::Utility::min_cost_makespan_product());
  ASSERT_TRUE(rec.has_value());
  const auto cninf = run_static(StaticStrategyKind::CNInf, 0.1);
  EXPECT_LT(rec->predicted.cost, 0.7 * cninf.cost_per_task_cents);
  EXPECT_LT(rec->predicted.makespan, 0.7 * cninf.makespan);
}

TEST_F(PaperClaims, Fig8b_RecommendedBeatsEveryStaticOnTheProductUtility) {
  const auto result = frontier(0.1, core::TimeObjective::BotMakespan);
  const auto rec = core::Expert::recommend(
      result, core::Utility::min_cost_makespan_product());
  ASSERT_TRUE(rec.has_value());
  const double rec_u = rec->predicted.makespan * rec->predicted.cost;
  for (auto kind : strategies::kAllStaticStrategies) {
    const auto m = run_static(kind, 0.1);
    EXPECT_LT(rec_u, m.makespan * m.cost_per_task_cents)
        << strategies::to_string(kind);
  }
}

TEST_F(PaperClaims, Fig8b_ARIsOrdersOfMagnitudeWorse) {
  const auto result = frontier(0.1, core::TimeObjective::BotMakespan);
  const auto rec = core::Expert::recommend(
      result, core::Utility::min_cost_makespan_product());
  ASSERT_TRUE(rec.has_value());
  const auto ar = run_static(StaticStrategyKind::AR, 0.1);
  EXPECT_GT(ar.makespan * ar.cost_per_task_cents,
            50.0 * rec->predicted.makespan * rec->predicted.cost);
}

TEST_F(PaperClaims, Fig9_HighMrReachesShorterMakespans) {
  // "the Pareto frontier for Mr = 0.02 starts at a tail makespan ... 25%
  // larger than the makespans achievable when Mr >= 0.30."
  auto low = frontier(0.02, core::TimeObjective::TailMakespan).frontier();
  auto high = frontier(0.5, core::TimeObjective::TailMakespan).frontier();
  ASSERT_FALSE(low.empty());
  ASSERT_FALSE(high.empty());
  EXPECT_GT(low.front().makespan, 1.15 * high.front().makespan);
}

TEST_F(PaperClaims, Fig10_ReliableQueueAlmostNeverEmpty) {
  const auto result = frontier(0.5, core::TimeObjective::TailMakespan);
  std::size_t reliable_users = 0;
  std::size_t with_queue = 0;
  for (const auto& p : result.frontier()) {
    if (!p.params.uses_reliable()) continue;
    if (p.metrics.reliable_instances_sent == 0.0 &&
        p.metrics.max_reliable_queue == 0.0)
      continue;  // never needed the reliable pool at all
    ++reliable_users;
    if (p.metrics.max_reliable_queue > 0.0) ++with_queue;
  }
  ASSERT_GT(reliable_users, 0u);
  EXPECT_GE(static_cast<double>(with_queue),
            0.8 * static_cast<double>(reliable_users));
}

// Table V: the Estimator, fed by the offline / online characterization of
// each row's gridsim execution, must keep predicting that execution as
// well as it does today (bench/table5_validation prints the same rows).
// Measured means of |deviation|: TMS 19% / C 6% offline, 28% / 11%
// online. Each bound is that mean plus a margin of 5 percentage points, so
// a faster Estimator cannot quietly become a worse one.
TEST_F(PaperClaims, TableV_MeanDeviationStaysNearMeasured) {
  const core::ReliabilityMode modes[] = {core::ReliabilityMode::Offline,
                                         core::ReliabilityMode::Online};
  double tms[2] = {0.0, 0.0};
  double cost[2] = {0.0, 0.0};
  const auto& rows = gridsim::table_v_experiments();
  for (const auto& exp : rows) {
    const auto number = static_cast<std::uint64_t>(exp.number);
    const auto& wl = workload::workload_spec(exp.workload);
    const auto strategy = gridsim::make_experiment_strategy(exp);
    const auto real =
        gridsim::Executor(
            gridsim::make_experiment_environment(exp, 0x7AB1E + number))
            .run(workload::make_bot(exp.workload, 0xB07 + number), strategy);
    for (std::size_t m = 0; m < 2; ++m) {
      core::EstimatorConfig cfg;
      cfg.charging_period_r_s = exp.ec2_reliable() ? 3600.0 : 1.0;
      cfg.seed = 0x7AB1E5 + number;
      const auto prediction =
          core::predict_execution(real, wl, strategy, modes[m], cfg);
      const auto* est = std::get_if<core::EstimateResult>(&prediction);
      ASSERT_NE(est, nullptr) << "row " << exp.number;
      tms[m] += std::abs(stats::relative_deviation(est->mean.tail_makespan,
                                                   real.tail_makespan()));
      cost[m] += std::abs(stats::relative_deviation(
          est->mean.cost_per_task_cents, real.cost_per_task_cents()));
    }
  }
  const double n = static_cast<double>(rows.size());
  std::printf("Table V mean |deviation|: offline TMS %.4f C %.4f, "
              "online TMS %.4f C %.4f\n",
              tms[0] / n, cost[0] / n, tms[1] / n, cost[1] / n);
  constexpr double kMargin = 0.05;
  EXPECT_LE(tms[0] / n, 0.19 + kMargin);
  EXPECT_LE(cost[0] / n, 0.06 + kMargin);
  EXPECT_LE(tms[1] / n, 0.28 + kMargin);
  EXPECT_LE(cost[1] / n, 0.11 + kMargin);
}

}  // namespace
}  // namespace expert
