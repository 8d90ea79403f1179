// End-to-end exercise of the full ExPERT process of paper Fig. 4:
// run a BoT on the machine-level grid simulator, characterize the pool from
// the resulting history, build a Pareto frontier, and pick strategies for
// several utility functions.

#include <gtest/gtest.h>

#include "expert/core/expert.hpp"
#include "expert/gridsim/executor.hpp"
#include "expert/gridsim/presets.hpp"
#include "expert/workload/presets.hpp"

namespace expert {
namespace {

class EndToEnd : public ::testing::Test {
 protected:
  static constexpr double kMeanCpu = 1000.0;

  static trace::ExecutionTrace history() {
    gridsim::ExecutorConfig cfg;
    cfg.environment = gridsim::env::Environment::classic(
        gridsim::make_wm(40, 0.85, kMeanCpu), gridsim::make_tech(8));
    cfg.seed = 515;
    gridsim::Executor ex(cfg);
    const auto bot = workload::make_synthetic_bot("history-bot", 200, kMeanCpu,
                                                  400.0, 2500.0, 3);
    return ex.run(bot, strategies::make_static_strategy(
                           strategies::StaticStrategyKind::AUR, kMeanCpu, 0.2));
  }

  static core::UserParams params() {
    core::UserParams p;
    p.tur = kMeanCpu;
    p.tr = kMeanCpu;
    return p;
  }

  static core::ExpertOptions options() {
    core::ExpertOptions opts;
    opts.repetitions = 3;
    opts.sampling.n_values = {0u, 1u, 2u};
    opts.sampling.d_samples = 3;
    opts.sampling.t_samples = 3;
    opts.sampling.mr_values = {0.05, 0.2};
    return opts;
  }
};

TEST_F(EndToEnd, CharacterizationRecoversEnvironment) {
  const auto h = history();
  const auto model = core::characterize(
      h, {core::ReliabilityMode::Online, 4.0 * kMeanCpu, 6});
  // The pool was calibrated to gamma ~0.85.
  EXPECT_NEAR(model.gamma_model().mean_gamma(), 0.85, 0.1);
  // Effective size is a prediction-calibration parameter, not a machine
  // census: the Estimator holds failed instances until their deadline while
  // real machines free early and are replaced (a paper-documented
  // model/reality gap), so both estimates sit at or above the nominal 40.
  const auto heuristic = core::estimate_effective_size(h);
  EXPECT_GE(heuristic, 35u);
  EXPECT_LE(heuristic, 70u);
  const auto size =
      core::estimate_effective_size_iterative(h, model, 4.0 * kMeanCpu);
  EXPECT_GE(size, 35u);
  EXPECT_LE(size, 75u);

  // What the iterative estimate must actually guarantee: an Estimator with
  // this pool size reproduces the real throughput-phase result rate.
  const double real_rate =
      static_cast<double>(h.task_count() - h.remaining_at(h.t_tail())) /
      h.t_tail();
  core::EstimatorConfig cfg;
  cfg.unreliable_size = size;
  cfg.tr = kMeanCpu;
  cfg.throughput_deadline = 4.0 * kMeanCpu;
  cfg.repetitions = 5;
  core::Estimator estimator(cfg, model);
  const auto est = estimator.estimate(
      h.task_count(), strategies::make_static_strategy(
                          strategies::StaticStrategyKind::AUR, kMeanCpu, 0.0));
  const double sim_rate =
      (static_cast<double>(h.task_count()) - est.mean.tail_tasks) /
      est.mean.t_tail;
  EXPECT_NEAR(sim_rate, real_rate, 0.25 * real_rate);
}

TEST_F(EndToEnd, ExpertRecommendsFromHistory) {
  const auto expert = core::Expert::from_history(history(), params(),
                                                 options());
  const auto frontier = expert.build_frontier(150);
  ASSERT_FALSE(frontier.frontier().empty());

  const auto rec =
      core::Expert::recommend(frontier, core::Utility::min_cost_makespan_product());
  ASSERT_TRUE(rec.has_value());
  EXPECT_NO_THROW(rec->strategy.validate());
  EXPECT_GT(rec->predicted.makespan, 0.0);
  EXPECT_GT(rec->predicted.cost, 0.0);
}

TEST_F(EndToEnd, DifferentUtilitiesPickDifferentFrontierEnds) {
  const auto expert = core::Expert::from_history(history(), params(),
                                                 options());
  const auto frontier = expert.build_frontier(150);
  const auto fastest =
      core::Expert::recommend(frontier, core::Utility::fastest());
  const auto cheapest =
      core::Expert::recommend(frontier, core::Utility::cheapest());
  ASSERT_TRUE(fastest && cheapest);
  EXPECT_LE(fastest->predicted.makespan, cheapest->predicted.makespan);
  EXPECT_LE(cheapest->predicted.cost, fastest->predicted.cost);
}

TEST_F(EndToEnd, RecommendedStrategyBeatsNaiveOnItsOwnUtility) {
  const auto expert = core::Expert::from_history(history(), params(),
                                                 options());
  const auto frontier = expert.build_frontier(150);
  const auto utility = core::Utility::min_cost_makespan_product();
  const auto rec = core::Expert::recommend(frontier, utility);
  ASSERT_TRUE(rec.has_value());
  // Every sampled strategy scores no better than the recommendation.
  for (const auto& p : frontier.sampled) {
    EXPECT_GE(utility.score(p.makespan, p.cost) + 1e-9, rec->utility_score);
  }
}

TEST_F(EndToEnd, ExplicitModelConstructionWorks) {
  const auto model = core::make_synthetic_model(kMeanCpu, 300.0, 3200.0, 0.8);
  core::Expert expert(params(), model, 40, options());
  const auto rec = expert.recommend(100, core::Utility::cheapest());
  ASSERT_TRUE(rec.has_value());
}

}  // namespace
}  // namespace expert
