#include "expert/gridsim/scenarios.hpp"

#include <gtest/gtest.h>

namespace expert::gridsim {
namespace {

TEST(TableVScenarios, ThirteenRowsOrderedByReliability) {
  const auto& rows = table_v_experiments();
  ASSERT_EQ(rows.size(), 13u);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i].gamma, rows[i - 1].gamma) << "row " << i;
    EXPECT_EQ(rows[i].number, static_cast<int>(i + 1));
  }
  EXPECT_DOUBLE_EQ(rows.front().gamma, 0.995);
  EXPECT_DOUBLE_EQ(rows.back().gamma, 0.746);
}

TEST(TableVScenarios, PublishedRowFacts) {
  const auto& rows = table_v_experiments();
  // Row 2: WL1, N=2.
  EXPECT_EQ(rows[1].workload, workload::WorkloadId::WL1);
  ASSERT_TRUE(rows[1].n.has_value());
  EXPECT_EQ(*rows[1].n, 2u);
  // Rows 3 and 5 are the combined-pool CN-inf runs.
  EXPECT_TRUE(rows[2].combined());
  EXPECT_TRUE(rows[4].combined());
  EXPECT_TRUE(rows[4].ec2_reliable());
  // Row 6 is pure-grid (no reliable pool, N=inf).
  EXPECT_EQ(rows[5].reliable, TableVExperiment::ReliableKind::None);
  EXPECT_FALSE(rows[5].n.has_value());
  // Row 10 pays EC2 rates.
  EXPECT_TRUE(rows[9].ec2_reliable());
  // Row 9 uses the OSG+WM pool with l_ur = 251.
  EXPECT_EQ(rows[8].unreliable, TableVExperiment::UnreliableKind::OSGWM);
  EXPECT_EQ(rows[8].unreliable_size, 251u);
}

TEST(TableVScenarios, EnvironmentsValidateAndMatchSizes) {
  for (const auto& exp : table_v_experiments()) {
    const auto env = make_experiment_environment(exp, 1);
    EXPECT_NO_THROW(env.validate()) << "experiment " << exp.number;
    EXPECT_EQ(env.environment.grid_machines(), exp.unreliable_size)
        << "experiment " << exp.number;
    const bool pure_grid =
        exp.reliable == TableVExperiment::ReliableKind::None;
    EXPECT_EQ(env.environment.cloud_machines(), pure_grid ? 0u : 20u)
        << "experiment " << exp.number;
  }
}

TEST(TableVScenarios, StrategiesValidate) {
  for (const auto& exp : table_v_experiments()) {
    const auto strategy = make_experiment_strategy(exp);
    EXPECT_NO_THROW(strategy.validate()) << "experiment " << exp.number;
    const auto& wl = workload::workload_spec(exp.workload);
    EXPECT_DOUBLE_EQ(strategy.ntdmr.timeout_t, wl.timeout_t);
    EXPECT_DOUBLE_EQ(strategy.ntdmr.deadline_d, wl.deadline_d);
    if (exp.combined()) {
      EXPECT_EQ(strategy.throughput, strategies::ThroughputPolicy::Combined);
      EXPECT_EQ(strategy.name, "CN-inf");
    }
  }
}

TEST(TableVScenarios, ExperimentElevenRunsEndToEnd) {
  // The Fig. 5-10 input scenario: WL1 on OSG with Tech reliable.
  const auto& exp = table_v_experiments()[10];
  ASSERT_EQ(exp.number, 11);
  auto cfg = make_experiment_environment(exp, 2);
  // Shrink for test speed: a fifth of the machines, a fifth of the tasks.
  auto grid = cfg.environment.pools()[0].pool;
  for (auto& g : grid.groups) g.count /= 5;
  cfg.environment =
      env::Environment::classic(grid, cfg.environment.pools()[1].pool);
  Executor ex(cfg);
  const auto& wl = workload::workload_spec(exp.workload);
  const auto bot = workload::make_synthetic_bot(
      "exp11", wl.task_count / 5, wl.mean_cpu, wl.min_cpu, wl.max_cpu, 7);
  auto strategy = make_experiment_strategy(exp);
  const auto trace = ex.run(bot, strategy);
  EXPECT_NEAR(trace.average_reliability(), exp.gamma, 0.12);
  EXPECT_GT(trace.reliable_instances_sent(), 0u);
  for (workload::TaskId t = 0; t < bot.size(); ++t) {
    ASSERT_TRUE(trace.task_completion_time(t).has_value());
  }
}

}  // namespace
}  // namespace expert::gridsim
