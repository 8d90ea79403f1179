#include "expert/core/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "expert/core/characterization.hpp"
#include "expert/eval/service.hpp"
#include "expert/gridsim/executor.hpp"
#include "expert/gridsim/presets.hpp"
#include "expert/util/assert.hpp"
#include "expert/workload/presets.hpp"

namespace expert::core {
namespace {

constexpr double kMeanCpu = 1000.0;

Campaign::Backend gridsim_backend() {
  gridsim::ExecutorConfig cfg;
  cfg.environment = gridsim::env::Environment::classic(
      gridsim::make_wm(40, 0.82, kMeanCpu), gridsim::make_tech(10));
  cfg.seed = 0xCA4416;
  return [cfg](const workload::Bot& bot,
               const strategies::StrategyConfig& strategy,
               std::uint64_t stream) {
    return gridsim::Executor(cfg).run(bot, strategy, stream);
  };
}

Campaign::Options options() {
  Campaign::Options opts;
  opts.params.tur = kMeanCpu;
  opts.params.tr = kMeanCpu;
  opts.expert.repetitions = 3;
  opts.expert.sampling.n_values = {1u, 2u};
  opts.expert.sampling.d_samples = 2;
  opts.expert.sampling.t_samples = 2;
  opts.expert.sampling.mr_values = {0.05, 0.2};
  return opts;
}

workload::Bot bot(std::uint64_t seed, std::size_t tasks = 150) {
  return workload::make_synthetic_bot("bot", tasks, kMeanCpu, 400.0, 2500.0,
                                      seed);
}

TEST(Campaign, FirstBotUsesBootstrapStrategy) {
  Campaign campaign(gridsim_backend(), options());
  const auto report = campaign.run_bot(bot(1), Utility::cheapest());
  EXPECT_FALSE(report.used_recommendation);
  EXPECT_FALSE(report.predicted.has_value());
  EXPECT_EQ(report.strategy.name, "AUR");
  EXPECT_GT(report.makespan, 0.0);
  EXPECT_EQ(campaign.completed_bots(), 1u);
}

TEST(Campaign, SecondBotUsesRecommendation) {
  Campaign campaign(gridsim_backend(), options());
  campaign.run_bot(bot(1), Utility::min_cost_makespan_product());
  const auto report =
      campaign.run_bot(bot(2), Utility::min_cost_makespan_product());
  EXPECT_TRUE(report.used_recommendation);
  ASSERT_TRUE(report.predicted.has_value());
  EXPECT_GT(report.predicted->makespan, 0.0);
  EXPECT_EQ(report.strategy.tail_mode, strategies::TailMode::NTDMrTail);
}

TEST(Campaign, CustomBootstrapStrategyRespected) {
  auto opts = options();
  opts.bootstrap_strategy = strategies::make_static_strategy(
      strategies::StaticStrategyKind::CNInf, kMeanCpu, 0.25);
  Campaign campaign(gridsim_backend(), opts);
  const auto report = campaign.run_bot(bot(3), Utility::cheapest());
  EXPECT_EQ(report.strategy.name, "CN-inf");
}

TEST(Campaign, MergedHistoryConcatenates) {
  Campaign campaign(gridsim_backend(), options());
  EXPECT_FALSE(campaign.merged_history().has_value());
  campaign.run_bot(bot(4, 100), Utility::cheapest());
  campaign.run_bot(bot(5, 120), Utility::cheapest());
  const auto merged = campaign.merged_history();
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->task_count(), 220u);
  // Records from the second BoT sit after the first BoT's makespan.
  const double first_makespan = campaign.reports()[0].makespan;
  bool any_after = false;
  for (const auto& r : merged->records()) {
    if (r.send_time > first_makespan) any_after = true;
  }
  EXPECT_TRUE(any_after);
}

/// Wraps the gridsim backend and keeps a copy of every trace it returned,
/// so tests can compare the merged history against the raw per-BoT traces.
Campaign::Backend recording_backend(
    std::shared_ptr<std::vector<trace::ExecutionTrace>> captured) {
  auto real = gridsim_backend();
  return [real, captured](const workload::Bot& b,
                          const strategies::StrategyConfig& s,
                          std::uint64_t stream) {
    auto trace = real(b, s, stream);
    captured->push_back(trace);
    return trace;
  };
}

TEST(Campaign, MergedHistoryOffsetsNeverOverlap) {
  // Property: merged_history() shifts each BoT's records past everything
  // recorded before it. For every adjacent pair of BoT groups, the latest
  // send time of the earlier group must be strictly below the earliest send
  // time of the later one, and task ids must not collide across groups.
  auto captured = std::make_shared<std::vector<trace::ExecutionTrace>>();
  Campaign campaign(recording_backend(captured), options());
  for (std::uint64_t i = 0; i < 4; ++i) {
    campaign.run_bot(bot(40 + i, 60 + 20 * i), Utility::cheapest());
  }
  ASSERT_EQ(captured->size(), 4u);
  const auto merged = campaign.merged_history();
  ASSERT_TRUE(merged.has_value());

  std::size_t cursor = 0;
  double prev_group_max_send = -1.0;
  workload::TaskId prev_group_max_task = 0;
  bool first_group = true;
  for (const auto& h : *captured) {
    ASSERT_LE(cursor + h.records().size(), merged->records().size());
    double group_min_send = std::numeric_limits<double>::infinity();
    double group_max_send = -std::numeric_limits<double>::infinity();
    workload::TaskId group_min_task =
        std::numeric_limits<workload::TaskId>::max();
    workload::TaskId group_max_task = 0;
    for (std::size_t i = 0; i < h.records().size(); ++i) {
      const auto& r = merged->records()[cursor + i];
      group_min_send = std::min(group_min_send, r.send_time);
      group_max_send = std::max(group_max_send, r.send_time);
      group_min_task = std::min(group_min_task, r.task);
      group_max_task = std::max(group_max_task, r.task);
    }
    if (!first_group) {
      EXPECT_LT(prev_group_max_send, group_min_send);
      EXPECT_LT(prev_group_max_task, group_min_task);
    }
    first_group = false;
    prev_group_max_send = group_max_send;
    prev_group_max_task = group_max_task;
    cursor += h.records().size();
  }
  EXPECT_EQ(cursor, merged->records().size());
}

TEST(Campaign, MergedHistoryEqualsManualConcatenation) {
  // Property: pooling through merged_history() is exactly the documented
  // offset rule — shift each BoT's send times by the cumulative prior
  // makespans plus a one-second separator and its task ids by the prior
  // task counts. Characterizing the merged trace must therefore give the
  // content-identical model to characterizing the manual concatenation.
  auto captured = std::make_shared<std::vector<trace::ExecutionTrace>>();
  Campaign campaign(recording_backend(captured), options());
  for (std::uint64_t i = 0; i < 3; ++i) {
    campaign.run_bot(bot(50 + i, 100), Utility::cheapest());
  }
  const auto merged = campaign.merged_history();
  ASSERT_TRUE(merged.has_value());

  std::vector<trace::InstanceRecord> records;
  double offset = 0.0;
  std::size_t task_offset = 0;
  for (const auto& h : *captured) {
    for (auto r : h.records()) {
      r.send_time += offset;
      r.task += static_cast<workload::TaskId>(task_offset);
      records.push_back(r);
    }
    task_offset += h.task_count();
    offset += h.makespan() + 1.0;
  }
  const trace::ExecutionTrace manual(task_offset, std::move(records), offset,
                                     offset);

  ASSERT_EQ(merged->records().size(), manual.records().size());
  EXPECT_EQ(merged->task_count(), manual.task_count());
  EXPECT_EQ(merged->t_tail(), manual.t_tail());
  EXPECT_EQ(merged->makespan(), manual.makespan());
  for (std::size_t i = 0; i < manual.records().size(); ++i) {
    const auto& a = merged->records()[i];
    const auto& b = manual.records()[i];
    EXPECT_EQ(a.task, b.task);
    EXPECT_EQ(a.pool, b.pool);
    EXPECT_EQ(a.send_time, b.send_time);  // bitwise: same fold, same shift
    EXPECT_EQ(a.turnaround, b.turnaround);
    EXPECT_EQ(a.outcome, b.outcome);
    EXPECT_EQ(a.cost_cents, b.cost_cents);
    EXPECT_EQ(a.tail_phase, b.tail_phase);
  }

  const auto pooled = characterize(*merged);
  const auto concatenated = characterize(manual);
  EXPECT_EQ(pooled.digest(), concatenated.digest());
}

TEST(Campaign, HistoryWindowBoundsMemory) {
  auto opts = options();
  opts.history_window = 2;
  Campaign campaign(gridsim_backend(), opts);
  for (std::uint64_t i = 0; i < 4; ++i) {
    campaign.run_bot(bot(10 + i, 80), Utility::cheapest());
  }
  const auto merged = campaign.merged_history();
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->task_count(), 160u);  // only the last two BoTs retained
  EXPECT_EQ(campaign.completed_bots(), 4u);
}

TEST(Campaign, ReplanDropsSupersededModelCacheEntries) {
  eval::EvalService service;
  auto opts = options();
  opts.expert.frontier.service = &service;
  opts.expert.frontier.threads = 1;
  Campaign campaign(gridsim_backend(), opts);
  campaign.run_bot(bot(30, 80), Utility::cheapest());
  EXPECT_EQ(service.cache().stats().entries, 0u);  // bootstrap: no sweep

  campaign.run_bot(bot(31, 80), Utility::cheapest());
  const std::size_t one_sweep = service.cache().stats().entries;
  ASSERT_GT(one_sweep, 0u);

  // Every later BoT re-plans over a new model; the cache keeps only the
  // latest sweep, not a running total.
  for (std::uint64_t i = 2; i < 5; ++i) {
    campaign.run_bot(bot(30 + i, 80), Utility::cheapest());
    const auto& reports = campaign.reports();
    ASSERT_TRUE(reports[i].model_digest && reports[i - 1].model_digest);
    EXPECT_NE(*reports[i].model_digest, *reports[i - 1].model_digest);
    EXPECT_EQ(service.cache().stats().entries, one_sweep) << "after BoT " << i;
  }
  EXPECT_EQ(service.cache().stats().invalidated, 3 * one_sweep);
}

TEST(Campaign, RecommendationImprovesOnNaiveBootstrap) {
  // Realized products are single draws from a stochastic gridsim execution
  // (per-draw spread is larger than the bootstrap/informed gap), so the
  // comparison aggregates several independent campaigns instead of judging
  // one realization.
  double naive = 0.0;
  double informed = 0.0;
  for (const std::uint64_t seed : {20u, 21u, 22u, 7u}) {
    Campaign campaign(gridsim_backend(), options());
    const auto first =
        campaign.run_bot(bot(seed), Utility::min_cost_makespan_product());
    const auto second =
        campaign.run_bot(bot(seed), Utility::min_cost_makespan_product());
    EXPECT_TRUE(second.used_recommendation);
    naive += first.tail_makespan * first.cost_per_task_cents;
    informed += second.tail_makespan * second.cost_per_task_cents;
  }
  // Same BoTs, same environment family: on aggregate the informed strategy
  // must not lose to the naive bootstrap beyond the noise margin.
  EXPECT_LT(informed, naive * 1.5);
}

TEST(Campaign, FlakyBackendCompletesAfterRetry) {
  // Throws on the first two attempts, then behaves like the real backend.
  auto real = gridsim_backend();
  auto failures = std::make_shared<int>(2);
  Campaign::Backend flaky = [real, failures](
                                const workload::Bot& b,
                                const strategies::StrategyConfig& s,
                                std::uint64_t stream) {
    if (*failures > 0) {
      --*failures;
      throw std::runtime_error("injected backend failure");
    }
    return real(b, s, stream);
  };
  Campaign campaign(flaky, options());
  const auto report = campaign.run_bot(bot(30), Utility::cheapest());
  EXPECT_EQ(report.outcome, Campaign::BotOutcome::CompletedAfterRetry);
  EXPECT_EQ(report.retries, 2u);
  EXPECT_GT(report.makespan, 0.0);
  EXPECT_EQ(campaign.quarantined_bots(), 0u);
  // The successful run still feeds the history.
  EXPECT_TRUE(campaign.merged_history().has_value());
}

TEST(Campaign, DeadBackendQuarantinesAndContinues) {
  auto real = gridsim_backend();
  auto dead_calls = std::make_shared<int>(0);
  // First BoT's backend always throws; later BoTs run normally.
  Campaign::Backend sometimes_dead =
      [real, dead_calls](const workload::Bot& b,
                         const strategies::StrategyConfig& s,
                         std::uint64_t stream) {
        if (*dead_calls >= 0 && *dead_calls < 100) {
          ++*dead_calls;
          if (*dead_calls <= 3) throw std::runtime_error("backend down");
        }
        return real(b, s, stream);
      };
  auto opts = options();
  opts.max_backend_retries = 2;  // 3 attempts total — all eaten by BoT 1
  Campaign campaign(sometimes_dead, opts);

  const auto first = campaign.run_bot(bot(31), Utility::cheapest());
  EXPECT_EQ(first.outcome, Campaign::BotOutcome::Quarantined);
  EXPECT_EQ(first.retries, 3u);
  ASSERT_TRUE(first.degradation.has_value());
  EXPECT_EQ(*first.degradation, DegradationReason::BackendFailure);
  EXPECT_EQ(campaign.quarantined_bots(), 1u);
  // A quarantined BoT contributes no history.
  EXPECT_FALSE(campaign.merged_history().has_value());

  // The campaign keeps going: the next BoT runs fine.
  const auto second = campaign.run_bot(bot(32), Utility::cheapest());
  EXPECT_EQ(second.outcome, Campaign::BotOutcome::Completed);
  EXPECT_GT(second.makespan, 0.0);
  EXPECT_EQ(campaign.completed_bots(), 2u);
  EXPECT_EQ(campaign.quarantined_bots(), 1u);
  EXPECT_TRUE(campaign.merged_history().has_value());
}

TEST(Campaign, ZeroRetriesQuarantinesOnFirstFailure) {
  Campaign::Backend always_dead =
      [](const workload::Bot&, const strategies::StrategyConfig&,
         std::uint64_t) -> trace::ExecutionTrace {
    throw std::runtime_error("backend down");
  };
  auto opts = options();
  opts.max_backend_retries = 0;
  Campaign campaign(always_dead, opts);
  const auto report = campaign.run_bot(bot(33), Utility::cheapest());
  EXPECT_EQ(report.outcome, Campaign::BotOutcome::Quarantined);
  EXPECT_EQ(report.retries, 1u);
}

TEST(Campaign, OutcomeNamesAreStable) {
  EXPECT_STREQ(to_string(Campaign::BotOutcome::Completed), "completed");
  EXPECT_STREQ(to_string(Campaign::BotOutcome::CompletedAfterRetry),
               "completed_after_retry");
  EXPECT_STREQ(to_string(Campaign::BotOutcome::Quarantined), "quarantined");
}

TEST(Campaign, ReportsCarryQualityOncePrimed) {
  Campaign campaign(gridsim_backend(), options());
  const auto first = campaign.run_bot(bot(34), Utility::cheapest());
  // Bootstrap BoT: no history, so no quality survey.
  EXPECT_FALSE(first.quality.has_value());
  ASSERT_TRUE(first.degradation.has_value());
  EXPECT_EQ(*first.degradation, DegradationReason::NoHistory);
  const auto second = campaign.run_bot(bot(35), Utility::cheapest());
  ASSERT_TRUE(second.quality.has_value());
  EXPECT_GT(second.quality->unreliable_instances, 0u);
}

TEST(Campaign, RejectsBadConstruction) {
  EXPECT_THROW(Campaign(nullptr, options()), util::ContractViolation);
  auto opts = options();
  opts.history_window = 0;
  EXPECT_THROW(Campaign(gridsim_backend(), opts), util::ContractViolation);
}

}  // namespace
}  // namespace expert::core
