// Kill/resume determinism: a campaign journaled for its first k BoTs and
// resumed from the journal must produce field-identical remaining reports
// to an uninterrupted run — for k at the start, middle, and end of the
// campaign.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "expert/gridsim/executor.hpp"
#include "expert/gridsim/presets.hpp"
#include "expert/resilience/journal.hpp"
#include "expert/workload/presets.hpp"

namespace expert::resilience {
namespace {

using core::Campaign;

constexpr double kMeanCpu = 1000.0;
constexpr std::size_t kBots = 6;

Campaign::Backend backend() {
  gridsim::ExecutorConfig cfg;
  cfg.environment = gridsim::env::Environment::classic(
      gridsim::make_wm(40, 0.82, kMeanCpu), gridsim::make_tech(10));
  cfg.seed = 0x4E5;
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
  opts.history_window = 3;
  return opts;
}

workload::Bot bot(std::size_t index) {
  return workload::make_synthetic_bot("bot", 150, kMeanCpu, 400.0, 2500.0,
                                      100 + index);
}

/// Bit-exact equality over every decision-relevant report field. Doubles
/// compare with == on purpose: the journal stores hexfloats and the
/// campaign replay contract is *identical*, not merely close.
void expect_identical(const Campaign::BotReport& a,
                      const Campaign::BotReport& b, std::size_t index) {
  SCOPED_TRACE("bot " + std::to_string(index + 1));
  EXPECT_EQ(a.strategy.name, b.strategy.name);
  EXPECT_EQ(a.strategy.ntdmr.n, b.strategy.ntdmr.n);
  EXPECT_EQ(a.strategy.ntdmr.timeout_t, b.strategy.ntdmr.timeout_t);
  EXPECT_EQ(a.strategy.ntdmr.deadline_d, b.strategy.ntdmr.deadline_d);
  EXPECT_EQ(a.strategy.ntdmr.mr, b.strategy.ntdmr.mr);
  EXPECT_EQ(a.used_recommendation, b.used_recommendation);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.tail_makespan, b.tail_makespan);
  EXPECT_EQ(a.cost_per_task_cents, b.cost_per_task_cents);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.degradation, b.degradation);
  EXPECT_EQ(a.model_digest, b.model_digest);
  ASSERT_EQ(a.predicted.has_value(), b.predicted.has_value());
  if (a.predicted) {
    EXPECT_EQ(a.predicted->makespan, b.predicted->makespan);
    EXPECT_EQ(a.predicted->cost, b.predicted->cost);
  }
}

TEST(CampaignResume, KilledCampaignResumesByteIdentical) {
  // Reference: the uninterrupted run.
  std::vector<Campaign::BotReport> reference;
  {
    Campaign campaign(backend(), options());
    for (std::size_t i = 0; i < kBots; ++i) {
      campaign.run_bot(bot(i), core::Utility::min_cost_makespan_product());
    }
    reference = campaign.reports();
  }
  ASSERT_EQ(reference.size(), kBots);

  // Kill points: first BoT, mid-campaign, and one before the end.
  for (const std::size_t k : {std::size_t{1}, kBots / 2, kBots - 1}) {
    SCOPED_TRACE("killed after " + std::to_string(k) + " BoTs");
    const std::string path =
        ::testing::TempDir() + "resume_" + std::to_string(k) + ".journal";

    // Original process: journals k BoTs, then "dies" (scope exit stands in
    // for SIGKILL — every record is already durable via fsync).
    {
      auto opts = options();
      CampaignJournal journal(path, opts);
      opts.recorder = journal.recorder();
      Campaign campaign(backend(), opts);
      for (std::size_t i = 0; i < k; ++i) {
        campaign.run_bot(bot(i), core::Utility::min_cost_makespan_product());
      }
    }

    // Resumed process: fresh state, everything rebuilt from the journal.
    auto opts = options();
    auto recovered = recover_campaign(path, opts);
    ASSERT_EQ(recovered.state.reports.size(), k);
    for (std::size_t i = 0; i < k; ++i) {
      expect_identical(reference[i], recovered.state.reports[i], i);
    }
    auto journal = CampaignJournal::reopen(path, opts);
    opts.recorder = journal.recorder();
    Campaign campaign =
        Campaign::resume(backend(), opts, std::move(recovered.state));
    for (std::size_t i = k; i < kBots; ++i) {
      campaign.run_bot(bot(i), core::Utility::min_cost_makespan_product());
    }

    ASSERT_EQ(campaign.reports().size(), kBots);
    for (std::size_t i = 0; i < kBots; ++i) {
      expect_identical(reference[i], campaign.reports()[i], i);
    }

    // The reopened journal kept appending: a second resume sees all six.
    EXPECT_EQ(recover_campaign(path, options()).records.size(), kBots);
  }
}

TEST(CampaignResume, RejectsOversizedOrInvalidState) {
  Campaign::RestoredState state;
  state.next_stream = 0;  // streams start at 1
  EXPECT_ANY_THROW(Campaign::resume(backend(), options(), std::move(state)));
}

}  // namespace
}  // namespace expert::resilience
