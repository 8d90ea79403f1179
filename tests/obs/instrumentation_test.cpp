// End-to-end instrumentation coverage: with the global registry enabled,
// one estimator sweep plus one machine-level gridsim execution must
// populate metrics across the engine, estimator and gridsim layers — the
// same guarantee the CLI's --metrics-out relies on. And with the tracer on,
// a journaled campaign's spans must account for its wall time.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <string_view>

#include "expert/core/campaign.hpp"
#include "expert/core/estimator.hpp"
#include "expert/core/utility.hpp"
#include "expert/gridsim/executor.hpp"
#include "expert/gridsim/scenarios.hpp"
#include "expert/obs/metrics.hpp"
#include "expert/obs/tracing.hpp"
#include "expert/resilience/journal.hpp"
#include "expert/strategies/static_strategies.hpp"
#include "expert/workload/presets.hpp"

namespace expert {
namespace {

std::size_t count_with_prefix(const obs::Snapshot& snap,
                              std::string_view prefix) {
  std::size_t n = 0;
  const auto matches = [&](const std::string& name) {
    return name.rfind(prefix, 0) == 0;
  };
  for (const auto& c : snap.counters) {
    if (matches(c.name)) ++n;
  }
  for (const auto& g : snap.gauges) {
    if (matches(g.name)) ++n;
  }
  for (const auto& h : snap.histograms) {
    if (matches(h.name)) ++n;
  }
  return n;
}

TEST(Instrumentation, OneRunPopulatesAllLayers) {
  obs::Registry& reg = obs::Registry::global();
  obs::Tracer& tracer = obs::Tracer::global();
  reg.set_enabled(true);
  tracer.set_enabled(true);
  reg.reset();
  tracer.reset();

  // Estimator layer (which drives the sim engine underneath).
  core::UserParams params;
  auto cfg = core::EstimatorConfig::from_user_params(params, /*pool=*/20);
  cfg.repetitions = 2;
  core::Estimator estimator(
      cfg, core::make_synthetic_model(2066.0, 300.0, 6000.0, 0.85));
  strategies::NTDMr p;
  p.n = 2;
  p.timeout_t = 2066.0;
  p.deadline_d = 4132.0;
  p.mr = 0.02;
  const auto est =
      estimator.estimate(20, strategies::make_ntdmr_strategy(p));
  EXPECT_GT(est.mean.makespan, 0.0);

  // Gridsim layer: machine-level execution of a Table V experiment.
  const auto& exp = gridsim::table_v_experiments().front();
  const auto bot = workload::make_bot(exp.workload, 0xB07);
  gridsim::Executor executor(gridsim::make_experiment_environment(exp, 42));
  const auto real =
      executor.run(bot, gridsim::make_experiment_strategy(exp));
  EXPECT_GT(real.makespan(), 0.0);

  const auto snap = reg.snapshot();
  EXPECT_GE(snap.size(), 10u);
  EXPECT_GE(count_with_prefix(snap, "sim.engine."), 3u);
  EXPECT_GE(count_with_prefix(snap, "core.estimator."), 3u);
  EXPECT_GE(count_with_prefix(snap, "gridsim."), 3u);

  ASSERT_NE(snap.counter("sim.engine.events_fired"), nullptr);
  EXPECT_GT(snap.counter("sim.engine.events_fired")->value, 0u);
  ASSERT_NE(snap.counter("core.estimator.runs"), nullptr);
  EXPECT_EQ(snap.counter("core.estimator.runs")->value, 2u);
  // Pool labels carry the environment's pool *names* (experiment 1 runs on
  // the WM grid), not the legacy unreliable/reliable roles.
  const obs::Labels wm_pool{{"pool", "WM"}};
  ASSERT_NE(snap.counter("gridsim.instances.sent", wm_pool), nullptr);
  EXPECT_GT(snap.counter("gridsim.instances.sent", wm_pool)->value, 0u);
  EXPECT_GT(snap.counter_total("gridsim.instances.sent"), 0u);

  // The spans around estimate() and run() landed in the tracer.
  EXPECT_GT(tracer.event_count(), 0u);

  reg.set_enabled(false);
  tracer.set_enabled(false);
}

TEST(Instrumentation, DisabledRegistryStaysEmpty) {
  obs::Registry& reg = obs::Registry::global();
  reg.set_enabled(false);
  reg.reset();

  core::UserParams params;
  auto cfg = core::EstimatorConfig::from_user_params(params, /*pool=*/10);
  cfg.repetitions = 1;
  core::Estimator estimator(
      cfg, core::make_synthetic_model(2066.0, 300.0, 6000.0, 0.85));
  strategies::NTDMr p;
  p.n = 1;
  p.timeout_t = 2066.0;
  p.deadline_d = 4132.0;
  p.mr = 0.1;
  estimator.estimate(10, strategies::make_ntdmr_strategy(p));

  for (const auto& c : reg.snapshot().counters) {
    EXPECT_EQ(c.value, 0u) << c.name;
  }
}

TEST(Instrumentation, CampaignChildSpansCoverTheRootWallTime) {
  // Shaped like `expert_cli execute --experiment 11 --bots K --journal`:
  // a bootstrap BoT, then planned BoTs, each generated, run on gridsim and
  // journaled under one root span.
  const gridsim::TableVExperiment* exp = nullptr;
  for (const auto& row : gridsim::table_v_experiments()) {
    if (row.number == 11) exp = &row;
  }
  ASSERT_NE(exp, nullptr);
  const auto& wl = workload::workload_spec(exp->workload);
  gridsim::Executor executor(gridsim::make_experiment_environment(*exp, 7));
  const core::Campaign::Backend backend =
      [&executor](const workload::Bot& bot,
                  const strategies::StrategyConfig& strategy,
                  std::uint64_t stream) {
        return executor.run(bot, strategy, stream);
      };
  core::Campaign::Options options;
  options.params.tur = wl.mean_cpu;
  options.params.tr = wl.mean_cpu;
  options.expert.repetitions = 3;
  const std::string journal_path =
      ::testing::TempDir() + "instrumentation_campaign.journal";
  resilience::CampaignJournal journal(journal_path, options);
  options.recorder = journal.recorder();

  obs::Tracer& tracer = obs::Tracer::global();
  tracer.set_enabled(true);
  tracer.reset();
  const std::uint64_t start_ns = tracer.now_ns();
  {
    EXPERT_SPAN("test.campaign");
    core::Campaign campaign(backend, options);
    for (std::uint64_t i = 0; i < 3; ++i) {
      campaign.run_bot(workload::make_bot(exp->workload, 0xB07 + i),
                       core::Utility::min_cost_makespan_product());
    }
  }
  const std::uint64_t wall_ns = tracer.now_ns() - start_ns;
  tracer.set_enabled(false);

  std::uint64_t root_self_ns = 0;
  bool planned = false;
  for (const obs::SpanTotals& row : tracer.self_times()) {
    if (row.name == "test.campaign") root_self_ns = row.self_wall_ns;
    if (row.name == "frontier.generate") planned = true;
  }
  tracer.reset();
  std::remove(journal_path.c_str());

  EXPECT_TRUE(planned) << "no BoT was planned from a frontier";
  const double root_self_ms = static_cast<double>(root_self_ns) / 1e6;
  const double wall_ms = static_cast<double>(wall_ns) / 1e6;
  EXPECT_GE(1.0 - root_self_ms / wall_ms, 0.95)
      << "root self time " << root_self_ms << " ms of " << wall_ms << " ms";
}

}  // namespace
}  // namespace expert
