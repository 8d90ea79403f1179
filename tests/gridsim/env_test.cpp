// Environment-seam tests: the golden refactor guard (classic executions are
// byte-identical to the pre-seam executor), seeded property tests for each
// pool dynamics, content-digest separation across architectures, and
// end-to-end preemption-cause attribution through the executor.

#include "expert/gridsim/env/environment.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <set>
#include <sstream>
#include <string_view>
#include <utility>

#include "expert/core/expert.hpp"
#include "expert/eval/key.hpp"
#include "expert/gridsim/env/dynamics.hpp"
#include "expert/gridsim/executor.hpp"
#include "expert/gridsim/presets.hpp"
#include "expert/gridsim/scenarios.hpp"
#include "expert/obs/metrics.hpp"
#include "expert/trace/csv_io.hpp"
#include "expert/util/hash.hpp"
#include "expert/util/money.hpp"
#include "expert/workload/presets.hpp"

namespace expert::gridsim::env {
namespace {

const TableVExperiment& experiment11() {
  for (const auto& e : table_v_experiments()) {
    if (e.number == 11) return e;
  }
  throw std::logic_error("Table V has no experiment 11");
}

std::string run_csv(const ExecutorConfig& cfg) {
  const Executor executor(cfg);
  const auto bot = workload::make_bot(experiment11().workload, 0xB07ULL);
  const auto trace =
      executor.run(bot, make_experiment_strategy(experiment11()),
                   /*stream=*/1);
  std::ostringstream csv;
  trace::write_csv(trace, csv);
  return csv.str();
}

// ---------------------------------------------------------------------------
// Golden refactor guard. The digests were pinned at the pre-refactor commit
// (tools/pin_golden recipe: experiment 11, env seed 0x601D, bot seed 0xB07,
// run stream 1; then characterize -> 150-task frontier with 3 repetitions
// and seed 0x601D5EED). A classic environment must keep reproducing them
// byte for byte: any drift in machine build order, RNG stream consumption,
// or cost arithmetic on the classic path fails here first. The frontier
// digest was re-pinned (18 points, 0x2ef993c7f501ebea) when the eval
// stream stopped depending on the strategy (common random numbers).

TEST(EnvGolden, ClassicExperiment11TraceByteIdentical) {
  const auto cfg = make_experiment_environment(experiment11(), 0x601DULL);
  const std::string csv = run_csv(cfg);
  EXPECT_EQ(csv.size(), 71953u);
  EXPECT_EQ(util::HashState(0x601DULL).mix(csv).digest(),
            0x14e2381265ec7083ULL);
}

TEST(EnvGolden, ClassicExperiment11FrontierByteIdentical) {
  const auto cfg = make_experiment_environment(experiment11(), 0x601DULL);
  const Executor executor(cfg);
  const auto bot = workload::make_bot(experiment11().workload, 0xB07ULL);
  const auto trace =
      executor.run(bot, make_experiment_strategy(experiment11()),
                   /*stream=*/1);

  core::ExpertOptions options;
  options.repetitions = 3;
  options.seed = 0x601D5EEDULL;
  const auto& wl = workload::workload_spec(experiment11().workload);
  core::UserParams params;
  params.tur = wl.mean_cpu;
  params.tr = wl.mean_cpu;
  const auto expert = core::Expert::from_history(trace, params, options);
  const auto frontier = expert.build_frontier(/*task_count=*/150);

  std::ostringstream fr;
  fr << std::hexfloat;
  for (const auto& p : frontier.frontier()) {
    fr << p.makespan << ',' << p.cost << ','
       << (p.params.n ? std::to_string(*p.params.n) : "inf") << ','
       << std::hexfloat << p.params.timeout_t << ',' << p.params.deadline_d
       << ',' << p.params.mr << '\n';
  }
  EXPECT_EQ(frontier.frontier().size(), 20u);
  EXPECT_EQ(util::HashState(0x601DULL).mix(fr.str()).digest(),
            0x5390bfac1efba53cULL);
}

// ---------------------------------------------------------------------------
// Golden replication-flow rows. The Estimator and gridsim run the same Fig. 3
// instance flow; each row pins one (backend, strategy) pair byte for byte so
// a refactor of that flow cannot silently change either backend. Estimator
// rows also pin the run's RunMetrics as hexfloats (the Fig. 10 counters
// included). The digests were computed on the pre-refactor code.

enum class GoldenBackend { Estimator, Gridsim, GridsimAdaptive, GridsimChaos };

struct GoldenRow {
  const char* name;
  GoldenBackend backend;
  strategies::StrategyConfig (*strategy)();
  std::size_t csv_size;
  std::uint64_t csv_digest;
  const char* metrics;  ///< hexfloat RunMetrics; Estimator rows only
};

// gtest would otherwise print the row as raw bytes, pointers included, and
// CTest would put those address-dependent bytes into the test's name.
void PrintTo(const GoldenRow& row, std::ostream* out) { *out << row.name; }

constexpr double kGoldenEstimatorMean = 1000.0;

double golden_gridsim_tur() {
  return workload::workload_spec(experiment11().workload).mean_cpu;
}

strategies::NTDMr golden_ntdmr(std::optional<unsigned> n, double t, double d,
                               double mr) {
  strategies::NTDMr p;
  p.n = n;
  p.timeout_t = t;
  p.deadline_d = d;
  p.mr = mr;
  return p;
}

template <strategies::StaticStrategyKind Kind>
strategies::StrategyConfig estimator_static() {
  return strategies::make_static_strategy(Kind, kGoldenEstimatorMean, 0.2,
                                          /*budget_cents=*/300.0);
}

template <strategies::StaticStrategyKind Kind>
strategies::StrategyConfig gridsim_static() {
  return strategies::make_static_strategy(Kind, golden_gridsim_tur(), 0.1,
                                          /*budget_cents=*/2500.0);
}

strategies::StrategyConfig estimator_ntdmr() {
  return strategies::make_ntdmr_strategy(
      golden_ntdmr(2, 500.0, 2000.0, 0.2));
}

// The Estimator arms a task's T check only while the instance just sent can
// still be out when the check is due. These rows pin the boundaries of that
// rule; the digests were computed with the check armed after every send.
// T == D: an unreliable timeout lands exactly on its check.
strategies::StrategyConfig estimator_ntdmr_t_eq_d() {
  return strategies::make_ntdmr_strategy(
      golden_ntdmr(2, 2000.0, 2000.0, 0.2));
}

// T == T_r: a reliable instance finishes exactly when its check is due.
strategies::StrategyConfig estimator_ntdmr_t_eq_tr() {
  return strategies::make_ntdmr_strategy(
      golden_ntdmr(1, kGoldenEstimatorMean, 2500.0, 0.2));
}

// T > T_r: every reliable instance finishes before its check is due.
strategies::StrategyConfig estimator_ntdmr_t_gt_tr() {
  return strategies::make_ntdmr_strategy(
      golden_ntdmr(1, 1500.0, 3000.0, 0.2));
}

// N = inf with T < D: a slow unreliable instance is still out at T, so its
// check is armed and replicates the task.
strategies::StrategyConfig estimator_ntdmr_ninf_t_lt_d() {
  return strategies::make_ntdmr_strategy(
      golden_ntdmr(std::nullopt, 800.0, 2400.0, 0.2));
}

strategies::StrategyConfig gridsim_ntdmr() {
  return strategies::make_ntdmr_strategy(
      golden_ntdmr(2, 1500.0, 4000.0, 0.1));
}

strategies::StrategyConfig experiment11_strategy() {
  return make_experiment_strategy(experiment11());
}

std::string hex_metrics(const core::RunMetrics& m) {
  std::ostringstream out;
  out << std::hexfloat << m.finished << ',' << m.makespan << ',' << m.t_tail
      << ',' << m.tail_makespan << ',' << m.total_cost_cents << ','
      << m.cost_per_task_cents << ',' << m.tail_cost_per_tail_task_cents
      << ',' << m.tail_tasks << ',' << m.reliable_instances_sent << ','
      << m.unreliable_instances_sent << ',' << m.duplicate_results << ','
      << m.used_mr << ',' << m.max_reliable_queue << ','
      << m.max_reliable_queue_fraction;
  return out.str();
}

std::string golden_csv(const trace::ExecutionTrace& trace) {
  std::ostringstream csv;
  trace::write_csv(trace, csv);
  return csv.str();
}

std::pair<core::RunMetrics, trace::ExecutionTrace> run_golden_estimator(
    const strategies::StrategyConfig& strategy) {
  core::EstimatorConfig cfg;
  cfg.unreliable_size = 25;
  cfg.tr = kGoldenEstimatorMean;
  cfg.throughput_deadline = 4.0 * kGoldenEstimatorMean;
  cfg.seed = 0x601D5EEDULL;
  const core::Estimator est(
      cfg, core::make_synthetic_model(kGoldenEstimatorMean, 300.0, 3200.0,
                                      0.75));
  return est.simulate(120, strategy, /*stream=*/1, /*repetition=*/0);
}

class EnvGoldenRows : public ::testing::TestWithParam<GoldenRow> {};

TEST_P(EnvGoldenRows, ByteIdentical) {
  const GoldenRow& row = GetParam();
  const auto strategy = row.strategy();
  std::string csv;
  if (row.backend == GoldenBackend::Estimator) {
    const auto [metrics, trace] = run_golden_estimator(strategy);
    EXPECT_EQ(hex_metrics(metrics), row.metrics);
    csv = golden_csv(trace);
  } else {
    auto cfg = make_experiment_environment(experiment11(), 0x601DULL);
    if (row.backend == GoldenBackend::GridsimChaos) {
      chaos::ChaosConfig plan;
      plan.dispatch_failure_prob = 0.6;
      plan.max_dispatch_retries = 2;
      plan.result_loss_prob = 0.05;
      cfg.chaos = plan;
    }
    const Executor executor(cfg);
    const auto bot = workload::make_bot(experiment11().workload, 0xB07ULL);
    if (row.backend == GoldenBackend::GridsimAdaptive) {
      // The selector's choice depends on the snapshot it is handed, so the
      // row also pins the history view at T_tail.
      const auto selector = [](const trace::ExecutionTrace& history) {
        const auto n = static_cast<unsigned>(1 + history.records().size() % 2);
        return strategies::make_ntdmr_strategy(
            golden_ntdmr(n, 1000.0, 3000.0, 0.1));
      };
      csv = golden_csv(
          executor.run_adaptive(bot, strategy, selector, /*stream=*/1));
    } else {
      csv = golden_csv(executor.run(bot, strategy, /*stream=*/1));
    }
  }
  EXPECT_EQ(csv.size(), row.csv_size);
  EXPECT_EQ(util::HashState(0x601DULL).mix(csv).digest(), row.csv_digest);
}

using strategies::StaticStrategyKind;

const GoldenRow kGoldenRows[] = {
    {"estimator_AR", GoldenBackend::Estimator,
     estimator_static<StaticStrategyKind::AR>,
     6150u, 0x0b012540d114f424ULL,
     "1,0x1.77p+14,0x1.388p+14,0x1.f4p+11,0x1.1b55555555555p+10,"
     "0x1.2e38e38e38e39p+3,0x1.f7b425ed097b8p+2,0x1.8p+4,0x1.ep+6,"
     "0x0p+0,0x0p+0,0x1.999999999999ap-3,0x1.ep+6,0x1.4p+2"},
    {"estimator_TRR", GoldenBackend::Estimator,
     estimator_static<StaticStrategyKind::TRR>,
     10898u, 0x18946d9517e0aff8ULL,
     "1,0x1.7f70dcf2890aep+13,0x1.0270dcf2890aep+13,0x1.f4p+11,"
     "0x1.7f4a61d950c86p+7,0x1.98d7dfd6bc917p+0,0x1.ac25ed097b428p+2,"
     "0x1.8p+4,0x1.1p+4,0x1.16p+7,0x1.8p+1,0x1.999999999999ap-3,"
     "0x1.8p+4,0x1p+0"},
    {"estimator_TR", GoldenBackend::Estimator,
     estimator_static<StaticStrategyKind::TR>,
     10347u, 0x299d9fd8edcf6e24ULL,
     "1,0x1.964p+13,0x1.0270dcf2890aep+13,0x1.279e461aedea4p+12,"
     "0x1.469fb72ea61dbp+7,0x1.5c6618ba4aca5p+0,0x1.6097b425ed098p+2,"
     "0x1.8p+4,0x1.cp+3,0x1.16p+7,0x0p+0,0x1.999999999999ap-3,0x1p+0,"
     "0x1.5555555555555p-5"},
    {"estimator_AUR", GoldenBackend::Estimator,
     estimator_static<StaticStrategyKind::AUR>,
     10705u, 0x91e42d17c90c9246ULL,
     "1,0x1.d735fc62df9b9p+13,0x1.0270dcf2890aep+13,"
     "0x1.a98a3ee0ad216p+12,0x1.113579be02468p+5,0x1.236c3d9779e4dp-2,"
     "0x1.053d0f8cb4871p-3,0x1.8p+4,0x0p+0,0x1.38p+7,0x0p+0,0x0p+0,"
     "0x0p+0,0x0p+0"},
    {"estimator_Budget", GoldenBackend::Estimator,
     estimator_static<StaticStrategyKind::Budget>,
     10817u, 0xb52e670b78d54786ULL,
     "1,0x1.8e307b4f2da3ap+13,0x1.0270dcf2890aep+13,"
     "0x1.177f3cb949318p+12,0x1.ec8ca8641fdbfp+7,0x1.06b16ae010fddp+1,"
     "0x1.c555555555558p+2,0x1.8p+4,0x1.7p+4,0x1.06p+7,0x1.8p+1,"
     "0x1.999999999999ap-3,0x1.cp+4,0x1.2aaaaaaaaaaabp+0"},
    {"estimator_CNInf", GoldenBackend::Estimator,
     estimator_static<StaticStrategyKind::CNInf>,
     9343u, 0xbff58745c0bf6e36ULL,
     "1,0x1.200199c43153bp+14,0x1.69f88880c344ep+12,"
     "0x1.8b06ef480104fp+13,0x1.35ecf13579be4p+8,0x1.4a96569f70cafp+1,"
     "0x1.256d9b1df623ap-3,0x1.8p+4,0x1.ep+4,0x1.dp+6,0x0p+0,"
     "0x1.999999999999ap-3,0x0p+0,0x0p+0"},
    {"estimator_CN1T0", GoldenBackend::Estimator,
     estimator_static<StaticStrategyKind::CN1T0>,
     9155u, 0xa5428bfe78e56ea3ULL,
     "1,0x1.194p+13,0x1.69f88880c344ep+12,0x1.910eeefe79764p+11,"
     "0x1.c027530eca86cp+8,0x1.de07d00fc6f62p+1,0x1.79c71c71c71c8p+2,"
     "0x1.8p+4,0x1.68p+5,0x1.94p+6,0x1p+2,0x1.999999999999ap-3,0x1.3p+4,"
     "0x1.9555555555555p-1"},
    {"estimator_NTDMr_N2", GoldenBackend::Estimator,
     estimator_ntdmr,
     11470u, 0xb315093cb61f58fbULL,
     "1,0x1.59baed14d8106p+13,0x1.0270dcf2890aep+13,"
     "0x1.5d2840893c16p+11,0x1.6560b60b60b62p+5,0x1.7d33f5617839cp-2,"
     "0x1.21c28f5c28f5cp-1,0x1.8p+4,0x1p+1,0x1.4ap+7,0x1.4p+2,"
     "0x1.47ae147ae147bp-4,0x1p+0,0x1.5555555555555p-5"},
    {"estimator_NTDMr_N2_TeqD", GoldenBackend::Estimator,
     estimator_ntdmr_t_eq_d,
     10616u, 0x596a2b0e4f3ab4caULL,
     "1,0x1.706452a524a2ep+13,0x1.0270dcf2890aep+13,"
     "0x1.b7cdd6ca6e6p+11,0x1.113579be0246ap+5,0x1.236c3d9779e4fp-2,"
     "0x1.053d0f8cb4871p-3,0x1.8p+4,0x0p+0,0x1.38p+7,0x0p+0,0x0p+0,"
     "0x0p+0,0x0p+0"},
    {"estimator_NTDMr_N1_TeqTr", GoldenBackend::Estimator,
     estimator_ntdmr_t_eq_tr,
     10768u, 0x3727c4d19d09af51ULL,
     "1,0x1.50ef8da9860bap+13,0x1.0270dcf2890aep+13,"
     "0x1.39fac2dbf403p+11,0x1.44c71c71c71c7p+6,"
     "0x1.5a6dfc3518a6ep-1,0x1.0b39a5bc7de9fp+1,0x1.8p+4,0x1.4p+2,"
     "0x1.36p+7,0x1p+2,0x1.999999999999ap-3,0x1p+0,"
     "0x1.5555555555555p-5"},
    {"estimator_NTDMr_N1_TgtTr", GoldenBackend::Estimator,
     estimator_ntdmr_t_gt_tr,
     10480u, 0x26d66f90021db351ULL,
     "1,0x1.608f8da9860bap+13,0x1.0270dcf2890aep+13,"
     "0x1.787ac2dbf403p+11,0x1.f271c71c71c72p+5,"
     "0x1.09d6480f2b9d6p-1,0x1.4cf8091a2b3c5p+0,0x1.8p+4,0x1.8p+1,"
     "0x1.36p+7,0x1p+1,0x1.eb851eb851eb8p-4,0x1p+0,"
     "0x1.5555555555555p-5"},
    {"estimator_NTDMr_NInf_TltD", GoldenBackend::Estimator,
     estimator_ntdmr_ninf_t_lt_d,
     11531u, 0x07bedac84800968bULL,
     "1,0x1.961ac36190fd5p+13,0x1.0270dcf2890aep+13,"
     "0x1.2753ccde0fe4ep+12,0x1.1c360b60b60b8p+5,"
     "0x1.2f2894ab6cd91p-2,0x1.7a987654320fdp-3,0x1.8p+4,0x0p+0,"
     "0x1.4ep+7,0x1.4p+2,0x0p+0,0x0p+0,0x0p+0"},
    {"gridsim_AR", GoldenBackend::Gridsim,
     gridsim_static<StaticStrategyKind::AR>,
     63398u, 0xc068ca4ba7ae56b9ULL, nullptr},
    {"gridsim_TRR", GoldenBackend::Gridsim,
     gridsim_static<StaticStrategyKind::TRR>,
     77367u, 0xe9201e6d4336c731ULL, nullptr},
    {"gridsim_TR", GoldenBackend::Gridsim,
     gridsim_static<StaticStrategyKind::TR>,
     70844u, 0xcd3361928046e6ffULL, nullptr},
    {"gridsim_AUR", GoldenBackend::Gridsim,
     gridsim_static<StaticStrategyKind::AUR>,
     71828u, 0x6b3f0dcda77a7a24ULL, nullptr},
    {"gridsim_Budget", GoldenBackend::Gridsim,
     gridsim_static<StaticStrategyKind::Budget>,
     75402u, 0x89eb482a46cc2168ULL, nullptr},
    {"gridsim_CNInf", GoldenBackend::Gridsim,
     gridsim_static<StaticStrategyKind::CNInf>,
     70473u, 0xc48563907607fc48ULL, nullptr},
    {"gridsim_CN1T0", GoldenBackend::Gridsim,
     gridsim_static<StaticStrategyKind::CN1T0>,
     75691u, 0xb2d2959080c183e9ULL, nullptr},
    {"gridsim_NTDMr_N2", GoldenBackend::Gridsim,
     gridsim_ntdmr,
     79948u, 0x80b48f9e58564f86ULL, nullptr},
    {"gridsim_adaptive", GoldenBackend::GridsimAdaptive,
     gridsim_static<StaticStrategyKind::AUR>,
     81369u, 0x4f1f8ab8e55927c0ULL, nullptr},
    {"gridsim_chaos", GoldenBackend::GridsimChaos,
     experiment11_strategy,
     75546u, 0x838c758359ad380eULL, nullptr},
};

INSTANTIATE_TEST_SUITE_P(EnvGolden, EnvGoldenRows,
                         ::testing::ValuesIn(kGoldenRows));

// The engine's event counts for two Estimator golden rows. The Estimator
// arms a task's T check only when the instance just sent can still be out
// when it is due, so few checks are scheduled only to be cancelled. With
// the check armed after every send these rows scheduled 336 / 344 events
// and cancelled 157 / 120 of them. The expected counts are those of one
// engine running the whole BoT. simulate() runs the throughput phase and
// the tail on two engines, and the tail's adds exactly one event: it
// schedules a resume event and replays the finishes still pending at the
// tail start outside its heap.
struct EngineCounts {
  std::uint64_t scheduled = 0;
  std::uint64_t fired = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t replayed = 0;
};

EngineCounts golden_estimator_engine_counts(
    const strategies::StrategyConfig& strategy) {
  obs::Registry& reg = obs::Registry::global();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  const auto before = reg.snapshot();
  (void)run_golden_estimator(strategy);
  const auto after = reg.snapshot();
  reg.set_enabled(was_enabled);
  const auto delta = [&](std::string_view name) {
    return after.counter_total(name) - before.counter_total(name);
  };
  return {delta("sim.engine.events_scheduled"),
          delta("sim.engine.events_fired"),
          delta("sim.engine.events_cancelled"),
          delta("sim.engine.events_replayed")};
}

TEST(EnvGoldenEngineCounts, EstimatorRowsScheduleFewDeadChecks) {
  const struct {
    const char* name;
    strategies::StrategyConfig (*strategy)();
    EngineCounts want;
  } rows[] = {
      {"estimator_AUR", estimator_static<StaticStrategyKind::AUR>,
       {180, 156, 24, 24}},
      {"estimator_NTDMr_N2", estimator_ntdmr, {204, 181, 12, 19}},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(row.name);
    const EngineCounts got = golden_estimator_engine_counts(row.strategy());
    EXPECT_EQ(got.scheduled, row.want.scheduled + 1);
    EXPECT_EQ(got.fired + got.replayed, row.want.fired + 1);
    EXPECT_EQ(got.cancelled, row.want.cancelled);
    EXPECT_EQ(got.replayed, row.want.replayed);
    // Fewer than one in five scheduled events is cancelled (47% and 35%
    // with the check armed after every send).
    EXPECT_LT(got.cancelled * 5, got.scheduled);
  }
}

// ---------------------------------------------------------------------------
// Spot-market dynamics.

TEST(SpotDynamics, OutOfBidSetMonotoneInVolatility) {
  // The shocks are volatility-free, so for bid > initial the set of
  // out-of-bid steps can only grow with volatility: every step evicted at
  // low volatility is evicted at high volatility too.
  constexpr double kHorizon = 2.0e6;
  SpotMarketDynamics low;
  SpotMarketDynamics high;
  low.volatility = 0.2;
  high.volatility = 0.6;
  const auto path_low = spot_price_path(low, kHorizon, /*stream=*/7);
  const auto path_high = spot_price_path(high, kHorizon, /*stream=*/7);
  ASSERT_EQ(path_low.size(), path_high.size());
  std::size_t evicted_low = 0;
  std::size_t evicted_high = 0;
  for (std::size_t k = 0; k < path_low.size(); ++k) {
    const bool out_low = path_low[k].rate_cents_per_s > low.bid_cents_per_s;
    const bool out_high =
        path_high[k].rate_cents_per_s > high.bid_cents_per_s;
    if (out_low) {
      EXPECT_TRUE(out_high) << "step " << k;
    }
    evicted_low += out_low ? 1 : 0;
    evicted_high += out_high ? 1 : 0;
  }
  EXPECT_GT(evicted_low, 0u);
  EXPECT_GT(evicted_high, evicted_low);

  // Same property through the window generator: total out-of-bid time is
  // monotone non-decreasing in volatility.
  double total_low = 0.0;
  for (const auto& w : spot_out_of_bid_windows(low, kHorizon, 7))
    total_low += w.end - w.start;
  double total_high = 0.0;
  for (const auto& w : spot_out_of_bid_windows(high, kHorizon, 7))
    total_high += w.end - w.start;
  EXPECT_GE(total_high, total_low);
  EXPECT_GT(total_low, 0.0);
}

TEST(SpotDynamics, WindowsCarryOutOfBidCause) {
  SpotMarketDynamics spec;
  spec.volatility = 0.6;
  for (const auto& w : spot_out_of_bid_windows(spec, 1.0e6, 3)) {
    EXPECT_EQ(w.cause, chaos::WindowCause::OutOfBid);
    EXPECT_LT(w.start, w.end);
  }
}

TEST(SpotDynamics, RateLookupIsPiecewiseConstant) {
  SpotMarketDynamics spec;
  const auto path = spot_price_path(spec, 10000.0, 1);
  ASSERT_GE(path.size(), 2u);
  EXPECT_DOUBLE_EQ(spot_rate_at(path, 0.0), path[0].rate_cents_per_s);
  EXPECT_DOUBLE_EQ(spot_rate_at(path, spec.step_s - 1.0),
                   path[0].rate_cents_per_s);
  EXPECT_DOUBLE_EQ(spot_rate_at(path, spec.step_s),
                   path[1].rate_cents_per_s);
  EXPECT_DOUBLE_EQ(spot_rate_at(path, 1.0e9),
                   path.back().rate_cents_per_s);
}

// ---------------------------------------------------------------------------
// Serverless dynamics.

TEST(ServerlessDynamics, PerMillisecondClosedFormCost) {
  // A serverless pool's machines are homogeneous speed-1 and never fail, so
  // every successful instance of a task with CPU time c must cost exactly
  // the per-ms closed form ceil(c / 1ms) * 1ms * rate.
  ServerlessDynamics spec;
  spec.max_concurrency = 8;
  spec.cold_start_mean_s = 1.0;
  Environment env("faas-only", {PoolSpec{PoolRole::Grid,
                                         make_serverless_pool("FaaS", spec),
                                         StaticDynamics{}}});
  ExecutorConfig cfg;
  cfg.environment = env;
  cfg.throughput_deadline = 4.0 * 2066.0;
  cfg.seed = 0x601DULL;
  const Executor executor(cfg);
  const auto bot =
      workload::make_synthetic_bot("b", 40, 2066.0, 300.0, 6000.0, 0xB07ULL);
  strategies::NTDMr p;
  p.n = std::nullopt;  // N = inf: grid-only, no reliable capacity needed
  p.timeout_t = 4.0 * 2066.0;
  p.deadline_d = 4.0 * 2066.0;
  p.mr = 0.0;
  const auto trace =
      executor.run(bot, strategies::make_ntdmr_strategy(p), /*stream=*/2);

  std::size_t successes = 0;
  for (const auto& r : trace.records()) {
    if (!r.successful()) continue;
    ++successes;
    const double c = bot.task(r.task).cpu_seconds;
    const double closed_form =
        std::ceil(c / 0.001) * 0.001 * spec.rate_cents_per_s;
    EXPECT_NEAR(r.cost_cents, closed_form, 1e-9);
    EXPECT_NEAR(r.cost_cents,
                util::charge_cents(c, spec.rate_cents_per_s, 0.001), 1e-12);
  }
  EXPECT_EQ(successes, bot.size());
}

// ---------------------------------------------------------------------------
// Multi-region dynamics.

TEST(MultiRegionDynamics, MatchesChaosBlackoutSchedule) {
  // Environment blackouts delegate to the chaos layer's generator, so a
  // chaos plan with equal parameters draws the identical correlated
  // windows — region by region, boundary for boundary.
  MultiRegionDynamics spec;
  chaos::ChaosConfig plan;
  plan.seed = spec.seed;
  plan.blackouts_per_group = spec.blackouts_per_region;
  plan.blackout_window_s = spec.blackout_window_s;
  plan.blackout_mean_duration_s = spec.blackout_mean_duration_s;

  const auto regions = region_blackout_windows(spec, 4, /*stream=*/5);
  const auto chaos_windows = chaos::blackout_schedule(plan, 4, /*stream=*/5);
  ASSERT_EQ(regions.size(), chaos_windows.size());
  std::size_t total = 0;
  for (std::size_t r = 0; r < regions.size(); ++r) {
    ASSERT_EQ(regions[r].size(), chaos_windows[r].size()) << "region " << r;
    for (std::size_t i = 0; i < regions[r].size(); ++i) {
      EXPECT_DOUBLE_EQ(regions[r][i].start, chaos_windows[r][i].start);
      EXPECT_DOUBLE_EQ(regions[r][i].end, chaos_windows[r][i].end);
    }
    total += regions[r].size();
  }
  EXPECT_GT(total, 0u);
}

// ---------------------------------------------------------------------------
// Volunteer dynamics.

TEST(VolunteerDynamics, DutyCycleMatchesLongRunAvailability) {
  // Alternating exponential on/off phases: across many hosts and a long
  // horizon, the off fraction concentrates at off / (on + off) = 1/3 for
  // the default 4 h on / 2 h off cycle.
  VolunteerDynamics spec;
  constexpr double kHorizon = 5.0e7;
  constexpr std::size_t kHosts = 24;
  double off_time = 0.0;
  for (std::size_t host = 0; host < kHosts; ++host) {
    const auto windows = volunteer_off_windows(spec, kHorizon, host, 3);
    EXPECT_FALSE(windows.empty());
    for (const auto& w : windows) {
      EXPECT_EQ(w.cause, chaos::WindowCause::DutyCycle);
      off_time += std::min(w.end, kHorizon) - w.start;
    }
  }
  const double expected = spec.duty_off_mean_s /
                          (spec.duty_on_mean_s + spec.duty_off_mean_s);
  EXPECT_NEAR(off_time / (kHorizon * static_cast<double>(kHosts)), expected,
              0.02);
}

TEST(VolunteerDynamics, HostsDrawIndependentPhases) {
  VolunteerDynamics spec;
  const auto a = volunteer_off_windows(spec, 1.0e6, 0, 3);
  const auto b = volunteer_off_windows(spec, 1.0e6, 1, 3);
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());
  EXPECT_NE(a.front().start, b.front().start);
}

// ---------------------------------------------------------------------------
// Content digests and eval-key separation.

TEST(EnvDigest, IdenticalPoolsDifferentDynamicsNeverShareADigest) {
  const PoolConfig grid = make_osg(20, 0.85, 2066.0);
  const PoolConfig cloud = make_tech(20);
  const std::vector<Dynamics> cloud_dynamics = {
      StaticDynamics{}, SpotMarketDynamics{}, ServerlessDynamics{}};
  const std::vector<Dynamics> grid_dynamics = {
      StaticDynamics{}, MultiRegionDynamics{}, VolunteerDynamics{}};
  std::set<std::uint64_t> digests;
  std::size_t combos = 0;
  for (const auto& gd : grid_dynamics) {
    for (const auto& cd : cloud_dynamics) {
      const Environment env("same-pools",
                            {PoolSpec{PoolRole::Grid, grid, gd},
                             PoolSpec{PoolRole::Cloud, cloud, cd}});
      digests.insert(env.digest());
      ++combos;
    }
  }
  EXPECT_EQ(digests.size(), combos);
}

TEST(EnvDigest, ParameterChangesMoveTheDigest) {
  const PoolConfig cloud = make_tech(20);
  SpotMarketDynamics base;
  SpotMarketDynamics hotter = base;
  hotter.volatility = base.volatility + 0.1;
  const Environment a("e", {PoolSpec{PoolRole::Cloud, cloud, base}});
  const Environment b("e", {PoolSpec{PoolRole::Cloud, cloud, hotter}});
  EXPECT_NE(a.digest(), b.digest());
}

TEST(EnvDigest, NameIsExcluded) {
  const PoolConfig grid = make_osg(10, 0.85, 2066.0);
  const Environment a("alpha", {PoolSpec{PoolRole::Grid, grid}});
  const Environment b("beta", {PoolSpec{PoolRole::Grid, grid}});
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(EnvDigest, ReferenceEnvironmentsPairwiseDistinct) {
  std::set<std::uint64_t> digests;
  for (const auto arch : all_architectures()) {
    digests.insert(
        make_reference_environment(arch, 50, 0.827, 2066.0).digest());
  }
  EXPECT_EQ(digests.size(), all_architectures().size());
}

TEST(EnvDigest, EvalKeySeparatesArchitectures) {
  strategies::NTDMr p;
  p.n = 1;
  p.timeout_t = 1000.0;
  p.deadline_d = 2000.0;
  p.mr = 0.1;
  core::EstimatorConfig cfg;
  const auto key_for = [&](std::uint64_t digest) {
    cfg.environment_digest = digest;
    return eval::make_eval_key(cfg, 0xD16E57ULL, p, 60, 3,
                               core::TimeObjective::TailMakespan,
                               core::CostObjective::CostPerTask);
  };
  const auto base = key_for(0);
  std::set<std::uint64_t> sims = {base.sim};
  for (const auto arch : all_architectures()) {
    const auto key = key_for(
        make_reference_environment(arch, 50, 0.827, 2066.0).digest());
    EXPECT_FALSE(key == base);
    sims.insert(key.sim);
  }
  // Zero digest (pre-seam) plus five architectures: six distinct streams.
  EXPECT_EQ(sims.size(), all_architectures().size() + 1);
}

// ---------------------------------------------------------------------------
// End-to-end cause attribution through the executor.

TEST(EnvExecutor, SpotEvictionsRecordedAsOutOfBid) {
  // Aggressive spot market: short steps and high volatility make windows
  // start mid-run almost surely, so at least one cloud instance must be
  // evicted and attributed as out_of_bid (not timeout).
  SpotMarketDynamics spot;
  spot.volatility = 0.8;
  spot.step_s = 200.0;
  auto cloud = make_tech(10);
  cloud.name = "spotty";
  const Environment env =
      EnvironmentBuilder("spot-heavy")
          .grid(make_osg(10, 0.9, 2066.0))
          .spot(cloud, spot)
          .build();
  ExecutorConfig cfg;
  cfg.environment = env;
  cfg.throughput_deadline = 4.0 * 2066.0;
  cfg.seed = 0x601DULL;
  const Executor executor(cfg);
  const auto bot =
      workload::make_synthetic_bot("b", 60, 2066.0, 300.0, 6000.0, 0xB07ULL);
  strategies::NTDMr p;
  p.n = 0;  // tail tasks escalate straight to the spot pool
  p.timeout_t = 2066.0;
  p.deadline_d = 4.0 * 2066.0;
  p.mr = 0.5;
  const auto trace =
      executor.run(bot, strategies::make_ntdmr_strategy(p), /*stream=*/1);
  std::size_t evicted = 0;
  for (const auto& r : trace.records()) {
    if (r.outcome == trace::InstanceOutcome::OutOfBid) {
      ++evicted;
      EXPECT_EQ(r.pool, trace::PoolKind::Reliable);
    }
  }
  EXPECT_GT(evicted, 0u);
}

TEST(EnvExecutor, RegionBlackoutsRecordedAsBlackout) {
  MultiRegionDynamics dyn;
  dyn.blackouts_per_region = 6;
  dyn.blackout_window_s = 30000.0;
  dyn.blackout_mean_duration_s = 4000.0;
  PoolConfig regions;
  regions.name = "regions";
  for (int r = 0; r < 4; ++r) {
    auto g = make_osg(8, 0.95, 2066.0).groups.front();
    regions.groups.push_back(g);
  }
  const Environment env = EnvironmentBuilder("regional")
                              .multi_region(regions, dyn)
                              .cloud(make_tech(5))
                              .build();
  ExecutorConfig cfg;
  cfg.environment = env;
  cfg.throughput_deadline = 4.0 * 2066.0;
  cfg.seed = 0x601DULL;
  const Executor executor(cfg);
  const auto bot =
      workload::make_synthetic_bot("b", 80, 2066.0, 300.0, 6000.0, 0xB07ULL);
  strategies::NTDMr p;
  p.n = 1;
  p.timeout_t = 2066.0;
  p.deadline_d = 4.0 * 2066.0;
  p.mr = 0.15;
  const auto trace =
      executor.run(bot, strategies::make_ntdmr_strategy(p), /*stream=*/1);
  std::size_t blackouts = 0;
  for (const auto& r : trace.records()) {
    if (r.outcome == trace::InstanceOutcome::Blackout) ++blackouts;
  }
  EXPECT_GT(blackouts, 0u);
}

TEST(EnvBuilder, RolesFollowDynamics) {
  const Environment env = EnvironmentBuilder("mix")
                              .grid(make_osg(4, 0.9, 2066.0))
                              .serverless("FaaS", ServerlessDynamics{})
                              .build();
  ASSERT_EQ(env.pools().size(), 2u);
  EXPECT_EQ(env.pools()[0].role, PoolRole::Grid);
  EXPECT_EQ(env.pools()[1].role, PoolRole::Cloud);
  EXPECT_TRUE(env.has_cloud());
  EXPECT_EQ(env.grid_machines(), 4u);
}

TEST(EnvValidate, RejectsEmptyAndCloudOnlyEnvironments) {
  EXPECT_THROW(Environment("empty", {}).validate(), std::exception);
  // At least one grid machine: the scheduler's tail trigger and Mr cap are
  // defined relative to the grid side.
  EXPECT_THROW(
      Environment("cloud-only", {PoolSpec{PoolRole::Cloud, make_tech(2)}})
          .validate(),
      std::exception);
  EXPECT_NO_THROW(
      Environment("ok", {PoolSpec{PoolRole::Grid, make_osg(2, 0.9, 2066.0)}})
          .validate());
}

}  // namespace
}  // namespace expert::gridsim::env
