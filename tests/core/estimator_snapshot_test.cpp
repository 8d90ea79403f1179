// Differential guard for the Estimator's throughput/tail split. A sweep runs
// each repetition's throughput phase once (simulate_throughput) and every
// candidate's tail from that snapshot (simulate_tail); simulate() runs the
// throughput phase under the candidate itself. Every check compares the
// two paths bit for bit, so a strategy that leaked into the shared
// throughput phase, or a resume that reordered an event, fails here.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "expert/core/estimator.hpp"
#include "expert/core/frontier.hpp"
#include "expert/eval/key.hpp"
#include "expert/eval/service.hpp"
#include "expert/strategies/static_strategies.hpp"
#include "expert/util/assert.hpp"
#include "expert/util/hash.hpp"

namespace expert::core {
namespace {

// The figure setting of paper §VI: the Experiment 11 turnaround statistics
// (T_ur = 2066 s, gamma = 0.827), Table II prices, 50 unreliable machines
// and a 150-task BoT.
constexpr double kTur = 2066.0;
constexpr std::size_t kTasks = 150;
constexpr std::uint64_t kSeed = 0x5EED2012ULL;
constexpr std::uint64_t kStream = 7;

EstimatorConfig experiment11_config() {
  auto cfg = EstimatorConfig::from_user_params(UserParams{}, 50);
  cfg.repetitions = 10;
  cfg.seed = kSeed;
  return cfg;
}

TurnaroundModel experiment11_model() {
  return make_synthetic_model(kTur, 300.0, 6000.0, 0.827, 2000, kSeed);
}

std::vector<strategies::NTDMr> paper_candidates() {
  SamplingSpec spec;
  spec.max_deadline = 4.0 * kTur;
  return sample_strategy_space(spec);
}

constexpr double RunMetrics::* kFields[] = {
    &RunMetrics::makespan,
    &RunMetrics::t_tail,
    &RunMetrics::tail_makespan,
    &RunMetrics::total_cost_cents,
    &RunMetrics::cost_per_task_cents,
    &RunMetrics::tail_cost_per_tail_task_cents,
    &RunMetrics::tail_tasks,
    &RunMetrics::reliable_instances_sent,
    &RunMetrics::unreliable_instances_sent,
    &RunMetrics::duplicate_results,
    &RunMetrics::used_mr,
    &RunMetrics::max_reliable_queue,
    &RunMetrics::max_reliable_queue_fraction,
};

/// Whether every RunMetrics field of `a` and `b` has the same bits.
bool bitwise_equal(const RunMetrics& a, const RunMetrics& b) {
  if (a.finished != b.finished) return false;
  for (auto field : kFields) {
    if (std::bit_cast<std::uint64_t>(a.*field) !=
        std::bit_cast<std::uint64_t>(b.*field)) {
      return false;
    }
  }
  return true;
}

// Digest of all 5600 tail runs below (repetition-major, candidate order,
// `finished` then kFields' bits), computed with Estimator::simulate before
// runs were split at the tail start, when every run was one engine pass.
constexpr std::uint64_t kWholeRunDigest = 0xa85cc516eb9272a7ULL;

TEST(EstimatorTailSnapshot, EveryPaperCandidateMatchesAFullSimulation) {
  const Estimator est(experiment11_config(), experiment11_model());
  const auto candidates = paper_candidates();
  ASSERT_EQ(candidates.size(), 560u);
  util::HashState digest(0x5A1DULL);
  std::size_t compared = 0;
  for (std::size_t rep = 0; rep < est.config().repetitions; ++rep) {
    const ThroughputSnapshot snap =
        est.simulate_throughput(kTasks, kStream, rep);
    ASSERT_TRUE(snap.tail_due);
    ASSERT_FALSE(snap.flow.at_start);
    ASSERT_FALSE(snap.pending.empty());
    for (const auto& candidate : candidates) {
      const auto strategy = strategies::make_ntdmr_strategy(candidate);
      ASSERT_TRUE(Estimator::shares_throughput(strategy));
      const RunMetrics tail = est.simulate_tail(snap, strategy);
      const RunMetrics full =
          est.simulate(kTasks, strategy, kStream, rep).first;
      ASSERT_TRUE(bitwise_equal(tail, full))
          << candidate.to_string() << " repetition " << rep;
      digest.mix(tail.finished);
      for (auto field : kFields) {
        digest.mix(std::bit_cast<std::uint64_t>(tail.*field));
      }
      ++compared;
    }
  }
  EXPECT_EQ(compared, 5600u);
  EXPECT_EQ(digest.digest(), kWholeRunDigest);
}

TEST(EstimatorTailSnapshot, BotThatStartsInItsTail) {
  // The tail is due once at most l_ur - 1 = 49 tasks remain, so a 30-task
  // BoT stops before its first enqueue.
  const Estimator est(experiment11_config(), experiment11_model());
  const ThroughputSnapshot snap = est.simulate_throughput(30, kStream, 0);
  ASSERT_TRUE(snap.tail_due);
  EXPECT_TRUE(snap.flow.at_start);
  EXPECT_TRUE(snap.pending.empty());
  EXPECT_EQ(snap.unreliable_sent, 0u);
  for (const auto& candidate : paper_candidates()) {
    const auto strategy = strategies::make_ntdmr_strategy(candidate);
    const RunMetrics tail = est.simulate_tail(snap, strategy);
    ASSERT_TRUE(
        bitwise_equal(tail, est.simulate(30, strategy, kStream, 0).first))
        << candidate.to_string();
    EXPECT_EQ(tail.t_tail, 0.0);
  }
}

TEST(EstimatorTailSnapshot, HorizonBeforeTheTailGivesEveryCandidateOneResult) {
  auto cfg = experiment11_config();
  cfg.max_sim_time = 3000.0;  // well before 101 of 150 tasks are done
  const Estimator est(cfg, experiment11_model());
  const ThroughputSnapshot snap = est.simulate_throughput(kTasks, kStream, 0);
  ASSERT_FALSE(snap.tail_due);
  EXPECT_FALSE(snap.metrics.finished);
  EXPECT_EQ(snap.metrics.makespan, 3000.0);
  for (const auto& candidate : paper_candidates()) {
    const auto strategy = strategies::make_ntdmr_strategy(candidate);
    const RunMetrics tail = est.simulate_tail(snap, strategy);
    ASSERT_TRUE(bitwise_equal(tail, snap.metrics)) << candidate.to_string();
    ASSERT_TRUE(
        bitwise_equal(tail, est.simulate(kTasks, strategy, kStream, 0).first))
        << candidate.to_string();
  }
}

TEST(EstimatorTailSnapshot, RunThatFinishesBeforeItsTail) {
  // One unreliable machine: the tail is due at 0 remaining tasks, i.e.
  // never; the throughput phase finishes the BoT.
  auto cfg = experiment11_config();
  cfg.unreliable_size = 1;
  const Estimator est(cfg, experiment11_model());
  const ThroughputSnapshot snap = est.simulate_throughput(20, kStream, 0);
  ASSERT_FALSE(snap.tail_due);
  EXPECT_TRUE(snap.metrics.finished);
  EXPECT_EQ(snap.metrics.tail_tasks, 0.0);
  strategies::NTDMr p;
  p.n = 1;
  p.timeout_t = kTur;
  p.deadline_d = 2.0 * kTur;
  p.mr = 1.0;
  const auto strategy = strategies::make_ntdmr_strategy(p);
  EXPECT_TRUE(bitwise_equal(est.simulate_tail(snap, strategy), snap.metrics));
  EXPECT_TRUE(bitwise_equal(est.simulate(20, strategy, kStream, 0).first,
                            snap.metrics));
  // A candidate the configuration cannot run is rejected even though the
  // run never reached its tail, as a whole run would reject it.
  p.mr = 0.0;
  EXPECT_THROW(
      (void)est.simulate_tail(snap, strategies::make_ntdmr_strategy(p)),
      util::ContractViolation);
}

TEST(EstimatorTailSnapshot, EvaluateOneMatchesFullSimulations) {
  const Estimator est(experiment11_config(), experiment11_model());
  const auto candidates = paper_candidates();
  eval::EvalService service(eval::EvalCache::kDefaultCapacity, 2);
  for (const std::size_t i :
       {std::size_t{0}, std::size_t{137}, candidates.size() - 1}) {
    const auto& candidate = candidates[i];
    const eval::EvalResult got = service.evaluate_one(est, kTasks, candidate);
    const auto key = eval::make_eval_key(
        est.config(), est.model().digest(), candidate, kTasks,
        est.config().repetitions, TimeObjective::TailMakespan,
        CostObjective::CostPerTask);
    const auto strategy = strategies::make_ntdmr_strategy(candidate);
    std::vector<RunMetrics> runs;
    for (std::size_t rep = 0; rep < est.config().repetitions; ++rep) {
      runs.push_back(est.simulate(kTasks, strategy, key.stream(), rep).first);
    }
    const EstimateResult want = aggregate_runs(std::move(runs));
    EXPECT_TRUE(bitwise_equal(got.point.metrics, want.mean))
        << candidate.to_string();
    EXPECT_TRUE(bitwise_equal(got.stddev, want.stddev))
        << candidate.to_string();
  }
}

TEST(EstimatorTailSnapshot, StaticStrategiesWithAnotherThroughputRunWhole) {
  using strategies::StaticStrategyKind;
  auto cfg = experiment11_config();
  cfg.repetitions = 3;
  const Estimator est(cfg, experiment11_model());
  for (const auto kind : strategies::kAllStaticStrategies) {
    const auto strategy = strategies::make_static_strategy(
        kind, kTur, 0.2, /*budget_cents=*/2.0 * kTasks);
    const bool shares = kind == StaticStrategyKind::TRR ||
                        kind == StaticStrategyKind::TR ||
                        kind == StaticStrategyKind::AUR;
    EXPECT_EQ(Estimator::shares_throughput(strategy), shares)
        << strategies::to_string(kind);
    if (!shares) {
      EXPECT_THROW(
          (void)est.simulate_tail(est.simulate_throughput(kTasks, kStream, 0),
                                  strategy),
          util::ContractViolation);
    }
    // estimate() keeps no trace records but runs exactly what simulate()
    // runs, whole or split.
    const EstimateResult got = est.estimate(kTasks, strategy, kStream);
    std::vector<RunMetrics> runs;
    for (std::size_t rep = 0; rep < cfg.repetitions; ++rep) {
      runs.push_back(est.simulate(kTasks, strategy, kStream, rep).first);
    }
    const EstimateResult want = aggregate_runs(std::move(runs));
    for (std::size_t rep = 0; rep < cfg.repetitions; ++rep) {
      EXPECT_TRUE(bitwise_equal(got.runs[rep], want.runs[rep]))
          << strategies::to_string(kind) << " repetition " << rep;
    }
  }
}

TEST(EstimatorTailSnapshot, BatchIsIdenticalAcrossThreadsAndCandidateOrder) {
  const Estimator est(experiment11_config(), experiment11_model());
  const auto candidates = paper_candidates();
  auto reversed = candidates;
  std::reverse(reversed.begin(), reversed.end());

  eval::EvalService service(eval::EvalCache::kDefaultCapacity, 4);
  eval::BatchOptions serial;
  serial.threads = 1;
  serial.use_cache = false;
  eval::BatchOptions pooled = serial;
  pooled.threads = 0;

  const auto inline_run = service.evaluate(est, kTasks, candidates, serial);
  const auto pool_run = service.evaluate(est, kTasks, candidates, pooled);
  const auto reversed_run = service.evaluate(est, kTasks, reversed, pooled);
  ASSERT_EQ(inline_run.size(), candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const auto& want = inline_run[i];
    const auto& other = reversed_run[candidates.size() - 1 - i];
    ASSERT_EQ(other.point.params, candidates[i]);
    EXPECT_TRUE(bitwise_equal(pool_run[i].point.metrics, want.point.metrics))
        << candidates[i].to_string();
    EXPECT_TRUE(bitwise_equal(pool_run[i].stddev, want.stddev));
    EXPECT_TRUE(bitwise_equal(other.point.metrics, want.point.metrics))
        << candidates[i].to_string();
    EXPECT_TRUE(bitwise_equal(other.stddev, want.stddev));
  }
}

}  // namespace
}  // namespace expert::core
