// EvalKey contract tests: the cache identity covers everything that
// determines an aggregated evaluation, while the RNG stream is derived
// from the stream inputs only — never the strategy (see key.hpp's
// stream-derivation contract). These are the properties the
// frontier/evolution invariance tests rely on, checked at the key level.

#include "expert/eval/key.hpp"

#include <gtest/gtest.h>

#include "expert/core/reliability.hpp"
#include "expert/core/turnaround_model.hpp"

namespace expert::eval {
namespace {

core::EstimatorConfig base_config() {
  core::EstimatorConfig cfg;
  cfg.unreliable_size = 20;
  cfg.tr = 1000.0;
  cfg.throughput_deadline = 4000.0;
  cfg.repetitions = 3;
  cfg.seed = 99;
  return cfg;
}

strategies::NTDMr base_params() {
  strategies::NTDMr p;
  p.n = 1;
  p.timeout_t = 1000.0;
  p.deadline_d = 2000.0;
  p.mr = 0.1;
  return p;
}

constexpr std::uint64_t kModelDigest = 0xD16E57ULL;

EvalKey base_key() {
  return make_eval_key(base_config(), kModelDigest, base_params(), 60, 3,
                       core::TimeObjective::TailMakespan,
                       core::CostObjective::CostPerTask);
}

TEST(EvalKey, DeterministicAcrossCalls) {
  const EvalKey a = base_key();
  const EvalKey b = base_key();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.stream(), b.stream());
}

TEST(EvalKey, StrategyFieldsMoveTheCacheKeyNotTheStream) {
  const EvalKey base = base_key();
  for (const auto& mutate :
       {+[](strategies::NTDMr& p) { p.n = 2; },
        +[](strategies::NTDMr& p) { p.n = std::nullopt; },
        +[](strategies::NTDMr& p) { p.timeout_t = 1001.0; },
        +[](strategies::NTDMr& p) { p.deadline_d = 2001.0; },
        +[](strategies::NTDMr& p) { p.mr = 0.11; }}) {
    strategies::NTDMr p = base_params();
    mutate(p);
    const EvalKey k = make_eval_key(base_config(), kModelDigest, p, 60, 3,
                                    core::TimeObjective::TailMakespan,
                                    core::CostObjective::CostPerTask);
    // Common random numbers: every strategy of a sweep draws one stream.
    EXPECT_EQ(k.stream(), base.stream());
    EXPECT_TRUE(k.hi != base.hi || k.lo != base.lo);
    EXPECT_FALSE(k == base);
  }
}

TEST(EvalKey, NInfinityDistinctFromNZero) {
  strategies::NTDMr zero = base_params();
  zero.n = 0;
  strategies::NTDMr inf = base_params();
  inf.n = std::nullopt;
  const EvalKey a = make_eval_key(base_config(), kModelDigest, zero, 60, 3,
                                  core::TimeObjective::TailMakespan,
                                  core::CostObjective::CostPerTask);
  const EvalKey b = make_eval_key(base_config(), kModelDigest, inf, 60, 3,
                                  core::TimeObjective::TailMakespan,
                                  core::CostObjective::CostPerTask);
  EXPECT_TRUE(a.hi != b.hi || a.lo != b.lo);
  EXPECT_EQ(a.stream(), b.stream());
}

TEST(EvalKey, ConfigAndWorkloadFieldsMoveTheStream) {
  const EvalKey base = base_key();
  {
    core::EstimatorConfig cfg = base_config();
    cfg.seed = 100;
    const EvalKey k = make_eval_key(cfg, kModelDigest, base_params(), 60, 3,
                                    core::TimeObjective::TailMakespan,
                                    core::CostObjective::CostPerTask);
    EXPECT_NE(k.sim, base.sim);
  }
  {
    core::EstimatorConfig cfg = base_config();
    cfg.tr = 999.0;
    const EvalKey k = make_eval_key(cfg, kModelDigest, base_params(), 60, 3,
                                    core::TimeObjective::TailMakespan,
                                    core::CostObjective::CostPerTask);
    EXPECT_NE(k.sim, base.sim);
  }
  {
    const EvalKey k =
        make_eval_key(base_config(), kModelDigest + 1, base_params(), 60, 3,
                      core::TimeObjective::TailMakespan,
                      core::CostObjective::CostPerTask);
    EXPECT_NE(k.sim, base.sim);
  }
  {
    const EvalKey k =
        make_eval_key(base_config(), kModelDigest, base_params(), 61, 3,
                      core::TimeObjective::TailMakespan,
                      core::CostObjective::CostPerTask);
    EXPECT_NE(k.sim, base.sim);
  }
}

TEST(EvalKey, ConfigRepetitionsFieldIsIgnored) {
  // Only the *effective* repetition count (the explicit argument) matters;
  // the config field is resolved by callers before keying, so two configs
  // differing only there are the same evaluation.
  core::EstimatorConfig cfg = base_config();
  cfg.repetitions = 50;
  const EvalKey k = make_eval_key(cfg, kModelDigest, base_params(), 60, 3,
                                  core::TimeObjective::TailMakespan,
                                  core::CostObjective::CostPerTask);
  EXPECT_EQ(k, base_key());
}

TEST(EvalKey, RepetitionsChangeIdentityButNotStream) {
  const EvalKey base = base_key();
  const EvalKey more =
      make_eval_key(base_config(), kModelDigest, base_params(), 60, 10,
                    core::TimeObjective::TailMakespan,
                    core::CostObjective::CostPerTask);
  EXPECT_EQ(more.sim, base.sim);  // raising repetitions appends runs
  EXPECT_TRUE(more.hi != base.hi || more.lo != base.lo);
}

TEST(EvalKey, ObjectivesChangeIdentityButNotStream) {
  const EvalKey base = base_key();
  const EvalKey bot =
      make_eval_key(base_config(), kModelDigest, base_params(), 60, 3,
                    core::TimeObjective::BotMakespan,
                    core::CostObjective::CostPerTask);
  const EvalKey tail_cost =
      make_eval_key(base_config(), kModelDigest, base_params(), 60, 3,
                    core::TimeObjective::TailMakespan,
                    core::CostObjective::TailCostPerTailTask);
  EXPECT_EQ(bot.sim, base.sim);  // objectives are post-processing only
  EXPECT_EQ(tail_cost.sim, base.sim);
  EXPECT_TRUE(bot.hi != base.hi || bot.lo != base.lo);
  EXPECT_TRUE(tail_cost.hi != base.hi || tail_cost.lo != base.lo);
}

TEST(EvalKey, ModelDigestIsContentBased) {
  // Two models built from identical inputs digest identically, regardless
  // of which object computed it; any content change moves the digest.
  const auto a = core::make_synthetic_model(1000.0, 300.0, 3200.0, 0.8);
  const auto b = core::make_synthetic_model(1000.0, 300.0, 3200.0, 0.8);
  const auto other = core::make_synthetic_model(1000.0, 300.0, 3200.0, 0.9);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_NE(a.digest(), other.digest());
}

TEST(EvalKey, ReliabilityDigestIsContentBased) {
  const core::ConstantReliability a(0.8);
  const core::ConstantReliability b(0.8);
  const core::ConstantReliability c(0.9);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_NE(a.digest(), c.digest());
}

}  // namespace
}  // namespace expert::eval
