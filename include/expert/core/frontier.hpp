#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "expert/core/estimator.hpp"
#include "expert/core/objectives.hpp"
#include "expert/core/pareto.hpp"

namespace expert::eval {
class EvalService;
}  // namespace expert::eval

namespace expert::core {

/// Strategy-space sampling specification (paper §VI: N = 0..3, T and D
/// evenly sampled at 5 values each with 0 <= T <= D <= 4*T_ur, and up to 7
/// Mr values).
struct SamplingSpec {
  /// N values to sample; std::nullopt denotes N = inf.
  std::vector<std::optional<unsigned>> n_values = {0u, 1u, 2u, 3u};
  /// D is sampled at `d_samples` evenly spaced values in (0, max_deadline].
  std::size_t d_samples = 5;
  /// T is sampled at `t_samples` evenly spaced fractions of each D in
  /// [0, D].
  std::size_t t_samples = 5;
  /// Mr values to sample (ignored for N = inf, which never goes reliable).
  std::vector<double> mr_values = {0.02, 0.06, 0.10, 0.20, 0.30, 0.40, 0.50};
  /// Upper end of the deadline range (the throughput deadline, 4*T_ur).
  double max_deadline = 0.0;
  /// When true, deadline samples are packed geometrically toward the low
  /// end of the range — the paper found the frontier's knee lives there.
  bool focus_low_end = false;

  void validate() const;
};

/// Expand a SamplingSpec into the explicit list of NTDMr strategies.
/// Redundant combinations are pruned: N = 0 ignores T > D variants that
/// duplicate T = D behaviour only when identical, and N = inf takes a
/// single Mr value (the reliable pool is never used).
std::vector<strategies::NTDMr> sample_strategy_space(const SamplingSpec& spec);

struct FrontierOptions {
  TimeObjective time_objective = TimeObjective::TailMakespan;
  CostObjective cost_objective = CostObjective::CostPerTask;
  /// Worker threads for the strategy sweep: 1 evaluates inline on the
  /// calling thread, anything else uses the eval service's persistent pool.
  std::size_t threads = 0;
  /// Evaluation layer to route the sweep through; nullptr uses
  /// eval::EvalService::global(). Sweeps over an unchanged estimator and
  /// candidate are then served from its cache without re-simulating.
  eval::EvalService* service = nullptr;
  /// Consumer tag forwarded to eval::BatchOptions::consumer, labeling the
  /// batch-latency metric. Campaign re-planning overrides this so its
  /// frontier sweeps are attributable separately.
  std::string consumer = "frontier";
  /// Tenant attribution forwarded to eval::BatchOptions::tenant; empty
  /// (the default) for untenanted sweeps. Set by the campaign service so
  /// cache traffic is attributable per tenant.
  std::string tenant;
  /// Forwarded to eval::BatchOptions::on_simulated_units — the campaign
  /// service's fair-share/quota accounting hook. Excluded (like `threads`
  /// and `service`) from resilience::campaign_options_digest: it is an
  /// observer, not an input to the computed results.
  std::function<void(std::size_t)> on_simulated_units;
};

struct FrontierResult {
  std::vector<StrategyPoint> sampled;   ///< every evaluated strategy
  SParetoResult s_pareto;               ///< per-N frontiers + merged frontier
  const std::vector<StrategyPoint>& frontier() const {
    return s_pareto.merged;
  }
};

/// ExPERT process step 3: evaluate every sampled strategy with the
/// Estimator (in parallel, through expert::eval) and build the Pareto
/// frontier. Deterministic: the sweep's RNG stream is derived from the
/// evaluation content (estimator config, model digest, task count — see
/// eval::EvalKey), so results do not depend on thread count, on the
/// candidate's position in the sample list, or on cache state.
FrontierResult generate_frontier(const Estimator& estimator,
                                 std::size_t task_count,
                                 const SamplingSpec& spec,
                                 const FrontierOptions& options = {});

/// Evaluate one explicit list of NTDMr strategies (used by the Mr sweep of
/// Fig. 9 and by the evolutionary extension).
std::vector<StrategyPoint> evaluate_strategies(
    const Estimator& estimator, std::size_t task_count,
    const std::vector<strategies::NTDMr>& strategies,
    const FrontierOptions& options = {});

}  // namespace expert::core
