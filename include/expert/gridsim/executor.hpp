#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "expert/chaos/chaos.hpp"
#include "expert/gridsim/env/environment.hpp"
#include "expert/gridsim/pool.hpp"
#include "expert/strategies/static_strategies.hpp"
#include "expert/trace/trace.hpp"
#include "expert/workload/bot.hpp"

namespace expert::gridsim {

/// Configuration of a machine-level BoT execution.
struct ExecutorConfig {
  /// The resource mix the BoT runs on: N pools with roles and per-pool
  /// dynamics. `env::Environment::classic(unreliable, reliable)` builds the
  /// paper's grid + cloud pair. An empty environment fails validate().
  env::Environment environment;
  /// Deadline of throughput-phase instances; 0 resolves to 4x the BoT's
  /// mean task CPU time (the paper's default).
  double throughput_deadline = 0.0;
  std::uint64_t seed = 0x6B1D51AULL;
  /// Hard horizon. By default a run that exceeds it returns the partial
  /// trace with `truncated()` set so callers can still characterize from
  /// it; with `strict_horizon` the pre-chaos behaviour (throw) is kept.
  double max_sim_time = 5.0e7;
  bool strict_horizon = false;
  /// Deterministic fault-injection plan (see expert::chaos). Absent or
  /// all-zero leaves the execution byte-identical to a chaos-free build.
  std::optional<chaos::ChaosConfig> chaos;
  /// Resource exclusion (Kondo et al., referenced by the paper): after a
  /// host kills this many instances, the overlay blacklists it and draws a
  /// replacement host from the same group (fresh speed and availability).
  /// 0 disables. With per-host availability heterogeneity this raises the
  /// pool's reliability over time — the gamma(t') drift the online model
  /// exists to track.
  std::size_t exclusion_threshold = 0;

  void validate() const;
};

/// Machine-level execution of a BoT under a user strategy — the stand-in
/// for the paper's real GridBoT runs on Condor/OSG/EC2. Unlike the ExPERT
/// Estimator (which works from the statistical model F(t,t')), this
/// executor simulates individual machines: heterogeneous speeds, up/down
/// availability with silent or reported failures, per-task CPU times, and
/// per-group pricing. Its traces are what ExPERT characterizes.
class Executor {
 public:
  explicit Executor(ExecutorConfig config);

  const ExecutorConfig& config() const noexcept { return config_; }

  /// Run the BoT to completion; deterministic in (config.seed, stream).
  trace::ExecutionTrace run(const workload::Bot& bot,
                            const strategies::StrategyConfig& strategy,
                            std::uint64_t stream = 0) const;

  /// Callback invoked once, at T_tail, with the history observed so far
  /// (resolved instances plus still-pending ones recorded as unreturned).
  /// Returns the strategy whose *tail behaviour* governs the rest of the
  /// run — the paper's "dynamic online selection": characterize the
  /// throughput phase of the running BoT, build the frontier, and pick the
  /// tail strategy mid-flight.
  using TailStrategySelector = std::function<strategies::StrategyConfig(
      const trace::ExecutionTrace& throughput_history)>;

  /// Like run(), but the tail strategy is chosen online by `selector`.
  /// `initial` governs the throughput phase (and the tail too, should the
  /// selector throw nothing better — the returned config replaces it).
  trace::ExecutionTrace run_adaptive(const workload::Bot& bot,
                                     const strategies::StrategyConfig& initial,
                                     const TailStrategySelector& selector,
                                     std::uint64_t stream = 0) const;

 private:
  ExecutorConfig config_;
};

/// One send-time bucket of a trace's unreliable-pool reliability: of the
/// instances sent in [lo, hi), the fraction that returned a result (the
/// empirical gamma over that window).
struct ReliabilityWindow {
  double lo = 0.0;
  double hi = 0.0;
  double gamma = 0.0;     ///< successes / sent within the window
  std::size_t sent = 0;   ///< non-cancelled unreliable instances sent
};

/// Bucket the trace's non-cancelled unreliable instances by send time into
/// windows of `window_s` seconds and report each window's empirical
/// reliability. Windows with no sends are omitted. This is the γ(t′)
/// time series the resilience drift detector watches: a pool whose
/// reliability moves between windows no longer matches a stationary
/// characterized gamma.
std::vector<ReliabilityWindow> windowed_reliability(
    const trace::ExecutionTrace& trace, double window_s);

}  // namespace expert::gridsim
