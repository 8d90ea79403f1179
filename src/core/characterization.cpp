#include "expert/core/characterization.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "expert/core/estimator.hpp"
#include "expert/obs/tracing.hpp"
#include "expert/strategies/static_strategies.hpp"
#include "expert/util/assert.hpp"

namespace expert::core {

namespace {

using trace::InstanceOutcome;
using trace::InstanceRecord;
using trace::PoolKind;

struct Obs {
  double send = 0.0;
  double turnaround = 0.0;  ///< +inf when the instance never returned
  bool success = false;
};

std::vector<Obs> unreliable_observations(const trace::ExecutionTrace& history,
                                         double until_send_time) {
  std::vector<Obs> obs;
  for (const auto& r : history.records()) {
    if (r.pool != PoolKind::Unreliable) continue;
    if (r.outcome == InstanceOutcome::Cancelled) continue;
    if (r.send_time >= until_send_time) continue;
    obs.push_back(Obs{r.send_time, r.turnaround, r.successful()});
  }
  std::sort(obs.begin(), obs.end(),
            [](const Obs& a, const Obs& b) { return a.send < b.send; });
  return obs;
}

/// Success ratio per equal-width window of sending time over [lo, hi).
/// Empty windows are dropped.
std::vector<PiecewiseReliability::Window> success_windows(
    const std::vector<Obs>& obs, double lo, double hi, std::size_t count) {
  std::vector<PiecewiseReliability::Window> windows;
  if (hi <= lo || count == 0) return windows;
  const double width = (hi - lo) / static_cast<double>(count);
  for (std::size_t w = 0; w < count; ++w) {
    const double w_lo = lo + width * static_cast<double>(w);
    const double w_hi = w + 1 == count ? hi : w_lo + width;
    std::size_t sent = 0;
    std::size_t ok = 0;
    for (const auto& o : obs) {
      if (o.send < w_lo || o.send >= w_hi) continue;
      ++sent;
      if (o.success) ++ok;
    }
    if (sent == 0) continue;
    windows.push_back({w_lo, w_hi,
                       static_cast<double>(ok) / static_cast<double>(sent)});
  }
  return windows;
}

double mean_window_value(
    const std::vector<PiecewiseReliability::Window>& windows) {
  EXPERT_CHECK(!windows.empty(), "no reliability windows");
  double sum = 0.0;
  for (const auto& w : windows) sum += w.value;
  return sum / static_cast<double>(windows.size());
}

}  // namespace

TurnaroundModel characterize(const trace::ExecutionTrace& history,
                             const CharacterizationOptions& options) {
  const double t_tail = history.t_tail();
  EXPERT_REQUIRE(t_tail > 0.0, "history has no throughput phase");
  EXPERT_REQUIRE(options.windows_per_epoch > 0, "need at least one window");

  if (options.mode == ReliabilityMode::Offline) {
    // Full knowledge: every instance in the trace, success ratios per
    // window over the whole run.
    const auto obs = unreliable_observations(
        history, std::numeric_limits<double>::infinity());
    EXPERT_REQUIRE(!obs.empty(), "no unreliable instances in history");
    std::vector<double> turnarounds;
    for (const auto& o : obs)
      if (o.success) turnarounds.push_back(o.turnaround);
    EXPERT_REQUIRE(!turnarounds.empty(), "no successful instances in history");

    const double span_end = obs.back().send + 1.0;
    auto windows = success_windows(obs, 0.0, span_end,
                                   2 * options.windows_per_epoch);
    EXPERT_CHECK(!windows.empty(), "offline characterization found no data");
    const double tail_value = mean_window_value(windows);
    return TurnaroundModel(
        stats::EmpiricalCdf(std::move(turnarounds)),
        std::make_shared<PiecewiseReliability>(std::move(windows),
                                               tail_value));
  }

  // ---- Online mode: only information available at T_tail. ----
  const auto obs = unreliable_observations(history, t_tail);
  EXPERT_REQUIRE(!obs.empty(), "no pre-tail unreliable instances in history");

  // Successful turnarounds observable at T_tail.
  std::vector<double> observable;
  for (const auto& o : obs)
    if (o.success && o.send + o.turnaround <= t_tail)
      observable.push_back(o.turnaround);
  EXPERT_REQUIRE(!observable.empty(),
                 "no successful results observed before T_tail");

  double deadline = options.instance_deadline;
  if (deadline <= 0.0) {
    double mean_ta = 0.0;
    for (double t : observable) mean_ta += t;
    deadline = 4.0 * mean_ta / static_cast<double>(observable.size());
  }

  const double epoch1_end = std::max(0.0, t_tail - deadline);

  // Epoch 1 — full knowledge. If the throughput phase is shorter than D,
  // fall back to treating everything before T_tail as epoch 1 (the paper's
  // "combine with other sources" case degenerates to this with one trace).
  std::vector<Obs> epoch1_obs;
  std::vector<Obs> epoch2_obs;
  for (const auto& o : obs) {
    (o.send < epoch1_end ? epoch1_obs : epoch2_obs).push_back(o);
  }
  const bool degenerate = epoch1_obs.empty();
  if (degenerate) epoch1_obs = obs;

  // Fs1: CDF of successful instances of the first epoch (all resolved by
  // T_tail by construction; in the degenerate case, of observed successes).
  std::vector<double> fs1_samples;
  for (const auto& o : epoch1_obs) {
    if (!o.success) continue;
    if (o.send + o.turnaround > t_tail) continue;  // not yet observed
    fs1_samples.push_back(o.turnaround);
  }
  EXPERT_REQUIRE(!fs1_samples.empty(), "no epoch-1 successes in history");
  stats::EmpiricalCdf fs1(fs1_samples);

  auto windows = success_windows(epoch1_obs, 0.0,
                                 degenerate ? t_tail : epoch1_end,
                                 options.windows_per_epoch);
  EXPERT_CHECK(!windows.empty(), "epoch-1 windows empty");
  double epoch1_min = 1.0;
  for (const auto& w : windows) epoch1_min = std::min(epoch1_min, w.value);
  const double epoch1_mean = mean_window_value(windows);

  // Epoch 2 — partial knowledge (Eq. 2): estimate gamma from the observable
  // success fraction divided by how much of Fs1 could have been observed.
  double epoch2_mean = epoch1_mean;
  if (!degenerate && !epoch2_obs.empty()) {
    std::vector<PiecewiseReliability::Window> epoch2_windows;
    const double width =
        (t_tail - epoch1_end) / static_cast<double>(options.windows_per_epoch);
    for (std::size_t w = 0; w < options.windows_per_epoch; ++w) {
      const double w_lo = epoch1_end + width * static_cast<double>(w);
      const double w_hi =
          w + 1 == options.windows_per_epoch ? t_tail : w_lo + width;
      std::size_t sent = 0;
      std::size_t returned = 0;
      double mean_send = 0.0;
      for (const auto& o : epoch2_obs) {
        if (o.send < w_lo || o.send >= w_hi) continue;
        ++sent;
        mean_send += o.send;
        if (o.success && o.send + o.turnaround <= t_tail) ++returned;
      }
      if (sent == 0) continue;
      mean_send /= static_cast<double>(sent);
      const double horizon = t_tail - mean_send;  // t = T_tail - t'
      const double f_hat =
          static_cast<double>(returned) / static_cast<double>(sent);
      const double fs1_at = fs1.cdf(horizon);
      double g = fs1_at > 0.0 ? f_hat / fs1_at : epoch1_min;
      // Truncation per the paper: below by the minimal epoch-1 value,
      // above by 1 (resource exclusion can push reliability up).
      g = std::clamp(g, epoch1_min, 1.0);
      epoch2_windows.push_back({w_lo, w_hi, g});
    }
    if (!epoch2_windows.empty()) {
      epoch2_mean = mean_window_value(epoch2_windows);
      windows.insert(windows.end(), epoch2_windows.begin(),
                     epoch2_windows.end());
    }
  }

  // Epoch 3 — zero knowledge: equal-weight average of the two epoch means.
  const double epoch3 =
      std::clamp(0.5 * (epoch1_mean + epoch2_mean), 0.0, 1.0);

  return TurnaroundModel(
      std::move(fs1),
      std::make_shared<PiecewiseReliability>(std::move(windows), epoch3));
}

CharacterizationQuality assess_quality(const trace::ExecutionTrace& history,
                                       const CharacterizationOptions& options,
                                       const QualityThresholds& thresholds) {
  CharacterizationQuality q;
  const double t_tail = history.t_tail();
  if (t_tail <= 0.0) return q;  // nothing pre-tail, all counts stay zero

  const auto obs = unreliable_observations(history, t_tail);
  q.unreliable_instances = obs.size();
  if (obs.empty()) return q;

  std::size_t observed = 0;
  std::size_t resolved = 0;
  double mean_observable = 0.0;
  for (const auto& o : obs) {
    const bool done_by_tail = o.send + o.turnaround <= t_tail;
    if (done_by_tail) ++resolved;
    if (o.success && done_by_tail) {
      ++observed;
      mean_observable += o.turnaround;
    }
  }
  q.observed_successes = observed;
  q.censored_fraction =
      static_cast<double>(obs.size() - resolved) /
      static_cast<double>(obs.size());

  double deadline = options.instance_deadline;
  if (deadline <= 0.0 && observed > 0)
    deadline = 4.0 * mean_observable / static_cast<double>(observed);
  const double epoch1_end = std::max(0.0, t_tail - deadline);
  for (const auto& o : obs) {
    if (o.send < epoch1_end)
      ++q.epoch1_instances;
    else
      ++q.epoch2_instances;
  }

  q.sufficient = q.unreliable_instances >= thresholds.min_instances &&
                 q.observed_successes >= thresholds.min_observed_successes;
  return q;
}

CheckedCharacterization characterize_checked(
    const trace::ExecutionTrace& history,
    const CharacterizationOptions& options,
    const QualityThresholds& thresholds) {
  EXPERT_SPAN("core.characterize");
  CheckedCharacterization out;
  out.quality = assess_quality(history, options, thresholds);

  if (history.t_tail() <= 0.0) {
    out.degradation = DegradationReason::NoThroughputPhase;
    return out;
  }
  if (out.quality.unreliable_instances == 0) {
    out.degradation = DegradationReason::NoUnreliableInstances;
    return out;
  }
  if (out.quality.observed_successes == 0) {
    out.degradation = DegradationReason::NoObservedSuccesses;
    return out;
  }
  if (!out.quality.sufficient) {
    out.degradation = DegradationReason::InsufficientSamples;
    return out;
  }
  try {
    out.model = characterize(history, options);
  } catch (const std::exception&) {
    out.degradation = DegradationReason::CharacterizationError;
  }
  return out;
}

std::size_t estimate_effective_size(const trace::ExecutionTrace& history) {
  const double t_tail = history.t_tail();
  EXPERT_REQUIRE(t_tail > 0.0, "history has no throughput phase");

  // Machines are saturated during the throughput phase, so the
  // time-averaged number of concurrently assigned instances equals the
  // usable pool size. An instance occupies its machine from send until its
  // result (success) — failed instances' true occupancy is unknown to the
  // scheduler, so we count them until their last possible return (their
  // deadline is not recorded; we approximate with the maximal successful
  // turnaround, which the throughput deadline bounds).
  double max_turnaround = 0.0;
  for (const auto& r : history.records()) {
    if (r.pool == trace::PoolKind::Unreliable && r.successful())
      max_turnaround = std::max(max_turnaround, r.turnaround);
  }
  double busy = 0.0;
  for (const auto& r : history.records()) {
    if (r.pool != trace::PoolKind::Unreliable) continue;
    if (r.outcome == trace::InstanceOutcome::Cancelled) continue;
    const double hold =
        r.successful() ? r.turnaround : max_turnaround;
    const double start = std::min(r.send_time, t_tail);
    const double end = std::min(r.send_time + hold, t_tail);
    if (end > start) busy += end - start;
  }
  const auto estimate =
      static_cast<std::size_t>(std::lround(busy / t_tail));
  return std::max<std::size_t>(1, estimate);
}

std::size_t estimate_effective_size_iterative(
    const trace::ExecutionTrace& history, const TurnaroundModel& model,
    double throughput_deadline, std::uint64_t seed) {
  EXPERT_REQUIRE(throughput_deadline > 0.0,
                 "throughput deadline must be positive");
  const double t_tail = history.t_tail();
  EXPERT_REQUIRE(t_tail > 0.0, "history has no throughput phase");

  // Real throughput-phase result rate: completed tasks per second until
  // T_tail.
  const double real_rate =
      static_cast<double>(history.task_count() - history.remaining_at(t_tail)) /
      t_tail;
  EXPERT_REQUIRE(real_rate > 0.0, "no results during the throughput phase");

  const auto mean_turnaround = model.mean_successful_turnaround();
  const auto throughput_rate = [&](std::size_t pool) {
    EstimatorConfig cfg;
    cfg.unreliable_size = pool;
    cfg.tr = mean_turnaround;  // unused by AUR, must only be positive
    cfg.throughput_deadline = throughput_deadline;
    cfg.repetitions = 3;
    cfg.seed = seed;
    Estimator estimator(cfg, model);
    const auto aur = strategies::make_static_strategy(
        strategies::StaticStrategyKind::AUR, mean_turnaround, 0.0);
    const auto est = estimator.estimate(history.task_count(), aur);
    if (est.mean.t_tail <= 0.0) return std::numeric_limits<double>::infinity();
    return (static_cast<double>(history.task_count()) - est.mean.tail_tasks) /
           est.mean.t_tail;
  };

  // Result rate grows with pool size: bisect around the occupancy seed.
  std::size_t lo = 1;
  std::size_t hi = std::max<std::size_t>(4, 2 * estimate_effective_size(history));
  while (throughput_rate(hi) < real_rate && hi < 100000) hi *= 2;
  while (lo + 1 < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (throughput_rate(mid) < real_rate)
      lo = mid;
    else
      hi = mid;
  }
  return throughput_rate(lo) >= real_rate ? lo : hi;
}

}  // namespace expert::core
