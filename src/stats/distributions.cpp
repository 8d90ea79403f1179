#include "expert/stats/distributions.hpp"

#include <cmath>
#include <cstddef>
#include <deque>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "expert/util/assert.hpp"
#include "expert/util/thread_safety.hpp"

namespace expert::stats {

namespace {

constexpr int kAccepted = 100'000;
constexpr std::size_t kMaxDraws = 20 * kAccepted;
// Standard normals drawn once per calibration and shared by its bisection
// steps: 1 MiB, enough for every step whose acceptance rate exceeds ~76%.
constexpr std::size_t kPrefixDraws = 131'072;
// Calibrations remembered per process. A long-lived service sees one new
// triple per tenant, so the oldest entry is evicted first once full.
constexpr std::size_t kMemoCapacity = 256;

/// The fixed-seed calibration stream, split into its first kPrefixDraws
/// standard normals and the generator state that follows them. Every
/// truncated-mean evaluation replays this one stream, so the prefix is drawn
/// once and only exp(mu + sigma * z) changes between bisection steps.
struct DrawPrefix {
  std::vector<double> z;
  util::Rng rest;
};

DrawPrefix draw_prefix() {
  // EXPERT_LINT_ALLOW(RNG001): the fixed seed is the point — this is a
  // calibration constant that must be identical across every run and user
  // seed, not a simulation stream.
  DrawPrefix prefix{{}, util::Rng(0xec0ffeeULL)};
  prefix.z.resize(kPrefixDraws);
  for (double& z : prefix.z) z = prefix.rest.normal();
  return prefix;
}

double truncated_mean(const DrawPrefix& prefix, double mu, double sigma,
                      double lo, double hi) {
  // Monte-Carlo over the fixed stream, using the same rejection scheme as
  // sample() so the calibrated mean matches what sampling produces. Inside
  // the prefix, exp(mu + sigma * z) is exactly what Rng::lognormal(mu, sigma)
  // evaluates for the same normal (so it must not be rewritten, e.g. as
  // exp(mu) * exp(sigma * z)); past it, draws continue from a copy of the
  // stream's state, so the sum is bit-identical to one pass over the stream.
  util::Rng rest = prefix.rest;
  double sum = 0.0;
  int accepted = 0;
  for (std::size_t i = 0; i < kMaxDraws && accepted < kAccepted; ++i) {
    const double x = i < kPrefixDraws ? std::exp(mu + sigma * prefix.z[i])
                                      : rest.lognormal(mu, sigma);
    if (x < lo || x > hi) continue;
    sum += x;
    ++accepted;
  }
  if (accepted == 0) {
    // Degenerate parameters: everything rejects; report the nearer bound.
    return std::exp(mu) < lo ? lo : hi;
  }
  return sum / accepted;
}

/// Process-wide memo of calibrated mu keyed by the exact (mean, lo, hi)
/// doubles. The lock is never held while calibrating: two threads missing on
/// the same key both compute the same deterministic value, and the second
/// insert is a no-op.
class CalibrationMemo {
 public:
  using Key = std::tuple<double, double, double>;

  std::optional<double> find(const Key& key) EXPERT_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    return it->second;
  }

  void insert(const Key& key, double mu) EXPERT_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    if (!entries_.emplace(key, mu).second) return;
    order_.push_back(key);
    if (order_.size() > kMemoCapacity) {
      entries_.erase(order_.front());
      order_.pop_front();
    }
  }

 private:
  util::Mutex mutex_;
  std::map<Key, double> entries_ EXPERT_GUARDED_BY(mutex_);
  std::deque<Key> order_ EXPERT_GUARDED_BY(mutex_);  // insertion order
};

CalibrationMemo& calibration_memo() {
  static CalibrationMemo memo;
  return memo;
}

}  // namespace

TruncatedLognormal::TruncatedLognormal(double mu, double sigma, double lo,
                                       double hi)
    : mu_(mu), sigma_(sigma), lo_(lo), hi_(hi) {
  EXPERT_REQUIRE(lo > 0.0, "truncation bounds must be positive");
  EXPERT_REQUIRE(hi > lo, "upper bound must exceed lower bound");
  EXPERT_REQUIRE(sigma > 0.0, "sigma must be positive");
}

TruncatedLognormal TruncatedLognormal::from_stats(double mean, double lo,
                                                  double hi) {
  EXPERT_REQUIRE(lo > 0.0 && hi > lo, "invalid [lo, hi] range");
  EXPERT_REQUIRE(mean > 0.0, "mean must be positive");
  // Observed extremes sit at roughly +-2 sigma of the log-space spread.
  const double sigma = std::log(hi / lo) / 4.0;
  const CalibrationMemo::Key key{mean, lo, hi};
  if (const auto mu = calibration_memo().find(key))
    return TruncatedLognormal(*mu, sigma, lo, hi);

  // Bisect mu so that the truncated mean matches the target. The truncated
  // mean is monotone increasing in mu.
  const DrawPrefix prefix = draw_prefix();
  double mu_lo = std::log(lo) - 2.0;
  double mu_hi = std::log(hi) + 2.0;
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = 0.5 * (mu_lo + mu_hi);
    if (truncated_mean(prefix, mid, sigma, lo, hi) < mean)
      mu_lo = mid;
    else
      mu_hi = mid;
  }
  const double mu = 0.5 * (mu_lo + mu_hi);
  calibration_memo().insert(key, mu);
  return TruncatedLognormal(mu, sigma, lo, hi);
}

double TruncatedLognormal::sample(util::Rng& rng) const {
  // Rejection sampling with a clamp fallback: calibrated parameters keep the
  // acceptance rate high, so the loop almost always exits immediately.
  for (int attempt = 0; attempt < 64; ++attempt) {
    const double x = rng.lognormal(mu_, sigma_);
    if (x >= lo_ && x <= hi_) return x;
  }
  const double x = rng.lognormal(mu_, sigma_);
  return x < lo_ ? lo_ : (x > hi_ ? hi_ : x);
}

double TruncatedLognormal::approximate_mean() const {
  return truncated_mean(draw_prefix(), mu_, sigma_, lo_, hi_);
}

TruncatedLognormal TruncatedLognormal::scaled(double factor) const {
  EXPERT_REQUIRE(factor > 0.0, "scale factor must be positive");
  return TruncatedLognormal(mu_ + std::log(factor), sigma_, lo_ * factor,
                            hi_ * factor);
}

double AvailabilityModel::up_scale() const {
  EXPERT_REQUIRE(up_shape > 0.0, "Weibull shape must be positive");
  // mean = scale * Gamma(1 + 1/shape)  =>  scale = mean / Gamma(1 + 1/shape)
  return mean_up_seconds / std::tgamma(1.0 + 1.0 / up_shape);
}

double AvailabilityModel::sample_up(util::Rng& rng) const {
  // EXPERT_LINT_ALLOW(FLT001): exact dispatch on the preset constant 1.0
  // (Weibull(1) == exponential); a tolerance would silently change which
  // sampler nearby shapes draw from and break replay of stored presets.
  if (up_shape == 1.0) return rng.exponential(1.0 / mean_up_seconds);
  return rng.weibull(up_shape, up_scale());
}

double AvailabilityModel::sample_down(util::Rng& rng) const {
  if (mean_down_seconds <= 0.0) return 0.0;
  return rng.exponential(1.0 / mean_down_seconds);
}

AvailabilityModel AvailabilityModel::from_availability(double availability,
                                                       double mean_up_seconds,
                                                       double up_shape) {
  EXPERT_REQUIRE(availability > 0.0 && availability < 1.0,
                 "availability must be in (0,1)");
  EXPERT_REQUIRE(mean_up_seconds > 0.0, "mean up-time must be positive");
  EXPERT_REQUIRE(up_shape > 0.0, "Weibull shape must be positive");
  const double mean_down =
      mean_up_seconds * (1.0 - availability) / availability;
  return AvailabilityModel{mean_up_seconds, mean_down, up_shape};
}

}  // namespace expert::stats
