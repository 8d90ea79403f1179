#include "expert/eval/service.hpp"

#include "expert/obs/metrics.hpp"
#include "expert/obs/tracing.hpp"
#include "expert/strategies/static_strategies.hpp"
#include "expert/util/assert.hpp"

namespace expert::eval {

namespace {

struct EvalObs {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter batches = reg.counter("eval.batch.batches");
  obs::Counter candidates = reg.counter("eval.batch.candidates");
  /// Simulated (candidate x repetition) units — cache hits spawn none.
  obs::Counter units = reg.counter("eval.batch.units");

  /// Per-consumer batch wall time. Registration is a cold-path lookup and
  /// consumers are a closed set of literals, so registering on first use
  /// per batch is fine.
  obs::Histogram batch_wall(const std::string& consumer) {
    return reg.histogram("eval.batch.wall_seconds",
                         obs::Labels{{"consumer", consumer}});
  }
};

EvalObs& eval_obs() {
  static EvalObs metrics;
  return metrics;
}

/// Completion state of one evaluate() call. Batches from concurrent callers
/// interleave on the shared pool, so each batch counts down its own units
/// instead of waiting for the whole pool to drain.
struct BatchState {
  util::Mutex mutex;
  util::CondVar done;
  std::size_t remaining EXPERT_GUARDED_BY(mutex) = 0;
  std::exception_ptr first_error EXPERT_GUARDED_BY(mutex);
};

}  // namespace

EvalService::EvalService(std::size_t cache_capacity, std::size_t pool_threads)
    : cache_(cache_capacity), pool_threads_(pool_threads) {}

EvalService::~EvalService() = default;

EvalService& EvalService::global() {
  static EvalService instance;
  return instance;
}

util::ThreadPool& EvalService::pool() {
  util::MutexLock lock(pool_mutex_);
  if (!pool_) pool_ = std::make_unique<util::ThreadPool>(pool_threads_);
  return *pool_;
}

void EvalService::run_units(std::size_t n,
                            const std::function<void(std::size_t)>& body) {
  BatchState state;
  {
    util::MutexLock lock(state.mutex);
    state.remaining = n;
  }
  util::ThreadPool& workers = pool();
  for (std::size_t i = 0; i < n; ++i) {
    workers.submit([&state, &body, i] {
      try {
        body(i);
      } catch (...) {
        util::MutexLock lock(state.mutex);
        if (!state.first_error) state.first_error = std::current_exception();
      }
      util::MutexLock lock(state.mutex);
      if (--state.remaining == 0) state.done.notify_all();
    });
  }
  std::exception_ptr error;
  {
    util::MutexLock lock(state.mutex);
    while (state.remaining > 0) state.done.wait(state.mutex);
    error = state.first_error;
  }
  if (error) std::rethrow_exception(error);
}

std::vector<EvalResult> EvalService::evaluate(
    const core::Estimator& estimator, std::size_t task_count,
    const std::vector<strategies::NTDMr>& candidates,
    const BatchOptions& options) {
  const bool observed = obs::Registry::global().enabled();
  // The span observes eval.batch.wall_seconds with its own duration.
  const obs::Histogram batch_wall =
      observed ? eval_obs().batch_wall(options.consumer) : obs::Histogram{};
  const obs::Span span("eval.batch", observed ? &batch_wall : nullptr);

  const std::size_t repetitions = options.repetitions > 0
                                      ? options.repetitions
                                      : estimator.config().repetitions;
  std::vector<EvalResult> results(candidates.size());

  // Key every candidate, serve cache hits, and collect the miss indices.
  std::vector<EvalKey> keys;
  keys.reserve(candidates.size());
  std::vector<std::size_t> misses;
  {
    EXPERT_SPAN("eval.cache");
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      keys.push_back(make_eval_key(
          estimator.config(), estimator.model().digest(), candidates[i],
          task_count, repetitions, options.time_objective,
          options.cost_objective));
      std::optional<CachedEval> cached =
          options.use_cache ? cache_.lookup(keys.back()) : std::nullopt;
      if (cached) {
        results[i].point = std::move(cached->point);
        results[i].stddev = cached->stddev;
        results[i].from_cache = true;
      } else {
        misses.push_back(i);
      }
    }
  }

  if (options.on_simulated_units) {
    options.on_simulated_units(misses.size() * repetitions);
  }
  if (!options.tenant.empty()) {
    // Lazily registered, so untenanted processes never create these series
    // and their snapshots keep the pre-tenant byte layout.
    const obs::Labels tenant_labels{{"tenant", options.tenant}};
    obs::Registry& reg = obs::Registry::global();
    reg.counter("eval.cache.tenant.hits", tenant_labels)
        .inc(candidates.size() - misses.size());
    reg.counter("eval.cache.tenant.misses", tenant_labels).inc(misses.size());
  }

  if (!misses.empty()) {
    // Every candidate shares the batch's stream (see key.hpp), so each
    // repetition's throughput phase is the same under every strategy: run
    // it once per repetition, then every (candidate x repetition) tail from
    // its snapshot. Units are flattened so a small batch with many
    // repetitions still spreads across every worker; each writes its own
    // preallocated slot and no unit observes another's output.
    std::vector<std::vector<core::RunMetrics>> runs(misses.size());
    std::vector<strategies::StrategyConfig> configs;
    configs.reserve(misses.size());
    for (std::size_t m = 0; m < misses.size(); ++m) {
      runs[m].resize(repetitions);
      configs.push_back(
          strategies::make_ntdmr_strategy(candidates[misses[m]]));
    }
    const std::uint64_t stream = keys[misses.front()].stream();
    const auto for_units = [&](std::size_t n,
                               const std::function<void(std::size_t)>& body) {
      if (options.threads == 1 || n == 1) {
        for (std::size_t u = 0; u < n; ++u) body(u);
      } else {
        run_units(n, body);
      }
    };

    std::vector<core::ThroughputSnapshot> snapshots(repetitions);
    for_units(repetitions, [&](std::size_t rep) {
      snapshots[rep] = estimator.simulate_throughput(task_count, stream, rep);
    });
    // Repetition-major, so the workers share one snapshot at a time.
    const std::size_t unit_count = misses.size() * repetitions;
    for_units(unit_count, [&](std::size_t u) {
      const std::size_t rep = u / misses.size();
      const std::size_t m = u % misses.size();
      runs[m][rep] = estimator.simulate_tail(snapshots[rep], configs[m]);
    });

    for (std::size_t m = 0; m < misses.size(); ++m) {
      const std::size_t i = misses[m];
      const core::EstimateResult est =
          core::aggregate_runs(std::move(runs[m]));
      EvalResult& out = results[i];
      out.point.params = candidates[i];
      out.point.metrics = est.mean;
      out.point.makespan = time_metric(est.mean, options.time_objective);
      out.point.cost = cost_metric(est.mean, options.cost_objective);
      out.stddev = est.stddev;
      out.from_cache = false;
      if (options.use_cache) {
        EXPERT_SPAN("eval.cache");
        cache_.insert(keys[i], CachedEval{out.point, out.stddev});
      }
    }

    if (observed) eval_obs().units.inc(unit_count);
  }

  if (observed) {
    EvalObs& m = eval_obs();
    m.batches.inc();
    m.candidates.inc(candidates.size());
  }
  return results;
}

EvalResult EvalService::evaluate_one(const core::Estimator& estimator,
                                     std::size_t task_count,
                                     const strategies::NTDMr& candidate,
                                     const BatchOptions& options) {
  BatchOptions serial = options;
  serial.threads = 1;
  return evaluate(estimator, task_count, {candidate}, serial)[0];
}

}  // namespace expert::eval
