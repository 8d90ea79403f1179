#include "expert/core/estimator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "expert/obs/metrics.hpp"
#include "expert/obs/tracing.hpp"
#include "expert/sim/replication.hpp"
#include "expert/util/assert.hpp"

namespace expert::core {

namespace {

struct EstimatorObs {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter estimates = reg.counter("core.estimator.estimates");
  obs::Counter runs = reg.counter("core.estimator.runs");
  obs::Counter unfinished = reg.counter("core.estimator.unfinished_runs");
  obs::Counter ur_sent =
      reg.counter("core.estimator.unreliable_instances_sent");
  obs::Counter r_sent = reg.counter("core.estimator.reliable_instances_sent");
  obs::Counter duplicates = reg.counter("core.estimator.duplicate_results");
  /// Wall time of one estimate() call — one (N, T, D, Mr) strategy point.
  obs::Histogram estimate_wall =
      reg.histogram("core.estimator.estimate_wall_seconds");
};

EstimatorObs& estimator_obs() {
  static EstimatorObs metrics;
  return metrics;
}

using strategies::StrategyConfig;
using strategies::TailMode;
using strategies::ThroughputPolicy;
using trace::InstanceOutcome;
using trace::InstanceRecord;
using trace::PoolKind;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One simulated BoT execution (one Estimator repetition): the shared
/// Fig. 3 instance flow, with every instance resolved by a statistical draw
/// from the turnaround model (unreliable) or a fixed T_r (reliable).
class Run {
 public:
  Run(const EstimatorConfig& cfg, const TurnaroundModel& model,
      std::size_t task_count, const StrategyConfig& strategy, util::Rng rng)
      : cfg_(cfg),
        model_(model),
        rng_(rng),
        flow_(*this, engine_, strategy, task_count) {
    l_ur_ = cfg_.unreliable_size;
    l_r_ = static_cast<std::size_t>(
        std::ceil(strategy.ntdmr.mr * static_cast<double>(l_ur_)));
    if (strategy.throughput == ThroughputPolicy::ReliableOnly) {
      EXPERT_REQUIRE(l_r_ > 0,
                     "ReliableOnly strategy needs a non-empty reliable pool");
    }
    if ((strategy.tail_mode == TailMode::NTDMrTail ||
         strategy.tail_mode == TailMode::ReplicateAllReliable) &&
        strategy.ntdmr.n.has_value()) {
      // A finite N relies on the guaranteed (N+1)-th reliable instance;
      // users without reliable capacity are restricted to N = inf
      // (paper §III).
      EXPERT_REQUIRE(l_r_ > 0, "finite-N strategy needs reliable capacity");
    }
  }

  std::pair<RunMetrics, trace::ExecutionTrace> execute() {
    const double thr_deadline = cfg_.throughput_deadline > 0.0
                                    ? cfg_.throughput_deadline
                                    : 4.0 * model_.mean_successful_turnaround();
    flow_.start(thr_deadline, cfg_.tail_tasks_override > 0
                                  ? cfg_.tail_tasks_override
                                  : (l_ur_ > 0 ? l_ur_ - 1 : 0));
    engine_.run_until(cfg_.max_sim_time);

    const auto tasks = static_cast<double>(flow_.task_count());
    const auto tail_tasks = static_cast<double>(flow_.tail_tasks());
    RunMetrics m;
    m.finished = flow_.finished();
    m.makespan = m.finished ? flow_.completion_time() : cfg_.max_sim_time;
    m.t_tail = flow_.tail_started() ? flow_.t_tail() : m.makespan;
    m.tail_makespan = m.makespan - m.t_tail;
    m.total_cost_cents = flow_.total_cost();
    m.cost_per_task_cents = flow_.total_cost() / tasks;
    m.tail_tasks = tail_tasks;
    m.tail_cost_per_tail_task_cents =
        tail_tasks > 0.0 ? tail_cost_ / tail_tasks : 0.0;
    m.reliable_instances_sent = static_cast<double>(reliable_sent_);
    m.unreliable_instances_sent = static_cast<double>(unreliable_sent_);
    m.duplicate_results = static_cast<double>(duplicates_);
    m.used_mr = l_ur_ > 0 ? static_cast<double>(max_busy_r_) /
                                static_cast<double>(l_ur_)
                          : 0.0;
    m.max_reliable_queue = static_cast<double>(flow_.max_reliable_queue());
    m.max_reliable_queue_fraction =
        tail_tasks > 0.0 ? m.max_reliable_queue / tail_tasks : 0.0;

    trace::ExecutionTrace tr(flow_.task_count(), flow_.take_records(),
                             m.t_tail, m.makespan);
    return {m, std::move(tr)};
  }

 private:
  friend class sim::ReplicationFlow<Run>;

  // ---- ReplicationFlow host: counter-based slots, statistical sends ----

  std::optional<PoolKind> idle_slot(PoolKind pool) const {
    const bool idle = pool == PoolKind::Unreliable ? busy_ur_ < l_ur_
                                                   : busy_r_ < l_r_;
    return idle ? std::optional<PoolKind>(pool) : std::nullopt;
  }

  std::size_t reliable_limit() const { return l_r_; }

  double replication_cost_cents() const {
    return charge_cents(cfg_.tr, cfg_.cr_cents_per_s,
                        cfg_.charging_period_r_s);
  }

  void on_tail_start() {}

  void send(workload::TaskId task, PoolKind pool) {
    const double now = engine_.now();
    flow_.launched(task);
    if (pool == PoolKind::Unreliable) {
      ++busy_ur_;
      ++unreliable_sent_;
      const double deadline = flow_.rules().deadline_d;
      const double draw = model_.sample(rng_, now);
      if (draw < deadline) {
        engine_.schedule_in(draw, [this, task, now, draw] {
          on_finish(task, PoolKind::Unreliable, now, draw, true);
        });
      } else {
        engine_.schedule_in(deadline, [this, task, now] {
          on_finish(task, PoolKind::Unreliable, now, kInf, false);
        });
      }
    } else {
      ++busy_r_;
      ++reliable_sent_;
      flow_.task(task).reliable_used = true;
      max_busy_r_ = std::max(max_busy_r_, busy_r_);
      engine_.schedule_in(cfg_.tr, [this, task, now] {
        on_finish(task, PoolKind::Reliable, now, cfg_.tr, true);
      });
    }
    // The next instance is due T after this send, even while this one runs
    // (gridsim arms the check only at the tail start and after a loss).
    flow_.schedule_check(task);
  }

  void on_finish(workload::TaskId task, PoolKind pool, double send_time,
                 double turnaround, bool success) {
    if (pool == PoolKind::Unreliable) {
      EXPERT_CHECK(busy_ur_ > 0, "unreliable busy-count underflow");
      --busy_ur_;
    } else {
      EXPERT_CHECK(busy_r_ > 0, "reliable busy-count underflow");
      --busy_r_;
    }

    const bool tail_sent = flow_.in_tail(send_time);
    double cost = 0.0;
    if (success) {
      cost = pool == PoolKind::Unreliable
                 ? charge_cents(turnaround, cfg_.cur_cents_per_s,
                                cfg_.charging_period_ur_s)
                 : charge_cents(cfg_.tr, cfg_.cr_cents_per_s,
                                cfg_.charging_period_r_s);
      flow_.add_cost(cost);
      if (tail_sent) tail_cost_ += cost;
    }
    flow_.record(InstanceRecord{
        task, pool, send_time, turnaround,
        success ? InstanceOutcome::Success : InstanceOutcome::Timeout, cost,
        tail_sent});

    if (success) {
      if (!flow_.complete(task)) ++duplicates_;
    } else {
      flow_.consider_enqueue(task);
    }
    flow_.dispatch();
  }

  const EstimatorConfig& cfg_;
  const TurnaroundModel& model_;
  util::Rng rng_;

  sim::Engine engine_;
  sim::ReplicationFlow<Run> flow_;

  std::size_t l_ur_ = 0;
  std::size_t l_r_ = 0;
  std::size_t busy_ur_ = 0;
  std::size_t busy_r_ = 0;
  std::size_t max_busy_r_ = 0;
  std::size_t unreliable_sent_ = 0;
  std::size_t reliable_sent_ = 0;
  std::size_t duplicates_ = 0;
  double tail_cost_ = 0.0;
};

/// Field-wise aggregation helpers for RunMetrics.
constexpr double RunMetrics::* kMetricFields[] = {
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

}  // namespace

EstimatorConfig EstimatorConfig::from_user_params(const UserParams& params,
                                                  std::size_t unreliable_size) {
  params.validate();
  EstimatorConfig cfg;
  cfg.unreliable_size = unreliable_size;
  cfg.tr = params.tr;
  cfg.cur_cents_per_s = params.cur_cents_per_s;
  cfg.cr_cents_per_s = params.cr_cents_per_s;
  cfg.charging_period_ur_s = params.charging_period_ur_s;
  cfg.charging_period_r_s = params.charging_period_r_s;
  cfg.throughput_deadline = params.throughput_deadline();
  return cfg;
}

void EstimatorConfig::validate() const {
  EXPERT_REQUIRE(unreliable_size > 0, "need at least one unreliable machine");
  EXPERT_REQUIRE(tr > 0.0, "T_r must be positive");
  EXPERT_REQUIRE(repetitions > 0, "need at least one repetition");
  EXPERT_REQUIRE(max_sim_time > 0.0, "horizon must be positive");
}

Estimator::Estimator(EstimatorConfig config, TurnaroundModel model)
    : config_(config), model_(std::move(model)) {
  config_.validate();
}

std::pair<RunMetrics, trace::ExecutionTrace> Estimator::simulate(
    std::size_t task_count, const strategies::StrategyConfig& strategy,
    std::uint64_t stream, std::size_t repetition) const {
  EXPERT_REQUIRE(task_count > 0, "empty BoT");
  EXPERT_SPAN("estimator.simulate");
  strategy.validate();
  util::Rng rng(util::derive_seed(util::derive_seed(config_.seed, stream),
                                  repetition));
  Run run(config_, model_, task_count, strategy, rng);
  auto result = run.execute();

  // Per-run counts live here (not in estimate()) so every simulation path —
  // estimate(), the eval service's batched units, direct simulate() calls —
  // lands in the same core.estimator.* metrics.
  if (obs::Registry::global().enabled()) {
    EstimatorObs& m = estimator_obs();
    const RunMetrics& r = result.first;
    m.runs.inc();
    if (!r.finished) m.unfinished.inc();
    m.ur_sent.inc(static_cast<std::uint64_t>(r.unreliable_instances_sent));
    m.r_sent.inc(static_cast<std::uint64_t>(r.reliable_instances_sent));
    m.duplicates.inc(static_cast<std::uint64_t>(r.duplicate_results));
  }
  return result;
}

EstimateResult aggregate_runs(std::vector<RunMetrics> runs) {
  EXPERT_SPAN("estimator.aggregate");
  EXPERT_REQUIRE(!runs.empty(), "aggregate over zero runs");
  EstimateResult result;
  result.runs = std::move(runs);
  const auto n = static_cast<double>(result.runs.size());
  result.mean.finished = true;
  for (const auto& run : result.runs)
    result.mean.finished = result.mean.finished && run.finished;
  for (auto field : kMetricFields) {
    double sum = 0.0;
    for (const auto& run : result.runs) sum += run.*field;
    const double mean = sum / n;
    result.mean.*field = mean;
    double sq = 0.0;
    for (const auto& run : result.runs) {
      const double d = run.*field - mean;
      sq += d * d;
    }
    result.stddev.*field =
        result.runs.size() > 1 ? std::sqrt(sq / (n - 1.0)) : 0.0;
  }
  return result;
}

EstimateResult Estimator::estimate(std::size_t task_count,
                                   const strategies::StrategyConfig& strategy,
                                   std::uint64_t stream) const {
  const bool observed = obs::Registry::global().enabled();
  // The span observes estimate_wall_seconds with its own duration.
  const obs::Span span("estimator.estimate",
                       observed ? &estimator_obs().estimate_wall : nullptr);

  std::vector<RunMetrics> runs;
  runs.reserve(config_.repetitions);
  for (std::size_t rep = 0; rep < config_.repetitions; ++rep) {
    runs.push_back(simulate(task_count, strategy, stream, rep).first);
  }

  if (observed) estimator_obs().estimates.inc();
  return aggregate_runs(std::move(runs));
}

EstimateResult Estimator::estimate(const workload::Bot& bot,
                                   const strategies::StrategyConfig& strategy,
                                   std::uint64_t stream) const {
  return estimate(bot.size(), strategy, stream);
}

}  // namespace expert::core
