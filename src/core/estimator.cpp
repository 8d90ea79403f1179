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

/// Reliable slots for `strategy` (ceil(Mr * l_ur)), once the strategy is
/// known to fit this configuration.
std::size_t reliable_slots(const EstimatorConfig& cfg,
                           const StrategyConfig& strategy) {
  const auto l_r = static_cast<std::size_t>(std::ceil(
      strategy.ntdmr.mr * static_cast<double>(cfg.unreliable_size)));
  if (strategy.throughput == ThroughputPolicy::ReliableOnly) {
    EXPERT_REQUIRE(l_r > 0,
                   "ReliableOnly strategy needs a non-empty reliable pool");
  }
  if ((strategy.tail_mode == TailMode::NTDMrTail ||
       strategy.tail_mode == TailMode::ReplicateAllReliable) &&
      strategy.ntdmr.n.has_value()) {
    // A finite N relies on the guaranteed (N+1)-th reliable instance; users
    // without reliable capacity are restricted to N = inf (paper §III).
    EXPERT_REQUIRE(l_r > 0, "finite-N strategy needs reliable capacity");
  }
  return l_r;
}

/// The strategy a shared throughput phase runs under. Before its tail the
/// flow reads only the throughput policy and, for the budget trigger, the
/// tail mode; every strategy that shares the phase agrees with this one on
/// both.
const StrategyConfig& shared_throughput_strategy() {
  static const StrategyConfig strategy = [] {
    StrategyConfig s;
    s.name = "throughput";
    s.throughput = ThroughputPolicy::UnreliableOnly;
    s.tail_mode = TailMode::Continue;
    return s;
  }();
  return strategy;
}

/// One simulated BoT execution (one Estimator repetition), or the part of
/// one before or after its tail start: the shared Fig. 3 instance flow,
/// with every instance resolved by a statistical draw from the turnaround
/// model (unreliable) or a fixed T_r (reliable).
class Run {
 public:
  using PendingFinish = ThroughputSnapshot::PendingFinish;

  /// A run from the start; start() begins it.
  Run(const EstimatorConfig& cfg, const TurnaroundModel& model,
      const StrategyConfig& strategy, util::Rng rng, std::size_t task_count)
      : cfg_(cfg),
        model_(model),
        rng_(rng),
        l_ur_(cfg.unreliable_size),
        l_r_(reliable_slots(cfg, strategy)),
        flow_(*this, engine_, strategy, task_count) {}

  /// `snap`'s run resumed at its tail start under `strategy`. The rest of
  /// the call chain the stop interrupted fires first, at t_tail, and the
  /// pending finishes are replayed behind it in their firing order, so
  /// every event keeps its (time, insertion) order relative to the others.
  /// `snap` must outlive the run.
  Run(const EstimatorConfig& cfg, const TurnaroundModel& model,
      const StrategyConfig& strategy, const ThroughputSnapshot& snap)
      : cfg_(cfg),
        model_(model),
        rng_(snap.rng),
        l_ur_(cfg.unreliable_size),
        l_r_(reliable_slots(cfg, strategy)),
        flow_(*this, engine_, strategy, snap.flow),
        busy_ur_(snap.pending.size()),
        unreliable_sent_(snap.unreliable_sent) {
    engine_.schedule_at(snap.flow.t_tail, [this] { flow_.resume_tail(); });
    std::vector<double> times;
    times.reserve(snap.pending.size());
    for (const PendingFinish& p : snap.pending) times.push_back(p.time);
    engine_.replay(std::move(times),
                   [this, pending = snap.pending.data()](std::size_t i) {
                     const PendingFinish& p = pending[i];
                     on_finish(p.task, PoolKind::Unreliable, p.send_time,
                               p.turnaround, p.success);
                   });
  }

  void keep_records(bool keep) { flow_.keep_records(keep); }

  /// Stop at the tail start (see snapshot()) instead of running the tail.
  void stop_at_tail() {
    flow_.stop_at_tail();
    out_.resize(flow_.task_count());
  }

  void start() {
    const double thr_deadline = cfg_.throughput_deadline > 0.0
                                    ? cfg_.throughput_deadline
                                    : 4.0 * model_.mean_successful_turnaround();
    flow_.start(thr_deadline, cfg_.tail_tasks_override > 0
                                  ? cfg_.tail_tasks_override
                                  : (l_ur_ > 0 ? l_ur_ - 1 : 0));
  }

  /// Run until the BoT completes or the horizon passes, or — after
  /// stop_at_tail() — until the tail is due.
  void run() { engine_.run_until(cfg_.max_sim_time); }

  /// Where a stop_at_tail() run ended: the state at its tail start, or the
  /// final metrics when it ended before the tail was due.
  ThroughputSnapshot snapshot() const {
    ThroughputSnapshot snap;
    snap.tail_due = flow_.stopped_at_tail();
    if (!snap.tail_due) {
      snap.metrics = metrics();
      return snap;
    }
    EXPERT_CHECK(busy_r_ == 0 && reliable_sent_ == 0 && duplicates_ == 0,
                 "the throughput phase used the reliable pool");
    snap.flow = flow_.snapshot();
    for (const PendingFinish& p : out_) {
      if (p.seq != 0) snap.pending.push_back(p);
    }
    // Firing order: (time, filing order), as the engine would pop them.
    std::sort(snap.pending.begin(), snap.pending.end(),
              [](const PendingFinish& a, const PendingFinish& b) {
                return a.time != b.time ? a.time < b.time : a.seq < b.seq;
              });
    EXPERT_CHECK(snap.pending.size() == busy_ur_,
                 "unreliable busy count disagrees with pending finishes");
    snap.rng = rng_;
    snap.unreliable_sent = unreliable_sent_;
    return snap;
  }

  RunMetrics metrics() const {
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
    return m;
  }

  std::vector<InstanceRecord> take_records() { return flow_.take_records(); }

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
    // How long this instance stays out: the engine files its finish event
    // at exactly now + out.
    double out = cfg_.tr;
    if (pool == PoolKind::Unreliable) {
      ++busy_ur_;
      ++unreliable_sent_;
      const double deadline = flow_.rules().deadline_d;
      const double draw = model_.sample(rng_, now);
      const bool success = draw < deadline;
      out = success ? draw : deadline;
      const double turnaround = success ? draw : kInf;
      engine_.schedule_in(out, [this, task, now, turnaround, success] {
        on_finish(task, PoolKind::Unreliable, now, turnaround, success);
      });
      if (!out_.empty()) {
        // Throughput phase of a split run: remember the finish, in filing
        // order, in case it is still pending at the tail start.
        EXPERT_CHECK(out_[task].seq == 0, "two unreliable instances out");
        out_[task] = PendingFinish{now + out, ++out_seq_, task, now,
                                   turnaround, success};
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
    // (gridsim arms the check only at the tail start and after a loss). The
    // check can act only if this instance is still out when it is due: a
    // success at or before then completes the task, a timeout re-arms the
    // check through consider_enqueue, and at equal times the finish fires
    // first (it was scheduled first). So it is armed only on a strict `>`;
    // otherwise the earlier check is cancelled, as schedule_check would.
    auto& st = flow_.task(task);
    if (now + out > st.last_send + flow_.rules().timeout_t) {
      flow_.schedule_check(task);
    } else {
      st.check.cancel();
    }
  }

  void on_finish(workload::TaskId task, PoolKind pool, double send_time,
                 double turnaround, bool success) {
    if (pool == PoolKind::Unreliable) {
      EXPERT_CHECK(busy_ur_ > 0, "unreliable busy-count underflow");
      --busy_ur_;
      if (!out_.empty()) out_[task].seq = 0;
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
  const std::size_t l_ur_;
  const std::size_t l_r_;

  sim::Engine engine_;
  sim::ReplicationFlow<Run> flow_;

  std::size_t busy_ur_ = 0;
  std::size_t busy_r_ = 0;
  std::size_t max_busy_r_ = 0;
  std::size_t unreliable_sent_ = 0;
  std::size_t reliable_sent_ = 0;
  std::size_t duplicates_ = 0;
  double tail_cost_ = 0.0;
  /// Per task, its unreliable instance still out (seq 0: none); tracked
  /// only by a run that stops at its tail start.
  std::vector<PendingFinish> out_;
  std::uint64_t out_seq_ = 0;
};

/// Run `snap`'s tail under `strategy`, appending its trace records to
/// `records` when given.
RunMetrics run_tail(const EstimatorConfig& cfg, const TurnaroundModel& model,
                    const ThroughputSnapshot& snap,
                    const StrategyConfig& strategy,
                    std::vector<InstanceRecord>* records) {
  if (!snap.tail_due) {
    // Reject a strategy this configuration cannot run, as a whole run would.
    (void)reliable_slots(cfg, strategy);
    return snap.metrics;
  }
  Run run(cfg, model, strategy, snap);
  run.keep_records(records != nullptr);
  run.run();
  if (records != nullptr) {
    auto tail = run.take_records();
    records->insert(records->end(), tail.begin(), tail.end());
  }
  return run.metrics();
}

/// Run the throughput phase of a strategy that shares it up to the tail
/// start, keeping its trace records in `records` when given.
ThroughputSnapshot run_throughput(const EstimatorConfig& cfg,
                                  const TurnaroundModel& model,
                                  const StrategyConfig& strategy,
                                  std::size_t task_count, util::Rng rng,
                                  std::vector<InstanceRecord>* records) {
  Run run(cfg, model, strategy, rng, task_count);
  run.keep_records(records != nullptr);
  run.stop_at_tail();
  run.start();
  run.run();
  if (records != nullptr) *records = run.take_records();
  return run.snapshot();
}

/// One repetition under `strategy`: the throughput phase then the tail when
/// the strategy shares it, else one whole run. Keeps the run's trace
/// records in `records` when given.
RunMetrics run_repetition(const EstimatorConfig& cfg,
                          const TurnaroundModel& model, std::size_t task_count,
                          const StrategyConfig& strategy, util::Rng rng,
                          std::vector<InstanceRecord>* records) {
  if (Estimator::shares_throughput(strategy)) {
    const ThroughputSnapshot snap =
        run_throughput(cfg, model, strategy, task_count, rng, records);
    return run_tail(cfg, model, snap, strategy, records);
  }
  Run run(cfg, model, strategy, rng, task_count);
  run.keep_records(records != nullptr);
  run.start();
  run.run();
  if (records != nullptr) *records = run.take_records();
  return run.metrics();
}

/// Per-run counts land here (not in estimate()) so every simulation path —
/// estimate(), the eval service's tail units, direct simulate() calls —
/// lands in the same core.estimator.* metrics.
void count_run(const RunMetrics& r) {
  if (!obs::Registry::global().enabled()) return;
  EstimatorObs& m = estimator_obs();
  m.runs.inc();
  if (!r.finished) m.unfinished.inc();
  m.ur_sent.inc(static_cast<std::uint64_t>(r.unreliable_instances_sent));
  m.r_sent.inc(static_cast<std::uint64_t>(r.reliable_instances_sent));
  m.duplicates.inc(static_cast<std::uint64_t>(r.duplicate_results));
}

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

util::Rng Estimator::repetition_rng(std::uint64_t stream,
                                   std::size_t repetition) const {
  return util::Rng(util::derive_seed(util::derive_seed(config_.seed, stream),
                                     repetition));
}

std::pair<RunMetrics, trace::ExecutionTrace> Estimator::simulate(
    std::size_t task_count, const strategies::StrategyConfig& strategy,
    std::uint64_t stream, std::size_t repetition) const {
  EXPERT_REQUIRE(task_count > 0, "empty BoT");
  EXPERT_SPAN("estimator.simulate");
  strategy.validate();
  std::vector<InstanceRecord> records;
  const RunMetrics m =
      run_repetition(config_, model_, task_count, strategy,
                     repetition_rng(stream, repetition), &records);
  count_run(m);
  return {m, trace::ExecutionTrace(task_count, std::move(records), m.t_tail,
                                   m.makespan)};
}

bool Estimator::shares_throughput(const strategies::StrategyConfig& strategy) {
  return strategy.throughput == ThroughputPolicy::UnreliableOnly &&
         strategy.tail_mode != TailMode::BudgetTriggered;
}

ThroughputSnapshot Estimator::simulate_throughput(
    std::size_t task_count, std::uint64_t stream,
    std::size_t repetition) const {
  EXPERT_REQUIRE(task_count > 0, "empty BoT");
  EXPERT_SPAN("estimator.throughput");
  return run_throughput(config_, model_, shared_throughput_strategy(),
                        task_count, repetition_rng(stream, repetition),
                        nullptr);
}

RunMetrics Estimator::simulate_tail(
    const ThroughputSnapshot& snapshot,
    const strategies::StrategyConfig& strategy) const {
  EXPERT_SPAN("estimator.tail");
  strategy.validate();
  EXPERT_REQUIRE(shares_throughput(strategy),
                 "strategy does not share the throughput phase");
  const RunMetrics m = run_tail(config_, model_, snapshot, strategy, nullptr);
  count_run(m);
  return m;
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

  EXPERT_REQUIRE(task_count > 0, "empty BoT");
  strategy.validate();
  std::vector<RunMetrics> runs;
  runs.reserve(config_.repetitions);
  for (std::size_t rep = 0; rep < config_.repetitions; ++rep) {
    runs.push_back(run_repetition(config_, model_, task_count, strategy,
                                  repetition_rng(stream, rep), nullptr));
    count_run(runs.back());
  }

  if (observed) estimator_obs().estimates.inc();
  return aggregate_runs(std::move(runs));
}

EstimateResult Estimator::estimate(const workload::Bot& bot,
                                   const strategies::StrategyConfig& strategy,
                                   std::uint64_t stream) const {
  return estimate(bot.size(), strategy, stream);
}

std::variant<EstimateResult, DegradationReason> predict_execution(
    const trace::ExecutionTrace& real, const workload::WorkloadSpec& wl,
    const strategies::StrategyConfig& strategy, ReliabilityMode mode,
    EstimatorConfig base) {
  CharacterizationOptions copts;
  copts.mode = mode;
  copts.instance_deadline = wl.deadline_d;
  copts.windows_per_epoch = 6;
  auto checked = characterize_checked(real, copts);
  if (!checked.model) return *checked.degradation;

  base.unreliable_size =
      estimate_effective_size_iterative(real, *checked.model, wl.deadline_d);
  const auto reliable = real.successful_turnarounds(trace::PoolKind::Reliable);
  base.tr = wl.mean_cpu;
  if (!reliable.empty()) {
    base.tr = 0.0;
    for (double t : reliable) base.tr += t;
    base.tr /= static_cast<double>(reliable.size());
  }
  base.throughput_deadline = wl.deadline_d;
  base.tail_tasks_override =
      std::max<std::size_t>(1, real.remaining_at(real.t_tail()));
  const Estimator estimator(base, std::move(*checked.model));
  return estimator.estimate(real.task_count(), strategy);
}

}  // namespace expert::core
