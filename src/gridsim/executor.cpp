#include "expert/gridsim/executor.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <csignal>
#include <limits>
#include <map>

#include "expert/gridsim/env/dynamics.hpp"
#include "expert/obs/metrics.hpp"
#include "expert/obs/tracing.hpp"
#include "expert/sim/replication.hpp"
#include "expert/util/money.hpp"
#include "expert/util/assert.hpp"

namespace expert::gridsim {

namespace {

/// Per-pool instance lifecycle counters share one metric name split by a
/// {"pool"} label carrying the pool's *name* (v2 labeled series; cardinality
/// bounded by kMaxSeriesPerName), so dashboards sum a family with
/// counter_total() instead of knowing every pool. Preemptions additionally
/// carry a {"cause"} label (host/deadline/blackout/out_of_bid/duty_cycle/
/// result_loss) so figures can attribute losses per dynamics. Labeled
/// handles are resolved once per run at flush time; only the unlabeled
/// run-scoped series keep static handles.
struct ExecutorObs {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter runs = reg.counter("gridsim.executor.runs");
  obs::Counter down = reg.counter("gridsim.availability.down_transitions");
  obs::Counter up = reg.counter("gridsim.availability.up_transitions");
  obs::Counter truncated = reg.counter("gridsim.executor.truncated_runs");
  obs::Histogram makespan = reg.histogram(
      "gridsim.executor.makespan_sim_seconds",
      obs::HistogramSpec::exponential(1.0, 1e8, 33));
};

ExecutorObs& executor_obs() {
  static ExecutorObs metrics;
  return metrics;
}

/// Why an instance was lost. Blackout/OutOfBid surface as their own trace
/// outcomes; the rest stay InstanceOutcome::Timeout but are attributed
/// distinctly in the preempted{cause=} metric family.
enum class FailCause : std::uint8_t {
  Host,        ///< natural host death (availability process)
  Deadline,    ///< killed at the phase deadline while still running
  Blackout,    ///< forced window: chaos/shrink/flash or multi-region outage
  OutOfBid,    ///< forced window: spot market price above the bid
  DutyCycle,   ///< forced window: volunteer host recharging
  ResultLoss,  ///< chaos silent result loss
};
constexpr std::size_t kFailCauseCount = 6;

constexpr std::size_t cause_index(FailCause cause) noexcept {
  return static_cast<std::size_t>(cause);
}

const char* fail_cause_label(FailCause cause) noexcept {
  switch (cause) {
    case FailCause::Host:
      return "host";
    case FailCause::Deadline:
      return "deadline";
    case FailCause::Blackout:
      return "blackout";
    case FailCause::OutOfBid:
      return "out_of_bid";
    case FailCause::DutyCycle:
      return "duty_cycle";
    case FailCause::ResultLoss:
      return "result_loss";
  }
  return "host";
}

FailCause cause_of(chaos::WindowCause cause) noexcept {
  switch (cause) {
    case chaos::WindowCause::Blackout:
      return FailCause::Blackout;
    case chaos::WindowCause::OutOfBid:
      return FailCause::OutOfBid;
    case chaos::WindowCause::DutyCycle:
      return FailCause::DutyCycle;
  }
  return FailCause::Blackout;
}

/// One run's metric deltas for one pool, flushed to labeled series at the
/// end of the run.
struct PoolCounters {
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  std::array<std::uint64_t, kFailCauseCount> preempted{};
  std::array<std::uint64_t, kFailCauseCount> dynamics_windows{};
  std::uint64_t blackout_windows = 0;  ///< chaos-plan windows only
  std::uint64_t forced_down = 0;
  std::uint64_t results_lost = 0;
  std::uint64_t dispatch_failures = 0;
  std::uint64_t dispatch_retries = 0;
  std::uint64_t dispatch_abandoned = 0;
};

using strategies::StrategyConfig;
using strategies::TailMode;
using strategies::ThroughputPolicy;
using trace::InstanceOutcome;
using trace::InstanceRecord;
using trace::PoolKind;

constexpr double kInf = std::numeric_limits<double>::infinity();

constexpr std::size_t kNoGridGroup = std::numeric_limits<std::size_t>::max();

struct Machine {
  const MachineGroup* group = nullptr;
  /// Index of the owning pool in the environment's pool list.
  std::size_t pool_index = 0;
  /// Group index within the owning pool (multi-region: the region).
  std::size_t group_in_pool = 0;
  /// Machine ordinal within the owning pool (volunteer per-host streams).
  std::size_t ordinal_in_pool = 0;
  /// Contiguous grid-group ordinal across every Grid-role pool (blackout
  /// targeting); kNoGridGroup for cloud machines.
  std::size_t grid_group = kNoGridGroup;
  double speed = 1.0;
  double mean_up = 0.0;
  double mean_down = 0.0;
  double up_shape = 1.0;
  PriceSpec price;
  double failure_notice_prob = 0.0;
  double mean_queue_wait = 0.0;
  bool reliable_pool = false;
  std::size_t kills = 0;  ///< instances lost to this host (exclusion)
  /// Trace replay: when set, availability walks these up intervals instead
  /// of drawing from the exponential model.
  const std::vector<UpInterval>* spans = nullptr;
  std::size_t next_span = 0;

  bool up = true;
  bool busy = false;
  double next_down = kInf;  ///< end of the current up period (while up)

  // ---- chaos state ----
  /// Merged forced-down windows (group blackouts, pool shrink, the
  /// complement of a spare's flash window). Empty without chaos.
  std::vector<chaos::ForcedWindow> forced;
  std::size_t next_forced = 0;  ///< monotone cursor over `forced`
  /// Bumped by every forced transition; pending availability events carry
  /// the epoch they were armed in and no-op when it moved on.
  std::uint64_t avail_epoch = 0;
  /// Flash-crowd spare: excluded from l_ur (Mr cap, tail trigger).
  bool spare = false;
};

class Run {
 public:
  Run(const ExecutorConfig& cfg, const workload::Bot& bot,
      StrategyConfig strategy, std::uint64_t stream,
      const Executor::TailStrategySelector* selector = nullptr)
      : cfg_(cfg),
        env_(cfg.environment),
        bot_(bot),
        strategy_(std::move(strategy)),
        selector_(selector),
        stream_(stream),
        rng_(util::derive_seed(cfg.seed, stream)),
        flow_(*this, engine_, strategy_, bot.size()),
        dispatch_attempts_(bot.size(), 0) {
    if (cfg_.chaos && cfg_.chaos->any()) {
      chaos_ = &*cfg_.chaos;
      chaos_rng_ = chaos::event_rng(*chaos_, stream);
    }
    build_machines(stream);
    if (strategy_.throughput == ThroughputPolicy::ReliableOnly) {
      EXPERT_REQUIRE(reliable_count_ > 0,
                     "ReliableOnly strategy needs a reliable pool");
    }
    validate_tail_strategy(strategy_);
  }

  void validate_tail_strategy(const StrategyConfig& s) const {
    if ((s.tail_mode == TailMode::NTDMrTail ||
         s.tail_mode == TailMode::ReplicateAllReliable) &&
        s.ntdmr.n.has_value()) {
      // A finite N relies on the guaranteed (N+1)-th reliable instance;
      // users without reliable capacity are restricted to N = inf
      // (paper §III).
      EXPERT_REQUIRE(reliable_count_ > 0 && s.ntdmr.mr > 0.0,
                     "finite-N strategy needs reliable capacity");
    }
  }

  trace::ExecutionTrace execute() {
    // Crash-resume testing: kill the whole process at a reproducible
    // simulation time, before any same-time scheduling event. The event
    // never returns, so it cannot perturb the trace of a run it does not
    // kill — and the stream gate keeps it scoped to one BoT of a campaign.
    if (chaos_ != nullptr && chaos_->kill_at_sim_s > 0.0 &&
        (chaos_->kill_stream == 0 || chaos_->kill_stream == stream_)) {
      engine_.schedule_at(chaos_->kill_at_sim_s,
                          [] { std::raise(SIGKILL); });
    }
    // Arm the chaos plan's forced transitions first so that, at equal
    // simulation times, a blackout start fires before any dispatch.
    for (std::size_t m = 0; m < machines_.size(); ++m) {
      for (const auto& w : machines_[m].forced) {
        if (w.start > 0.0) {
          engine_.schedule_at(w.start, [this, m] { force_down(m); });
        }
        if (w.end < cfg_.max_sim_time) {
          engine_.schedule_at(w.end, [this, m] { force_up(m); });
        }
      }
    }
    // Start the availability processes. Machines born inside a forced
    // window stay dark until its force_up.
    for (std::size_t m = 0; m < machines_.size(); ++m) {
      auto& machine = machines_[m];
      const bool forced_at_start =
          !machine.forced.empty() && machine.forced.front().start <= 0.0;
      if (forced_at_start) {
        machine.up = false;
        continue;
      }
      if (machine.spans != nullptr) {
        machine.up = false;
        arm_trace_transition(m);
      } else {
        schedule_down(m);
      }
    }
    flow_.start(cfg_.throughput_deadline > 0.0
                    ? cfg_.throughput_deadline
                    : 4.0 * bot_.mean_cpu_seconds(),
                unreliable_count_ > 0 ? unreliable_count_ - 1 : 0);
    engine_.run_until(cfg_.max_sim_time);
    if (!flow_.finished()) {
      EXPERT_CHECK(!cfg_.strict_horizon,
                   "gridsim run hit the simulation horizon before completing");
      return truncate_at_horizon();
    }
    return finish(flow_.completion_time(), /*truncated=*/false);
  }

  /// The run hit max_sim_time with tasks outstanding: hand back everything
  /// observed so far instead of throwing the history away. Still-pending
  /// instances are recorded as unreturned — the same partial-knowledge view
  /// snapshot_history() gives the online model — so the caller can
  /// characterize from the truncated trace.
  trace::ExecutionTrace truncate_at_horizon() {
    obs_truncated_ = 1;
    for (const auto& p : pending_) {
      flow_.record(InstanceRecord{p.task, p.pool, p.send_time, kInf,
                                  InstanceOutcome::Timeout, 0.0,
                                  flow_.in_tail(p.send_time)});
    }
    return finish(cfg_.max_sim_time, /*truncated=*/true);
  }

 private:
  friend class sim::ReplicationFlow<Run>;

  trace::ExecutionTrace finish(double makespan, bool truncated) {
    flush_metrics(makespan);
    const double t_tail = flow_.tail_started() ? flow_.t_tail() : makespan;
    return trace::ExecutionTrace(flow_.task_count(), flow_.take_records(),
                                 t_tail, makespan, truncated);
  }

  /// Draw (or redraw, on exclusion-driven replacement) the host behind a
  /// machine slot: speed and mean up-time from the group's distributions.
  void draw_host(Machine& m) {
    const MachineGroup& g = *m.group;
    if (g.speed_cv > 0.0) {
      const double sigma2 = std::log1p(g.speed_cv * g.speed_cv);
      const double mu = std::log(g.speed_mean) - 0.5 * sigma2;
      m.speed = rng_.lognormal(mu, std::sqrt(sigma2));
    } else {
      m.speed = g.speed_mean;
    }
    m.mean_up = g.availability.mean_up_seconds;
    if (g.availability_cv > 0.0) {
      const double sigma2 = std::log1p(g.availability_cv * g.availability_cv);
      // Unit-mean lognormal multiplier: host-to-host reliability spread.
      m.mean_up *= rng_.lognormal(-0.5 * sigma2, std::sqrt(sigma2));
    }
    m.mean_down = g.availability.mean_down_seconds;
    m.up_shape = g.availability.up_shape;
    m.kills = 0;
  }

  void build_machines(std::uint64_t stream) {
    const auto& pools = env_.pools();
    obs_pools_.resize(pools.size());
    spot_paths_.resize(pools.size());
    for (std::size_t pi = 0; pi < pools.size(); ++pi) {
      const auto& spec = pools[pi];
      const bool reliable = spec.role == env::PoolRole::Cloud;
      std::size_t ordinal = 0;
      std::size_t group_idx = 0;
      for (const auto& g : spec.pool.groups) {
        if (!reliable) grid_groups_.push_back({&g, pi, group_idx});
        for (std::size_t i = 0; i < g.count; ++i) {
          Machine m;
          m.group = &g;
          m.pool_index = pi;
          m.group_in_pool = group_idx;
          m.ordinal_in_pool = ordinal++;
          m.grid_group = reliable ? kNoGridGroup : grid_groups_.size() - 1;
          m.price = g.price;
          m.failure_notice_prob = g.failure_notice_prob;
          m.mean_queue_wait = g.mean_queue_wait_s;
          m.reliable_pool = reliable;
          draw_host(m);
          if (g.trace != nullptr) {
            m.spans = &g.trace->machine(i % g.trace->machine_count());
          }
          machines_.push_back(m);
          (reliable ? reliable_count_ : unreliable_count_) += 1;
        }
        ++group_idx;
      }
    }
    if (chaos_ != nullptr) apply_chaos_plan(stream);
    apply_dynamics(stream);
  }

  /// Translate the chaos plan into per-machine forced-down windows and
  /// flash-crowd spare machines. Deterministic in (chaos.seed, stream).
  /// Blackout group ordinals run contiguously across every Grid-role pool,
  /// so a classic environment reproduces the pre-seam schedule exactly.
  void apply_chaos_plan(std::uint64_t stream) {
    const auto blackout =
        chaos::blackout_schedule(*chaos_, grid_groups_.size(), stream);
    for (std::size_t gi = 0; gi < blackout.size(); ++gi) {
      obs_pools_[grid_groups_[gi].pool_index].blackout_windows +=
          blackout[gi].size();
    }

    // Flash-crowd spares: extra hosts per grid group, forced down outside
    // the flash window. Appended after every base pool so machine indices
    // of the base pools are unchanged by the plan.
    if (chaos_->flash_fraction > 0.0) {
      std::vector<std::size_t> extra_in_pool(env_.pools().size(), 0);
      for (std::size_t gi = 0; gi < grid_groups_.size(); ++gi) {
        const auto& g = *grid_groups_[gi].group;
        const std::size_t pi = grid_groups_[gi].pool_index;
        const auto extra = static_cast<std::size_t>(
            std::ceil(chaos_->flash_fraction * static_cast<double>(g.count)));
        for (std::size_t i = 0; i < extra; ++i) {
          Machine m;
          m.group = &g;
          m.pool_index = pi;
          m.group_in_pool = grid_groups_[gi].group_in_pool;
          m.ordinal_in_pool =
              env_.pools()[pi].pool.total_machines() + extra_in_pool[pi]++;
          m.grid_group = gi;
          m.price = g.price;
          m.failure_notice_prob = g.failure_notice_prob;
          m.mean_queue_wait = g.mean_queue_wait_s;
          m.reliable_pool = false;
          m.spare = true;
          draw_host(m);
          if (g.trace != nullptr) {
            m.spans = &g.trace->machine((g.count + i) %
                                        g.trace->machine_count());
          }
          const double flash_end =
              chaos_->flash_start_s + chaos_->flash_duration_s;
          if (chaos_->flash_start_s > 0.0) {
            m.forced.push_back({0.0, chaos_->flash_start_s});
          }
          m.forced.push_back({flash_end, kInf});
          m.forced.insert(m.forced.end(), blackout[gi].begin(),
                          blackout[gi].end());
          chaos::merge_windows(m.forced);
          machines_.push_back(m);
          ++spare_count_;
        }
      }
    }

    // Blackouts hit every machine of the group; the shrink withdraws the
    // first ceil(fraction * l_ur) grid machines for its window.
    const auto shrink_count = static_cast<std::size_t>(std::ceil(
        chaos_->shrink_fraction * static_cast<double>(unreliable_count_)));
    std::size_t unreliable_seen = 0;
    for (auto& machine : machines_) {
      if (machine.reliable_pool || machine.spare) continue;
      machine.forced = blackout[machine.grid_group];
      if (chaos_->shrink_fraction > 0.0 && unreliable_seen < shrink_count) {
        machine.forced.push_back(
            {chaos_->shrink_start_s,
             chaos_->shrink_start_s + chaos_->shrink_duration_s});
        chaos::merge_windows(machine.forced);
      }
      ++unreliable_seen;
    }
  }

  /// Layer each pool's dynamics over its machines as cause-tagged forced
  /// windows (plus, for spot pools, the shared price path). Runs after the
  /// chaos plan so flash spares inherit their pool's dynamics too. Static
  /// pools are untouched, which keeps classic runs byte-identical: every
  /// dynamics draw comes from its own (spec.seed, stream) domain, never
  /// from the scheduling stream.
  void apply_dynamics(std::uint64_t stream) {
    const auto& pools = env_.pools();
    for (std::size_t pi = 0; pi < pools.size(); ++pi) {
      const auto& spec = pools[pi];
      auto& pool_obs = obs_pools_[pi];
      if (const auto* spot =
              std::get_if<env::SpotMarketDynamics>(&spec.dynamics)) {
        spot_paths_[pi] =
            env::spot_price_path(*spot, cfg_.max_sim_time, stream);
        const auto windows =
            env::spot_out_of_bid_windows(*spot, cfg_.max_sim_time, stream);
        pool_obs.dynamics_windows[cause_index(FailCause::OutOfBid)] +=
            windows.size();
        if (windows.empty()) continue;
        for (auto& machine : machines_) {
          if (machine.pool_index != pi) continue;
          machine.forced.insert(machine.forced.end(), windows.begin(),
                                windows.end());
          chaos::merge_windows(machine.forced);
        }
      } else if (const auto* mr =
                     std::get_if<env::MultiRegionDynamics>(&spec.dynamics)) {
        const auto regions = env::region_blackout_windows(
            *mr, spec.pool.groups.size(), stream);
        for (const auto& region : regions) {
          pool_obs.dynamics_windows[cause_index(FailCause::Blackout)] +=
              region.size();
        }
        for (auto& machine : machines_) {
          if (machine.pool_index != pi) continue;
          const auto& windows = regions[machine.group_in_pool];
          if (windows.empty()) continue;
          machine.forced.insert(machine.forced.end(), windows.begin(),
                                windows.end());
          chaos::merge_windows(machine.forced);
        }
      } else if (const auto* vol =
                     std::get_if<env::VolunteerDynamics>(&spec.dynamics)) {
        for (auto& machine : machines_) {
          if (machine.pool_index != pi) continue;
          const auto windows = env::volunteer_off_windows(
              *vol, cfg_.max_sim_time, machine.ordinal_in_pool, stream);
          pool_obs.dynamics_windows[cause_index(FailCause::DutyCycle)] +=
              windows.size();
          if (windows.empty()) continue;
          machine.forced.insert(machine.forced.end(), windows.begin(),
                                windows.end());
          chaos::merge_windows(machine.forced);
        }
      }
    }
  }

  // ---- availability process ----

  /// Wrap an availability callback so it dies silently when a forced
  /// transition (blackout/shrink/flash) moved the machine's epoch on.
  template <typename Fn>
  auto guarded(std::size_t m, Fn fn) {
    const std::uint64_t epoch = machines_[m].avail_epoch;
    return [this, m, epoch, fn] {
      if (machines_[m].avail_epoch != epoch) return;
      fn();
    };
  }

  void schedule_down(std::size_t m) {
    auto& machine = machines_[m];
    EXPERT_CHECK(machine.up, "scheduling down for a down machine");
    const stats::AvailabilityModel model{machine.mean_up, machine.mean_down,
                                         machine.up_shape};
    machine.next_down = engine_.now() + model.sample_up(rng_);
    engine_.schedule_at(machine.next_down,
                        guarded(m, [this, m] { on_down(m); }));
  }

  void on_down(std::size_t m) {
    auto& machine = machines_[m];
    ++obs_down_;
    const bool killed_instance = machine.busy;
    machine.up = false;
    machine.busy = false;  // any running instance dies silently
    machine.next_down = kInf;
    if (machine.spans != nullptr) {
      arm_trace_transition(m);
      return;
    }
    if (killed_instance && cfg_.exclusion_threshold > 0 &&
        ++machine.kills >= cfg_.exclusion_threshold) {
      // Resource exclusion: the overlay blacklists the flaky host and
      // requests a replacement from the same pool.
      draw_host(machine);
    }
    const stats::AvailabilityModel model{machine.mean_up, machine.mean_down,
                                         machine.up_shape};
    engine_.schedule_in(model.sample_down(rng_),
                        guarded(m, [this, m] { on_up(m); }));
  }

  void on_up(std::size_t m) {
    machines_[m].up = true;
    ++obs_up_;
    schedule_down(m);
    flow_.dispatch();
  }

  // ---- chaos: forced availability transitions ----

  /// Start of a forced-down window: the machine goes dark regardless of
  /// its availability process. A running instance dies silently — its
  /// failure notification was already scheduled at send time, which knew
  /// the window schedule.
  void force_down(std::size_t m) {
    auto& machine = machines_[m];
    ++machine.avail_epoch;  // invalidate pending up/down events
    ++obs_pools_[machine.pool_index].forced_down;
    if (machine.up) ++obs_down_;
    machine.up = false;
    machine.busy = false;
    machine.next_down = kInf;
  }

  /// End of a forced-down window: restart the machine's availability
  /// process from scratch (trace replay re-arms from the current time).
  void force_up(std::size_t m) {
    auto& machine = machines_[m];
    ++machine.avail_epoch;
    if (machine.spans != nullptr) {
      machine.up = false;
      arm_trace_transition(m);
      return;
    }
    machine.up = true;
    ++obs_up_;
    schedule_down(m);
    flow_.dispatch();
  }

  /// Next forced-down transition of a machine: its time (at or after
  /// `now`; +inf when no forced window remains, `now` while inside a
  /// window) and the window's cause for preemption attribution. The
  /// cursor only moves forward — callers ask at nondecreasing times.
  struct ForcedNext {
    double at = kInf;
    chaos::WindowCause cause = chaos::WindowCause::Blackout;
  };

  ForcedNext next_forced(Machine& machine, double now) {
    while (machine.next_forced < machine.forced.size() &&
           machine.forced[machine.next_forced].end <= now) {
      ++machine.next_forced;
    }
    if (machine.next_forced >= machine.forced.size()) return ForcedNext{};
    const auto& w = machine.forced[machine.next_forced];
    return ForcedNext{w.start <= now ? now : w.start, w.cause};
  }

  /// Trace replay: arm the next transition of a currently-down machine —
  /// either come up now (inside a span) or wake at the next span's start.
  void arm_trace_transition(std::size_t m) {
    auto& machine = machines_[m];
    const auto& spans = *machine.spans;
    const double now = engine_.now();
    while (machine.next_span < spans.size() &&
           spans[machine.next_span].end <= now) {
      ++machine.next_span;
    }
    if (machine.next_span >= spans.size()) return;  // host never returns
    const UpInterval& span = spans[machine.next_span];
    ++machine.next_span;
    if (span.start <= now) {
      machine.up = true;
      ++obs_up_;
      machine.next_down = span.end;
      engine_.schedule_at(span.end, guarded(m, [this, m] { on_down(m); }));
      flow_.dispatch();
    } else {
      engine_.schedule_at(span.start, guarded(m, [this, m, span] {
                            auto& mach = machines_[m];
                            mach.up = true;
                            ++obs_up_;
                            mach.next_down = span.end;
                            engine_.schedule_at(
                                span.end,
                                guarded(m, [this, m] { on_down(m); }));
                            flow_.dispatch();
                          }));
    }
  }

  // ---- ReplicationFlow host: machine slots, machine-level sends ----

  std::size_t reliable_limit() const {
    // Mr caps concurrently used reliable machines at ceil(Mr * l_ur).
    const auto cap = static_cast<std::size_t>(
        std::ceil(strategy_.ntdmr.mr * static_cast<double>(unreliable_count_)));
    return strategy_.throughput == ThroughputPolicy::ReliableOnly
               ? reliable_count_
               : std::min(cap, reliable_count_);
  }

  /// Next idle, up machine of the pool, round-robin from the pool's cursor
  /// (which advances past the machine returned). The reliable pool is
  /// further capped by Mr.
  std::optional<std::size_t> idle_slot(PoolKind pool) {
    const bool reliable = pool == PoolKind::Reliable;
    if (reliable && busy_reliable() >= reliable_limit()) return std::nullopt;
    const std::size_t n = machines_.size();
    std::size_t& cursor = reliable ? r_cursor_ : ur_cursor_;
    for (std::size_t step = 0; step < n; ++step) {
      const std::size_t m = (cursor + step) % n;
      const auto& machine = machines_[m];
      if (machine.reliable_pool != reliable) continue;
      if (machine.up && !machine.busy) {
        cursor = (m + 1) % n;
        return m;
      }
    }
    return std::nullopt;
  }

  std::size_t busy_reliable() const {
    std::size_t busy = 0;
    for (const auto& m : machines_)
      if (m.reliable_pool && m.busy) ++busy;
    return busy;
  }

  /// Budget-trigger estimate of one replica: the cheapest reliable group
  /// rate applied to the BoT's mean task CPU time.
  double replication_cost_cents() const {
    double rate = kInf;
    double period = 1.0;
    for (const auto& m : machines_) {
      if (m.reliable_pool && m.price.rate_cents_per_s < rate) {
        rate = m.price.rate_cents_per_s;
        period = m.price.period_s;
      }
    }
    return util::charge_cents(bot_.mean_cpu_seconds(), rate, period);
  }

  /// Online tail selection (run_adaptive): the selector sees the history
  /// observed so far and replaces the tail behaviour. Only the tail may
  /// change mid-run; the throughput policy already played out.
  void on_tail_start() {
    if (selector_ == nullptr || *selector_ == nullptr) return;
    StrategyConfig chosen = (*selector_)(snapshot_history());
    chosen.validate();
    validate_tail_strategy(chosen);
    chosen.throughput = strategy_.throughput;
    strategy_ = std::move(chosen);
  }

  /// History observed by the scheduler at this instant: resolved instances
  /// as recorded, still-running ones as unreturned (the online reliability
  /// model's partial-knowledge epoch expects exactly this view).
  trace::ExecutionTrace snapshot_history() const {
    std::vector<InstanceRecord> records = flow_.records();
    for (const auto& p : pending_) {
      records.push_back(InstanceRecord{p.task, p.pool, p.send_time, kInf,
                                       InstanceOutcome::Timeout, 0.0, false});
    }
    return trace::ExecutionTrace(flow_.task_count(), std::move(records),
                                 engine_.now(), engine_.now());
  }

  void send(workload::TaskId task, std::size_t machine_idx) {
    const double now = engine_.now();
    auto& machine = machines_[machine_idx];
    EXPERT_CHECK(machine.up && !machine.busy, "dispatch to unusable machine");

    // Reliable-pool launch failure (EC2 InsufficientInstanceCapacity):
    // the machine slot stays free, the task retries with backoff.
    if (machine.reliable_pool && chaos_ != nullptr &&
        chaos_->dispatch_failure_prob > 0.0 &&
        chaos_rng_.bernoulli(chaos_->dispatch_failure_prob)) {
      on_dispatch_failure(task, machine.pool_index);
      return;
    }

    flow_.launched(task);
    dispatch_attempts_[task] = 0;
    machine.busy = true;

    const bool reliable = machine.reliable_pool;
    ++obs_pools_[machine.pool_index].sent;
    pending_.push_back(PendingInstance{
        task, reliable ? PoolKind::Reliable : PoolKind::Unreliable, now});
    const double runtime = bot_.task(task).cpu_seconds / machine.speed;
    // Remote batch-queue latency precedes execution; a host death during
    // the wait kills the instance like any mid-run death. Only CPU time is
    // charged.
    const double wait =
        machine.mean_queue_wait > 0.0
            ? rng_.exponential(1.0 / machine.mean_queue_wait)
            : 0.0;
    const double t_complete = now + wait + runtime;
    // Reliable (N+1)-th instances run without a deadline (paper §III);
    // unreliable instances are killed at the phase deadline.
    const double t_kill = reliable ? kInf : now + flow_.rules().deadline_d;
    // The machine dies at its next natural down transition or at the next
    // forced-down window (chaos plan or environment dynamics), whichever
    // comes first. Both are known now, so the instance's outcome can be
    // scheduled immediately — with its cause.
    const ForcedNext forced = next_forced(machine, now);
    const double down_at = std::min(machine.next_down, forced.at);

    if (t_complete <= std::min(down_at, t_kill)) {
      // Silent result loss: the instance finishes and frees its machine,
      // but the result never reaches the scheduler — which learns only at
      // the instance deadline, exactly like a silent host death.
      if (!reliable && chaos_ != nullptr && chaos_->result_loss_prob > 0.0 &&
          chaos_rng_.bernoulli(chaos_->result_loss_prob)) {
        ++obs_pools_[machine.pool_index].results_lost;
        engine_.schedule_at(t_complete, [this, machine_idx] {
          machines_[machine_idx].busy = false;
          flow_.dispatch();
        });
        const double notify = t_kill == kInf ? t_complete : t_kill;
        engine_.schedule_at(notify, [this, task, machine_idx, now] {
          on_failure(task, machine_idx, now, /*frees_machine=*/false,
                     FailCause::ResultLoss);
        });
        return;
      }
      // Cost is fixed at send time: static pools charge the group's price,
      // spot pools the market rate now (billing simplification — see
      // docs/environments.md).
      const PriceSpec price = effective_price(machine, now);
      const double cost = util::charge_cents(
          runtime, price.rate_cents_per_s, price.period_s);
      engine_.schedule_at(t_complete, [this, task, machine_idx, now, cost] {
        on_success(task, machine_idx, now, cost);
      });
      return;
    }
    if (down_at < t_kill) {
      // The machine dies mid-run; the down event frees it. The scheduler
      // hears about it either immediately (reported failure) or only at the
      // deadline (silent loss) — reliable instances are always reported.
      const FailCause cause = forced.at <= machine.next_down
                                  ? cause_of(forced.cause)
                                  : FailCause::Host;
      const bool reported =
          reliable || rng_.bernoulli(machine.failure_notice_prob);
      const double notify =
          reported ? down_at : (t_kill == kInf ? down_at : t_kill);
      engine_.schedule_at(notify, [this, task, machine_idx, now, cause] {
        on_failure(task, machine_idx, now, /*frees_machine=*/false, cause);
      });
      return;
    }
    // Killed at the deadline while still running.
    engine_.schedule_at(t_kill, [this, task, machine_idx, now] {
      on_failure(task, machine_idx, now, /*frees_machine=*/true,
                 FailCause::Deadline);
    });
  }

  /// The price an instance dispatched now on this machine will pay: the
  /// group's static price, or the market rate at send time on a spot pool.
  PriceSpec effective_price(const Machine& machine, double now) const {
    const auto& path = spot_paths_[machine.pool_index];
    if (path.empty()) return machine.price;
    return PriceSpec{env::spot_rate_at(path, now), machine.price.period_s};
  }

  /// A reliable-pool launch attempt failed. Bounded retry with exponential
  /// backoff; once the retries are exhausted the reliable instance is
  /// abandoned (recorded as DispatchFailed) and the task falls back to the
  /// unreliable pool so it cannot starve waiting for capacity that never
  /// materializes.
  void on_dispatch_failure(workload::TaskId task, std::size_t pool_index) {
    const double now = engine_.now();
    std::size_t& attempts = dispatch_attempts_[task];
    ++obs_pools_[pool_index].dispatch_failures;
    ++attempts;
    if (attempts > chaos_->max_dispatch_retries) {
      ++obs_pools_[pool_index].dispatch_abandoned;
      flow_.record(InstanceRecord{task, PoolKind::Reliable, now, kInf,
                                  InstanceOutcome::DispatchFailed, 0.0,
                                  flow_.in_tail(now)});
      attempts = 0;
      // Allow a later, fresh reliable retry cycle should the fallback
      // unreliable instance fail too.
      flow_.task(task).reliable_used = false;
      flow_.enqueue(task, sim::Queued::Unreliable);
      return;
    }
    ++obs_pools_[pool_index].dispatch_retries;
    const double factor = std::pow(2.0, static_cast<double>(attempts - 1));
    const double backoff =
        std::min(chaos_->dispatch_backoff_base_s * factor,
                 chaos_->dispatch_backoff_max_s) *
        chaos_rng_.uniform(0.5, 1.5);
    engine_.schedule_in(backoff, [this, task] {
      const auto& state = flow_.task(task);
      if (state.completed || state.queued != sim::Queued::None) return;
      flow_.enqueue(task, sim::Queued::Reliable);
      flow_.dispatch();
    });
  }

  void on_success(workload::TaskId task, std::size_t machine_idx,
                  double send_time, double cost) {
    auto& machine = machines_[machine_idx];
    const PoolKind pool =
        machine.reliable_pool ? PoolKind::Reliable : PoolKind::Unreliable;
    machine.busy = false;
    ++obs_pools_[machine.pool_index].completed;
    remove_pending(task, pool, send_time);
    flow_.add_cost(cost);
    flow_.record(InstanceRecord{task, pool, send_time,
                                engine_.now() - send_time,
                                InstanceOutcome::Success, cost,
                                flow_.in_tail(send_time)});
    flow_.complete(task);
    flow_.dispatch();
  }

  void on_failure(workload::TaskId task, std::size_t machine_idx,
                  double send_time, bool frees_machine, FailCause cause) {
    auto& machine = machines_[machine_idx];
    const PoolKind pool =
        machine.reliable_pool ? PoolKind::Reliable : PoolKind::Unreliable;
    if (frees_machine) machine.busy = false;
    ++obs_pools_[machine.pool_index].preempted[cause_index(cause)];
    remove_pending(task, pool, send_time);
    // Blackout and out-of-bid preemptions surface as their own trace
    // outcomes; duty-cycle and natural host deaths stay Timeout (the
    // scheduler cannot tell a recharging phone from a dead host).
    const InstanceOutcome outcome =
        cause == FailCause::Blackout  ? InstanceOutcome::Blackout
        : cause == FailCause::OutOfBid ? InstanceOutcome::OutOfBid
                                       : InstanceOutcome::Timeout;
    flow_.record(InstanceRecord{task, pool, send_time, kInf, outcome, 0.0,
                                flow_.in_tail(send_time)});
    auto& st = flow_.task(task);
    if (!st.completed) {
      // A dead reliable instance (cloud node loss) must be replaceable.
      if (machine.reliable_pool) st.reliable_used = false;
      flow_.consider_enqueue(task);
    }
    flow_.dispatch();
  }

  /// Obs label value of a pool: its name, falling back to the legacy
  /// role-based values for unnamed pools.
  std::string pool_label(std::size_t pool_index) const {
    const auto& spec = env_.pools()[pool_index];
    if (!spec.pool.name.empty()) return spec.pool.name;
    return spec.role == env::PoolRole::Cloud ? "reliable" : "unreliable";
  }

  /// Publish this run's aggregates to the global registry (no-op when it
  /// is disabled). Deltas are plain members: per-event instrumentation cost
  /// is a register increment.
  void flush_metrics(double makespan) {
    if (!obs::Registry::global().enabled()) return;
    ExecutorObs& m = executor_obs();
    obs::Registry& reg = obs::Registry::global();
    m.runs.inc();
    m.down.inc(obs_down_);
    m.up.inc(obs_up_);
    m.truncated.inc(obs_truncated_);
    m.makespan.observe(makespan);
    for (std::size_t pi = 0; pi < obs_pools_.size(); ++pi) {
      const PoolCounters& pc = obs_pools_[pi];
      const std::string label = pool_label(pi);
      const obs::Labels pool{{"pool", label}};
      const auto inc = [&](const char* name, std::uint64_t delta) {
        if (delta > 0) reg.counter(name, pool).inc(delta);
      };
      inc("gridsim.instances.sent", pc.sent);
      inc("gridsim.instances.completed", pc.completed);
      for (std::size_t c = 0; c < kFailCauseCount; ++c) {
        const auto cause = static_cast<FailCause>(c);
        if (pc.preempted[c] > 0) {
          reg.counter("gridsim.instances.preempted",
                      obs::Labels{{"cause", fail_cause_label(cause)},
                                  {"pool", label}})
              .inc(pc.preempted[c]);
        }
        if (pc.dynamics_windows[c] > 0) {
          reg.counter("gridsim.dynamics.forced_windows",
                      obs::Labels{{"cause", fail_cause_label(cause)},
                                  {"pool", label}})
              .inc(pc.dynamics_windows[c]);
        }
      }
      inc("chaos.blackout_windows", pc.blackout_windows);
      inc("chaos.forced_down_transitions", pc.forced_down);
      inc("chaos.results_lost", pc.results_lost);
      inc("chaos.dispatch_failures", pc.dispatch_failures);
      inc("chaos.dispatch_retries", pc.dispatch_retries);
      inc("chaos.dispatch_abandoned", pc.dispatch_abandoned);
    }
  }

  struct PendingInstance {
    workload::TaskId task = 0;
    PoolKind pool = PoolKind::Unreliable;
    double send_time = 0.0;
  };

  void remove_pending(workload::TaskId task, PoolKind pool,
                      double send_time) {
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      const auto& p = pending_[i];
      if (p.task == task && p.pool == pool && p.send_time == send_time) {
        pending_[i] = pending_.back();
        pending_.pop_back();
        return;
      }
    }
    EXPERT_CHECK(false, "resolved instance missing from pending set");
  }

  /// One grid group's identity across the environment: used for blackout
  /// targeting and flash-spare creation.
  struct GridGroupRef {
    const MachineGroup* group = nullptr;
    std::size_t pool_index = 0;
    std::size_t group_in_pool = 0;
  };

  const ExecutorConfig& cfg_;
  const env::Environment& env_;
  const workload::Bot& bot_;
  StrategyConfig strategy_;
  const Executor::TailStrategySelector* selector_ = nullptr;
  std::uint64_t stream_ = 0;  ///< backend stream; gates the chaos kill
  std::vector<PendingInstance> pending_;
  util::Rng rng_;
  /// Non-null when the config carries an active chaos plan. Fault draws
  /// come from their own RNG so the plan never perturbs the scheduling
  /// stream's sequence of draws.
  const chaos::ChaosConfig* chaos_ = nullptr;
  util::Rng chaos_rng_;

  sim::Engine engine_;
  std::vector<Machine> machines_;
  std::vector<GridGroupRef> grid_groups_;
  /// Per-pool spot price path; empty for pools without spot dynamics.
  std::vector<std::vector<env::PricePoint>> spot_paths_;
  sim::ReplicationFlow<Run> flow_;
  /// Consecutive reliable-pool launch failures per task (chaos faults).
  std::vector<std::size_t> dispatch_attempts_;

  std::size_t unreliable_count_ = 0;
  std::size_t reliable_count_ = 0;
  std::size_t spare_count_ = 0;  ///< flash-crowd spares, excluded from l_ur
  std::size_t ur_cursor_ = 0;
  std::size_t r_cursor_ = 0;

  std::uint64_t obs_down_ = 0;
  std::uint64_t obs_up_ = 0;
  std::uint64_t obs_truncated_ = 0;
  /// Per-pool metric deltas, indexed like env_.pools().
  std::vector<PoolCounters> obs_pools_;
};

}  // namespace

void ExecutorConfig::validate() const {
  environment.validate();
  EXPERT_REQUIRE(max_sim_time > 0.0, "horizon must be positive");
  EXPERT_REQUIRE(throughput_deadline >= 0.0,
                 "throughput deadline must be non-negative");
  if (chaos) chaos->validate();
}

Executor::Executor(ExecutorConfig config) : config_(std::move(config)) {
  config_.validate();
}

trace::ExecutionTrace Executor::run(const workload::Bot& bot,
                                    const strategies::StrategyConfig& strategy,
                                    std::uint64_t stream) const {
  EXPERT_SPAN("executor.run");
  strategy.validate();
  Run run(config_, bot, strategy, stream);
  return run.execute();
}

trace::ExecutionTrace Executor::run_adaptive(
    const workload::Bot& bot, const strategies::StrategyConfig& initial,
    const TailStrategySelector& selector, std::uint64_t stream) const {
  EXPERT_SPAN("executor.run_adaptive");
  initial.validate();
  EXPERT_REQUIRE(selector != nullptr, "run_adaptive needs a selector");
  Run run(config_, bot, initial, stream, &selector);
  return run.execute();
}

std::vector<ReliabilityWindow> windowed_reliability(
    const trace::ExecutionTrace& trace, double window_s) {
  EXPERT_REQUIRE(window_s > 0.0, "reliability window must be positive");
  std::vector<ReliabilityWindow> windows;
  // Bucket by send time. Records are appended in event order, so a single
  // pass with a sorted bucket map keeps the output ordered by window.
  std::map<std::size_t, std::pair<std::size_t, std::size_t>> buckets;
  for (const auto& r : trace.records()) {
    if (r.pool != trace::PoolKind::Unreliable) continue;
    if (r.outcome == trace::InstanceOutcome::Cancelled) continue;
    const auto bucket = static_cast<std::size_t>(r.send_time / window_s);
    auto& [sent, ok] = buckets[bucket];
    ++sent;
    if (r.outcome == trace::InstanceOutcome::Success) ++ok;
  }
  windows.reserve(buckets.size());
  for (const auto& [bucket, counts] : buckets) {
    ReliabilityWindow w;
    w.lo = static_cast<double>(bucket) * window_s;
    w.hi = w.lo + window_s;
    w.sent = counts.first;
    w.gamma =
        static_cast<double>(counts.second) / static_cast<double>(counts.first);
    windows.push_back(w);
  }
  return windows;
}

}  // namespace expert::gridsim
