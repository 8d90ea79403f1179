#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "expert/sim/engine.hpp"
#include "expert/strategies/static_strategies.hpp"
#include "expert/trace/record.hpp"
#include "expert/util/assert.hpp"

namespace expert::sim {

/// Replication rules in force during a phase: the throughput phase behaves
/// like NTDMr with N = inf and T = D = throughput deadline on the primary
/// pool; the tail phase uses the strategy's parameters.
struct PhaseRules {
  std::optional<unsigned> n;  ///< unreliable enqueues allowed per tail task
  double timeout_t = 0.0;
  double deadline_d = 0.0;
};

/// The pool queue holding a task's one enqueued instance, if any.
enum class Queued : std::uint8_t { None, Unreliable, Reliable };

/// The task-instance flow of paper Fig. 3 — the NTDMr replication policy —
/// over a discrete-event engine. The Estimator and the gridsim executor
/// both run it, so the statistical model and the machine-level "real"
/// execution schedule by the same rules; each supplies only how a send
/// resolves. The policy owns the phase rules, the per-task state, the two
/// epoch-guarded FIFO queues, the tail start, the budget trigger and the
/// two-pool dispatch loop, plus completion bookkeeping and the trace
/// records.
///
/// `Host` is called statically (no virtual dispatch on the per-event path)
/// and provides:
///   - `std::optional<Slot> idle_slot(trace::PoolKind pool)`: a free slot in
///     `pool` within its concurrency limit, or nullopt. `Slot` is whatever
///     the host needs to launch an instance (a machine index, a pool).
///   - `void send(workload::TaskId task, Slot slot)`: resolve one instance of
///     a task just popped off a queue; calls launched() when the instance
///     actually starts.
///   - `std::size_t reliable_limit() const`: the Mr cap on concurrently used
///     reliable slots (0 = no reliable capacity).
///   - `double replication_cost_cents() const`: the estimated cost of one
///     reliable instance, for the budget trigger.
///   - `void on_tail_start()`: called once when the tail phase begins, before
///     the tail rules are derived; the host may replace the strategy object
///     the flow reads (online tail selection).
///
/// Host event handlers call complete(), consider_enqueue() and dispatch().
template <typename Host>
class ReplicationFlow {
 public:
  struct TaskState {
    bool completed = false;
    bool reliable_used = false;  ///< the (N+1)-th instance was enqueued/sent
    Queued queued = Queued::None;
    std::uint64_t epoch = 0;  ///< bumps on enqueue/pop/cancel: stale guard
    double enqueue_time = 0.0;
    double last_send = -std::numeric_limits<double>::infinity();
    unsigned tail_ur_enqueued = 0;
    Engine::EventHandle check;
  };

  /// `strategy` is read through the reference for the whole run.
  ReplicationFlow(Host& host, Engine& engine,
                  const strategies::StrategyConfig& strategy,
                  std::size_t task_count)
      : host_(host),
        engine_(engine),
        strategy_(strategy),
        tasks_(task_count),
        remaining_(task_count) {}
  // Engine callbacks capture `this`.
  ReplicationFlow(const ReplicationFlow&) = delete;
  ReplicationFlow& operator=(const ReplicationFlow&) = delete;

  /// Enqueue every task under the throughput rules (or the tail rules, when
  /// the BoT starts out in its tail) and dispatch. The tail begins once at
  /// most `tail_trigger` tasks remain.
  void start(double throughput_deadline, std::size_t tail_trigger) {
    throughput_rules_ =
        PhaseRules{std::nullopt, throughput_deadline, throughput_deadline};
    tail_trigger_ = tail_trigger;
    maybe_start_tail();
    for (workload::TaskId t = 0; t < tasks_.size(); ++t) consider_enqueue(t);
    dispatch();
  }

  const PhaseRules& rules() const {
    return tail_started_ ? tail_rules_ : throughput_rules_;
  }
  TaskState& task(workload::TaskId task) { return tasks_[task]; }

  void enqueue(workload::TaskId task, Queued where) {
    auto& st = tasks_[task];
    EXPERT_CHECK(st.queued == Queued::None, "task already enqueued");
    EXPERT_CHECK(!st.completed, "enqueue of completed task");
    st.queued = where;
    ++st.epoch;
    st.enqueue_time = engine_.now();
    if (where == Queued::Unreliable) {
      ur_queue_.push_back({task, st.epoch});
    } else {
      r_queue_.push_back({task, st.epoch});
      ++live_r_queue_;
      max_r_queue_ = std::max(max_r_queue_, live_r_queue_);
      st.reliable_used = true;
    }
  }

  /// The replication rule (paper §IV): enqueue one instance for a task that
  /// has no result yet, whose last instance was sent at least T ago, and
  /// that has no instance currently enqueued.
  void consider_enqueue(workload::TaskId task) {
    auto& st = tasks_[task];
    if (st.completed || st.queued != Queued::None) return;
    const PhaseRules& r = rules();
    // Must match schedule_check's `due = last_send + T` exactly: comparing
    // `now - last_send < T` can disagree by one ulp and re-arm a same-time
    // check forever.
    if (engine_.now() < st.last_send + r.timeout_t) {
      schedule_check(task);
      return;
    }
    if (strategy_.throughput == strategies::ThroughputPolicy::ReliableOnly) {
      enqueue(task, Queued::Reliable);
      return;
    }
    if (!tail_started_ || !r.n.has_value()) {
      // Throughput phase, or an N = inf tail: unreliable pool only.
      enqueue(task, Queued::Unreliable);
      return;
    }
    if (st.tail_ur_enqueued < *r.n) {
      ++st.tail_ur_enqueued;
      enqueue(task, Queued::Unreliable);
    } else if (!st.reliable_used && host_.reliable_limit() > 0) {
      enqueue(task, Queued::Reliable);
    }
    // else: every allowed instance is out; the reliable one (if any) will
    // complete the task.
  }

  /// Re-run consider_enqueue once T has passed since the task's last send.
  void schedule_check(workload::TaskId task) {
    auto& st = tasks_[task];
    if (st.completed) return;
    const double due = st.last_send + rules().timeout_t;
    st.check.cancel();
    st.check =
        engine_.schedule_at(std::max(due, engine_.now()), [this, task] {
          consider_enqueue(task);
          dispatch();
        });
  }

  /// Fill idle unreliable slots from the unreliable queue, then idle
  /// reliable slots (within the Mr cap) from the reliable queue.
  void dispatch() {
    while (const auto slot = host_.idle_slot(trace::PoolKind::Unreliable)) {
      const auto task = pop_valid(Queued::Unreliable);
      if (!task) break;
      host_.send(*task, *slot);
    }
    while (const auto slot = host_.idle_slot(trace::PoolKind::Reliable)) {
      if (const auto task = pop_valid(Queued::Reliable)) {
        host_.send(*task, *slot);
        continue;
      }
      // CN*: the unreliable pool is fully utilized (otherwise its queue
      // would have drained above) — overflow onto the reliable pool.
      if (strategy_.throughput == strategies::ThroughputPolicy::Combined) {
        if (const auto task = pop_valid(Queued::Unreliable)) {
          host_.send(*task, *slot);
          continue;
        }
      }
      break;
    }
  }

  /// An instance of `task` started now.
  void launched(workload::TaskId task) {
    tasks_[task].last_send = engine_.now();
  }

  /// A result for `task` arrived. Returns false for a duplicate. The first
  /// result cancels the task's queued instance and pending check; the last
  /// task's result stops the engine (late duplicates are unpaid).
  bool complete(workload::TaskId task) {
    auto& st = tasks_[task];
    if (st.completed) return false;
    st.completed = true;
    --remaining_;
    cancel_queued(task);
    st.check.cancel();
    if (remaining_ == 0) {
      completion_time_ = engine_.now();
      engine_.stop();
    } else {
      maybe_start_tail();
      check_budget_trigger();
    }
    return true;
  }

  void add_cost(double cents) { total_cost_ += cents; }
  void record(const trace::InstanceRecord& r) { records_.push_back(r); }
  /// Whether an instance sent at `send_time` counts as a tail instance.
  bool in_tail(double send_time) const {
    return tail_started_ && send_time >= t_tail_;
  }

  bool finished() const { return remaining_ == 0; }
  double completion_time() const { return completion_time_; }
  bool tail_started() const { return tail_started_; }
  double t_tail() const { return t_tail_; }
  std::size_t tail_tasks() const { return tail_tasks_; }
  std::size_t max_reliable_queue() const { return max_r_queue_; }
  double total_cost() const { return total_cost_; }
  std::size_t task_count() const { return tasks_.size(); }
  const std::vector<trace::InstanceRecord>& records() const {
    return records_;
  }
  std::vector<trace::InstanceRecord> take_records() {
    return std::move(records_);
  }

 private:
  struct QueueEntry {
    workload::TaskId task = 0;
    std::uint64_t epoch = 0;
  };

  /// Withdraw the task's queued instance, recording it as Cancelled.
  void cancel_queued(workload::TaskId task) {
    auto& st = tasks_[task];
    if (st.queued == Queued::None) return;
    auto pool = trace::PoolKind::Unreliable;
    if (st.queued == Queued::Reliable) {
      EXPERT_CHECK(live_r_queue_ > 0, "reliable queue underflow");
      --live_r_queue_;
      pool = trace::PoolKind::Reliable;
    }
    records_.push_back(trace::InstanceRecord{
        task, pool, st.enqueue_time, trace::kNeverReturns,
        trace::InstanceOutcome::Cancelled, 0.0, in_tail(st.enqueue_time)});
    st.queued = Queued::None;
    ++st.epoch;
  }

  /// Pop the first live entry of `pool`'s queue, consuming it. Stale
  /// entries (cancelled or re-planned before being sent) are dropped.
  std::optional<workload::TaskId> pop_valid(Queued pool) {
    auto& queue = pool == Queued::Reliable ? r_queue_ : ur_queue_;
    while (!queue.empty()) {
      const QueueEntry e = queue.front();
      queue.pop_front();
      auto& st = tasks_[e.task];
      if (st.queued != pool || st.epoch != e.epoch || st.completed) continue;
      if (pool == Queued::Reliable) {
        EXPERT_CHECK(live_r_queue_ > 0, "reliable queue underflow");
        --live_r_queue_;
      }
      st.queued = Queued::None;
      ++st.epoch;
      return e.task;
    }
    return std::nullopt;
  }

  void maybe_start_tail() {
    if (tail_started_ || remaining_ > tail_trigger_) return;
    tail_started_ = true;
    t_tail_ = engine_.now();
    tail_tasks_ = remaining_;
    host_.on_tail_start();
    tail_rules_ = throughput_rules_;
    if (strategy_.tail_mode == strategies::TailMode::NTDMrTail) {
      tail_rules_ = PhaseRules{strategy_.ntdmr.n, strategy_.ntdmr.timeout_t,
                               strategy_.ntdmr.deadline_d};
    } else if (strategy_.tail_mode ==
               strategies::TailMode::ReplicateAllReliable) {
      tail_rules_ = PhaseRules{0u, 0.0, strategy_.ntdmr.deadline_d};
    }
    for (workload::TaskId t = 0; t < tasks_.size(); ++t) {
      if (!tasks_[t].completed) consider_enqueue(t);
    }
    check_budget_trigger();
  }

  /// Budget-triggered tail: once replicating every remaining task onto the
  /// reliable pool fits the remaining budget, move each task without a
  /// reliable instance to the reliable queue. Never fires without reliable
  /// capacity, which would only strand the cancelled tasks.
  void check_budget_trigger() {
    if (strategy_.tail_mode != strategies::TailMode::BudgetTriggered ||
        budget_fired_ || host_.reliable_limit() == 0) {
      return;
    }
    const double replication_cost =
        static_cast<double>(remaining_) * host_.replication_cost_cents();
    if (replication_cost > strategy_.budget_cents - total_cost_) return;
    budget_fired_ = true;
    for (workload::TaskId t = 0; t < tasks_.size(); ++t) {
      auto& st = tasks_[t];
      if (st.completed || st.reliable_used) continue;
      if (st.queued == Queued::Reliable) continue;
      if (st.queued == Queued::Unreliable) cancel_queued(t);
      enqueue(t, Queued::Reliable);
    }
  }

  Host& host_;
  Engine& engine_;
  const strategies::StrategyConfig& strategy_;

  std::vector<TaskState> tasks_;
  std::deque<QueueEntry> ur_queue_;
  std::deque<QueueEntry> r_queue_;
  std::vector<trace::InstanceRecord> records_;

  PhaseRules throughput_rules_;
  PhaseRules tail_rules_;
  std::size_t tail_trigger_ = 0;

  std::size_t remaining_ = 0;
  std::size_t live_r_queue_ = 0;
  std::size_t max_r_queue_ = 0;
  double total_cost_ = 0.0;
  bool tail_started_ = false;
  bool budget_fired_ = false;
  double t_tail_ = 0.0;
  std::size_t tail_tasks_ = 0;
  double completion_time_ = 0.0;
};

}  // namespace expert::sim
