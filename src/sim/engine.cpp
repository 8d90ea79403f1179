#include "expert/sim/engine.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "expert/obs/metrics.hpp"
#include "expert/util/assert.hpp"

namespace expert::sim {

namespace {

/// Handles into the global registry, resolved once per process.
struct EngineMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter runs = reg.counter("sim.engine.runs");
  obs::Counter scheduled = reg.counter("sim.engine.events_scheduled");
  obs::Counter fired = reg.counter("sim.engine.events_fired");
  obs::Counter cancelled = reg.counter("sim.engine.events_cancelled");
  /// Carried-over events run by replay(): never scheduled here, so counted
  /// in neither events_scheduled nor events_fired.
  obs::Counter replayed = reg.counter("sim.engine.events_replayed");
  obs::Histogram max_queue = reg.histogram(
      "sim.engine.max_queue_depth",
      obs::HistogramSpec::exponential(1.0, 1048576.0, 21));
};

EngineMetrics& engine_metrics() {
  static EngineMetrics metrics;
  return metrics;
}

/// Heap order: a sorts after b (std heap algorithms build a max-heap, so
/// this puts the earliest (time, seq) at the front).
struct Later {
  template <typename E>
  bool operator()(const E& a, const E& b) const noexcept {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

}  // namespace

Engine::EventHandle Engine::enqueue(SimTime at, Thunk invoke) {
  EXPERT_REQUIRE(at >= now_, "cannot schedule an event in the past");
  std::uint32_t slot;
  if (free_slots_.empty()) {
    EXPERT_CHECK(slots_.size() < std::numeric_limits<std::uint32_t>::max(),
                 "event slot pool exhausted");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const std::uint64_t seq = next_seq_++;
  slots_[slot].invoke = invoke;
  slots_[slot].generation = seq;
  heap_.push_back(Entry{at, seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++obs_scheduled_;
  obs_max_queue_ = std::max(obs_max_queue_, heap_.size());
  return EventHandle(this, slot, seq);
}

void Engine::discard_cancelled(SimTime horizon) {
  while (!heap_.empty() && heap_.front().time <= horizon &&
         slots_[heap_.front().slot].invoke == nullptr) {
    free_slots_.push_back(heap_.front().slot);
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    ++obs_cancelled_;
  }
}

void Engine::fire_head() {
  const Entry head = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  // Copy the callback out and recycle its slot before running it: the
  // callback may schedule events that reuse the slot or grow the pool.
  Slot& slot = slots_[head.slot];
  const Thunk invoke = slot.invoke;
  alignas(std::max_align_t) unsigned char fn[kMaxCallbackBytes];
  std::memcpy(fn, slot.storage, sizeof fn);
  slot.invoke = nullptr;
  free_slots_.push_back(head.slot);
  now_ = head.time;
  ++processed_;
  ++obs_fired_;
  invoke(fn);
}

void Engine::start_replay(std::vector<SimTime> times, ReplayThunk invoke) {
  EXPERT_REQUIRE(replay_next_ == replay_times_.size(),
                 "a replay is already in progress");
  EXPERT_REQUIRE(times.empty() || times.front() >= now_,
                 "cannot replay an event in the past");
  EXPERT_REQUIRE(std::is_sorted(times.begin(), times.end()),
                 "replayed events must be in time order");
  replay_times_ = std::move(times);
  replay_next_ = 0;
  replay_seq_end_ = next_seq_;
  replay_invoke_ = invoke;
}

bool Engine::replay_due() const noexcept {
  if (replay_next_ == replay_times_.size()) return false;
  if (heap_.empty()) return true;
  // Replayed events sort as if scheduled when the replay began: after the
  // heap's older events, before its newer ones.
  const SimTime at = replay_times_[replay_next_];
  const Entry& head = heap_.front();
  return at < head.time || (at == head.time && head.seq >= replay_seq_end_);
}

void Engine::fire_replay() {
  now_ = replay_times_[replay_next_];
  ++processed_;
  ++obs_replayed_;
  replay_invoke_(replay_fn_, replay_next_++);
}

SimTime Engine::run() {
  return run_until(std::numeric_limits<SimTime>::infinity());
}

SimTime Engine::run_until(SimTime horizon) {
  stop_requested_ = false;
  while (!stop_requested_) {
    // Cancelled heads go first, so the horizon check sees the next event
    // that would actually fire.
    discard_cancelled(horizon);
    if (replay_due()) {
      if (replay_times_[replay_next_] > horizon) {
        now_ = std::max(now_, horizon);
        break;
      }
      fire_replay();
      continue;
    }
    if (heap_.empty()) break;
    if (heap_.front().time > horizon) {
      now_ = std::max(now_, horizon);
      break;
    }
    EXPERT_CHECK(heap_.front().time + 1e-9 >= now_,
                 "event time went backwards");
    fire_head();
  }
  flush_metrics();
  return now_;
}

std::size_t Engine::run_some(std::size_t count) {
  std::size_t done = 0;
  while (done < count) {
    discard_cancelled(std::numeric_limits<SimTime>::infinity());
    if (replay_due()) {
      fire_replay();
    } else if (heap_.empty()) {
      break;
    } else {
      fire_head();
    }
    ++done;
  }
  flush_metrics();
  return done;
}

void Engine::flush_metrics() {
  if (obs::Registry::global().enabled()) {
    EngineMetrics& m = engine_metrics();
    m.runs.inc();
    m.scheduled.inc(obs_scheduled_);
    m.fired.inc(obs_fired_);
    m.cancelled.inc(obs_cancelled_);
    m.replayed.inc(obs_replayed_);
    m.max_queue.observe(static_cast<double>(obs_max_queue_));
  }
  obs_scheduled_ = obs_fired_ = obs_cancelled_ = obs_replayed_ = 0;
  obs_max_queue_ = 0;
}

}  // namespace expert::sim
