#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <vector>

#include "expert/util/assert.hpp"

namespace expert::sim {

/// Simulation time, in seconds since the start of the run.
using SimTime = double;

/// Discrete-event simulation engine. Events fire in (time, insertion-order)
/// order, so simultaneous events are deterministic. Cancellation is lazy:
/// a cancelled event stays in the heap and is skipped when popped — cheap
/// and exactly matches the "cancel an enqueued instance" semantics the
/// ExPERT model needs.
///
/// Scheduling and firing allocate nothing in steady state. The heap holds
/// 24-byte POD entries; each callback lives inline in a recycled slot of a
/// pool. Callbacks must therefore be trivially copyable and at most
/// kMaxCallbackBytes large (lambdas capturing `this`, indices and doubles
/// by value qualify; ones capturing a std::function or std::string do
/// not). An EventHandle names a slot plus the generation of its occupant,
/// so a handle kept past its event's firing cannot touch the slot's next
/// occupant. Handles must not outlive their engine, and the engine is
/// neither copyable nor movable so that handles stay valid.
class Engine {
 public:
  static constexpr std::size_t kMaxCallbackBytes = 64;

  class EventHandle {
   public:
    EventHandle() = default;
    /// Cancel the event if it has not fired; no-op otherwise.
    void cancel();
    bool pending() const;

   private:
    friend class Engine;
    EventHandle(Engine* engine, std::uint32_t slot,
                std::uint64_t generation) noexcept
        : engine_(engine), slot_(slot), generation_(generation) {}
    Engine* engine_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint64_t generation_ = 0;
  };

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  SimTime now() const noexcept { return now_; }

  /// Schedule `fn` to run at absolute time `at` (>= now).
  template <typename Fn>
  EventHandle schedule_at(SimTime at, Fn fn) {
    static_assert(std::is_trivially_copyable_v<Fn>,
                  "event callbacks are copied bytewise: capture by value "
                  "only trivially copyable state");
    static_assert(sizeof(Fn) <= kMaxCallbackBytes,
                  "event callback exceeds Engine::kMaxCallbackBytes");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "event callback is over-aligned");
    static_assert(std::is_invocable_r_v<void, Fn&>,
                  "event callback must be callable with no arguments");
    const EventHandle handle = enqueue(at, &trampoline<Fn>);
    ::new (static_cast<void*>(slots_[handle.slot_].storage)) Fn(fn);
    return handle;
  }

  /// Schedule `fn` to run `delay` seconds from now (delay >= 0).
  template <typename Fn>
  EventHandle schedule_in(SimTime delay, Fn fn) {
    EXPERT_REQUIRE(delay >= 0.0, "negative delay");
    return schedule_at(now_ + delay, fn);
  }

  /// Run until the event queue drains. Returns the time of the last event.
  SimTime run();
  /// Run events with time <= horizon; clock ends at min(horizon, last event).
  SimTime run_until(SimTime horizon);
  /// Process at most `count` events (diagnostics / incremental stepping).
  /// Returns the number actually processed.
  std::size_t run_some(std::size_t count);
  /// Request the current run() / run_until() to return after the in-flight
  /// event finishes. Used to end a simulation at BoT completion without
  /// draining background processes (e.g. machine availability churn).
  void stop() noexcept { stop_requested_ = true; }

  /// True when no event, live or cancelled-but-unpopped, is queued.
  bool empty() const noexcept { return heap_.empty(); }
  std::size_t scheduled_events() const noexcept { return heap_.size(); }
  std::uint64_t processed_events() const noexcept { return processed_; }

 private:
  using Thunk = void (*)(void*);

  /// Heap entry; ordered by (time, seq), so the order is total.
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// One pooled callback. `invoke` is null while the slot is free or its
  /// event was cancelled; `generation` is the seq of its latest occupant.
  struct Slot {
    alignas(std::max_align_t) unsigned char storage[kMaxCallbackBytes];
    Thunk invoke;
    std::uint64_t generation;
  };

  template <typename Fn>
  static void trampoline(void* storage) {
    (*std::launder(static_cast<Fn*>(storage)))();
  }

  /// Claim a slot for an event at `at`, push its heap entry and return its
  /// handle; the caller constructs the callback in the slot's storage.
  EventHandle enqueue(SimTime at, Thunk invoke);
  /// Pop cancelled entries at or before `horizon` off the heap head,
  /// recycling their slots.
  void discard_cancelled(SimTime horizon);
  /// Pop the (live) head, recycle its slot and run its callback.
  void fire_head();
  /// Publish the per-run deltas to the global obs registry (no-op when it
  /// is disabled) and zero them. Called when run_until/run_some return.
  void flush_metrics();

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  SimTime now_ = 0.0;
  bool stop_requested_ = false;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;

  // Deltas since the last flush; plain members so the per-event cost of
  // instrumentation is a few register increments.
  std::uint64_t obs_scheduled_ = 0;
  std::uint64_t obs_fired_ = 0;
  std::uint64_t obs_cancelled_ = 0;
  std::size_t obs_max_queue_ = 0;
};

inline bool Engine::EventHandle::pending() const {
  if (engine_ == nullptr) return false;
  const Slot& slot = engine_->slots_[slot_];
  return slot.generation == generation_ && slot.invoke != nullptr;
}

inline void Engine::EventHandle::cancel() {
  if (pending()) engine_->slots_[slot_].invoke = nullptr;
}

}  // namespace expert::sim
