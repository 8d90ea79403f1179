#include "expert/sim/engine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "expert/util/assert.hpp"

namespace expert::sim {
namespace {

TEST(Engine, FiresEventsInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(3.0, [&] { order.push_back(3); });
  engine.schedule_at(1.0, [&] { order.push_back(1); });
  engine.schedule_at(2.0, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, SimultaneousEventsFireInInsertionOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(5.0, [&] { order.push_back(1); });
  engine.schedule_at(5.0, [&] { order.push_back(2); });
  engine.schedule_at(5.0, [&] { order.push_back(3); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, ClockAdvancesToEventTime) {
  Engine engine;
  double seen = -1.0;
  engine.schedule_at(7.5, [&] { seen = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(seen, 7.5);
  EXPECT_DOUBLE_EQ(engine.now(), 7.5);
}

TEST(Engine, ScheduleInIsRelative) {
  Engine engine;
  std::vector<double> times;
  engine.schedule_at(10.0, [&] {
    engine.schedule_in(5.0, [&] { times.push_back(engine.now()); });
  });
  engine.run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_DOUBLE_EQ(times[0], 15.0);
}

TEST(Engine, RejectsPastEvents) {
  Engine engine;
  engine.schedule_at(10.0, [] {});
  engine.run();
  EXPECT_THROW(engine.schedule_at(5.0, [] {}), util::ContractViolation);
  EXPECT_THROW(engine.schedule_in(-1.0, [] {}), util::ContractViolation);
}

TEST(Engine, CancelPreventsExecution) {
  Engine engine;
  bool fired = false;
  auto handle = engine.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  engine.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelAfterFireIsNoop) {
  Engine engine;
  int count = 0;
  auto handle = engine.schedule_at(1.0, [&] { ++count; });
  engine.run();
  handle.cancel();  // must not crash or double-run
  EXPECT_EQ(count, 1);
}

TEST(Engine, RunUntilStopsAtHorizon) {
  Engine engine;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    engine.schedule_at(t, [&fired, &engine] { fired.push_back(engine.now()); });
  }
  engine.run_until(2.5);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  engine.run_until(10.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
}

TEST(Engine, StopEndsRunEarly) {
  Engine engine;
  std::vector<double> fired;
  engine.schedule_at(1.0, [&] {
    fired.push_back(1.0);
    engine.stop();
  });
  engine.schedule_at(2.0, [&] { fired.push_back(2.0); });
  engine.run();
  EXPECT_EQ(fired, (std::vector<double>{1.0}));
  // A fresh run resumes processing what's left.
  engine.run();
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
}

TEST(Engine, EventsCanScheduleChains) {
  Engine engine;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) engine.schedule_in(1.0, [&chain] { chain(); });
  };
  engine.schedule_at(0.0, [&chain] { chain(); });
  engine.run();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(engine.now(), 99.0);
  EXPECT_EQ(engine.processed_events(), 100u);
}

TEST(Engine, RunUntilDoesNotFirePastHorizonBehindCancelledHead) {
  Engine engine;
  bool fired = false;
  auto cancelled = engine.schedule_at(1.0, [] {});
  engine.schedule_at(10.0, [&] { fired = true; });
  cancelled.cancel();
  EXPECT_DOUBLE_EQ(engine.run_until(5.0), 5.0);
  EXPECT_FALSE(fired);
  EXPECT_EQ(engine.processed_events(), 0u);
  EXPECT_DOUBLE_EQ(engine.run_until(20.0), 10.0);
  EXPECT_TRUE(fired);
}

TEST(Engine, StaleHandleDoesNotCancelRecycledSlot) {
  Engine engine;
  int first = 0;
  int second = 0;
  auto stale = engine.schedule_at(1.0, [&] { ++first; });
  engine.run();
  // The fired event's slot is free again; the next event reuses it.
  auto fresh = engine.schedule_at(2.0, [&] { ++second; });
  EXPECT_FALSE(stale.pending());
  stale.cancel();
  EXPECT_TRUE(fresh.pending());
  engine.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

TEST(Engine, StaleHandleOfCancelledEventDoesNotCancelRecycledSlot) {
  Engine engine;
  int fired = 0;
  auto stale = engine.schedule_at(1.0, [&] { fired += 100; });
  stale.cancel();
  engine.run();  // pops the cancelled entry and recycles its slot
  auto fresh = engine.schedule_at(2.0, [&] { ++fired; });
  stale.cancel();
  EXPECT_FALSE(stale.pending());
  EXPECT_TRUE(fresh.pending());
  engine.run();
  EXPECT_EQ(fired, 1);
}

TEST(Engine, HandleIsNotPendingOnceFiredOrWhileFiring) {
  Engine engine;
  Engine::EventHandle handle;
  bool pending_inside = true;
  handle = engine.schedule_at(1.0, [&] { pending_inside = handle.pending(); });
  EXPECT_TRUE(handle.pending());
  engine.run();
  EXPECT_FALSE(pending_inside);
  EXPECT_FALSE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  EXPECT_EQ(engine.processed_events(), 1u);
}

TEST(Engine, DefaultHandleIsInert) {
  Engine::EventHandle handle;
  EXPECT_FALSE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
}

TEST(Engine, CallbackMayGrowTheSlotPoolWhileRunning) {
  Engine engine;
  constexpr int kFanOut = 4096;
  // The capture fills most of the inline buffer, so a callback read from a
  // reallocated pool would see garbage.
  const double a = 1.5, b = 2.5, c = 3.5, d = 4.5, e = 5.5;
  double sum = 0.0;
  int fired = 0;
  engine.schedule_at(0.0, [&engine, &sum, &fired, a, b, c, d, e] {
    for (int i = 0; i < kFanOut; ++i) {
      engine.schedule_in(1.0, [&fired] { ++fired; });
    }
    sum = a + b + c + d + e;
  });
  engine.run();
  EXPECT_DOUBLE_EQ(sum, 17.5);
  EXPECT_EQ(fired, kFanOut);
  EXPECT_EQ(engine.processed_events(), static_cast<std::uint64_t>(kFanOut) + 1);
}

TEST(Engine, EmptyAfterDrain) {
  Engine engine;
  engine.schedule_at(1.0, [] {});
  EXPECT_FALSE(engine.empty());
  engine.run();
  EXPECT_TRUE(engine.empty());
}

TEST(Engine, RunSomeProcessesBoundedCount) {
  Engine engine;
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    engine.schedule_at(static_cast<double>(i), [&] { ++fired; });
  }
  EXPECT_EQ(engine.run_some(3), 3u);
  EXPECT_EQ(fired, 3);
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
  EXPECT_EQ(engine.run_some(100), 7u);
  EXPECT_EQ(fired, 10);
}

TEST(Engine, RunSomeSkipsCancelled) {
  Engine engine;
  int fired = 0;
  auto h = engine.schedule_at(1.0, [&] { ++fired; });
  engine.schedule_at(2.0, [&] { ++fired; });
  h.cancel();
  EXPECT_EQ(engine.run_some(5), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(Engine, CancelledEventsAreSkippedNotCounted) {
  Engine engine;
  auto h = engine.schedule_at(1.0, [] {});
  engine.schedule_at(2.0, [] {});
  h.cancel();
  engine.run();
  EXPECT_EQ(engine.processed_events(), 1u);
}

// ---- replay(): events carried over from an earlier run ----

TEST(EngineReplay, MergesWithTheHeapInTimeOrder) {
  Engine engine;
  std::vector<double> order;
  engine.schedule_at(1.5, [&] { order.push_back(engine.now()); });
  engine.schedule_at(4.0, [&] { order.push_back(engine.now()); });
  engine.replay({1.0, 2.0, 3.0}, [&](std::size_t i) {
    order.push_back(10.0 + static_cast<double>(i));
  });
  engine.run();
  EXPECT_EQ(order, (std::vector<double>{10.0, 1.5, 11.0, 12.0, 4.0}));
  EXPECT_EQ(engine.processed_events(), 5u);
}

TEST(EngineReplay, TiesSortAsIfScheduledWhenTheReplayBegan) {
  // At equal times: older heap events, then the replay in its own order,
  // then events scheduled after the replay began — also by the callbacks.
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(5.0, [&] { order.push_back(1); });
  engine.replay({5.0, 5.0}, [&](std::size_t i) {
    order.push_back(2 + static_cast<int>(i));
    if (i == 0) engine.schedule_at(5.0, [&] { order.push_back(5); });
  });
  engine.schedule_at(5.0, [&] { order.push_back(4); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(EngineReplay, HorizonStopAndRunSomeSeeReplayedEvents) {
  Engine engine;
  int fired = 0;
  engine.replay({1.0, 5.0}, [&](std::size_t) { ++fired; });
  EXPECT_FALSE(engine.empty());
  EXPECT_EQ(engine.scheduled_events(), 2u);
  EXPECT_DOUBLE_EQ(engine.run_until(3.0), 3.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.scheduled_events(), 1u);
  EXPECT_EQ(engine.run_some(5), 1u);
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(engine.empty());

  Engine stopped;
  stopped.replay({1.0, 2.0}, [&](std::size_t) { stopped.stop(); });
  stopped.run();
  EXPECT_EQ(stopped.processed_events(), 1u);
  EXPECT_FALSE(stopped.empty());
}

TEST(EngineReplay, RejectsPastUnsortedAndOverlappingReplays) {
  Engine engine;
  engine.schedule_at(2.0, [] {});
  engine.run();
  EXPECT_THROW(engine.replay({1.0}, [](std::size_t) {}),
               util::ContractViolation);
  EXPECT_THROW(engine.replay({4.0, 3.0}, [](std::size_t) {}),
               util::ContractViolation);
  engine.replay({3.0}, [](std::size_t) {});
  EXPECT_THROW(engine.replay({4.0}, [](std::size_t) {}),
               util::ContractViolation);
  engine.run();
  engine.replay({4.0}, [](std::size_t) {});  // the first one is done
  engine.run();
  EXPECT_EQ(engine.processed_events(), 3u);
}

}  // namespace
}  // namespace expert::sim
