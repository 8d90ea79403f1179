#include "expert/obs/tracing.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "expert/obs/metrics.hpp"
#include "json_lint.hpp"

namespace expert::obs {
namespace {

void spin_for(const Tracer& tracer, std::uint64_t ns) {
  const std::uint64_t start = tracer.now_ns();
  while (tracer.now_ns() - start < ns) {
  }
}

/// The self-time row named `name`; a zero row when there is none.
SpanTotals totals_for(const Tracer& tracer, const std::string& name) {
  for (SpanTotals& row : tracer.self_times()) {
    if (row.name == name) return row;
  }
  return SpanTotals{name};
}

TEST(Tracer, StartsDisabledAndRecordsNothing) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  { Span s("ignored", tracer); }
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(Tracer, SpanRecordsWhenEnabled) {
  Tracer tracer;
  tracer.set_enabled(true);
  { Span s("work", tracer); }
  EXPECT_EQ(tracer.event_count(), 1u);
}

TEST(Tracer, SpanCapturesEnabledStateAtConstruction) {
  Tracer tracer;
  {
    Span s("started-disabled", tracer);
    tracer.set_enabled(true);  // too late for this span
  }
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(Tracer, NestedSpansBothRecorded) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    Span outer("outer", tracer);
    { Span inner("inner", tracer); }
  }
  EXPECT_EQ(tracer.event_count(), 2u);
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"inner\""), std::string::npos);
}

TEST(Tracer, ChromeTraceIsWellFormedJson) {
  Tracer tracer;
  tracer.set_enabled(true);
  { Span s("a \"quoted\" name \\ with escapes", tracer); }
  tracer.record("manual", 100, 50);
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  std::string error;
  EXPECT_TRUE(testing::JsonLint::valid(os.str(), &error)) << error;
  EXPECT_NE(os.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(os.str().find("\"ph\":\"X\""), std::string::npos);
}

TEST(Tracer, EmptyTraceIsWellFormedJson) {
  Tracer tracer;
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  std::string error;
  EXPECT_TRUE(testing::JsonLint::valid(os.str(), &error)) << error;
}

TEST(Tracer, ThreadsGetDistinctTids) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.record("main-thread", 0, 1);
  std::thread([&] { tracer.record("worker", 0, 1); }).join();
  EXPECT_EQ(tracer.event_count(), 2u);
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string json = os.str();
  // Events from different threads carry different tids.
  std::vector<std::string> tids;
  std::size_t at = 0;
  while ((at = json.find("\"tid\":", at)) != std::string::npos) {
    at += 6;
    std::size_t end = json.find_first_of(",}", at);
    tids.push_back(json.substr(at, end - at));
  }
  ASSERT_EQ(tids.size(), 2u);
  EXPECT_NE(tids[0], tids[1]);
}

TEST(Tracer, EventsSurviveThreadExit) {
  Tracer tracer;
  tracer.set_enabled(true);
  std::thread([&] { Span s("short-lived", tracer); }).join();
  EXPECT_EQ(tracer.event_count(), 1u);
}

TEST(Tracer, ResetDropsEvents) {
  Tracer tracer;
  tracer.set_enabled(true);
  { Span s("gone", tracer); }
  tracer.reset();
  EXPECT_EQ(tracer.event_count(), 0u);
  { Span s("kept", tracer); }
  EXPECT_EQ(tracer.event_count(), 1u);
}

TEST(Tracer, NowIsMonotonic) {
  Tracer tracer;
  const auto a = tracer.now_ns();
  const auto b = tracer.now_ns();
  EXPECT_LE(a, b);
}

TEST(Tracer, SpanMacroUsesGlobalTracer) {
  Tracer& tracer = Tracer::global();
  const bool was_enabled = tracer.enabled();
  tracer.set_enabled(true);
  const std::size_t before = tracer.event_count();
  { EXPERT_SPAN("macro-span"); }
  EXPECT_EQ(tracer.event_count(), before + 1);
  tracer.set_enabled(was_enabled);
}

TEST(Tracer, AdjacentSpanMacrosCompile) {
  // Two spans in one scope must not collide on the variable name.
  Tracer& tracer = Tracer::global();
  const bool was_enabled = tracer.enabled();
  tracer.set_enabled(true);
  const std::size_t before = tracer.event_count();
  {
    EXPERT_SPAN("first");
    EXPERT_SPAN("second");
  }
  EXPECT_EQ(tracer.event_count(), before + 2);
  tracer.set_enabled(was_enabled);
}

// ---- self times folded from the recorded events ----

TEST(Tracer, DisabledSpansLeaveNoSelfTime) {
  Tracer tracer;
  { Span s("ignored", tracer); }
  EXPECT_TRUE(tracer.self_times().empty());
}

TEST(Tracer, SelfTimesCountEntriesAndTime) {
  Tracer tracer;
  tracer.set_enabled(true);
  for (int i = 0; i < 3; ++i) {
    Span s("loop", tracer);
    spin_for(tracer, 200'000);
  }
  const SpanTotals loop = totals_for(tracer, "loop");
  EXPECT_EQ(loop.entries, 3u);
  EXPECT_GE(loop.self_wall_ns, 3u * 200'000);
  EXPECT_GT(loop.self_cpu_ns, 0u);
  EXPECT_EQ(tracer.self_times().size(), 1u);
}

TEST(Tracer, NestedSelfTimesAreDisjoint) {
  Tracer tracer;
  tracer.set_enabled(true);
  const std::uint64_t before = tracer.now_ns();
  {
    Span outer("outer", tracer);
    spin_for(tracer, 1'000'000);
    {
      Span inner("inner", tracer);
      spin_for(tracer, 4'000'000);
    }
    spin_for(tracer, 1'000'000);
  }
  const std::uint64_t wall = tracer.now_ns() - before;
  const SpanTotals outer = totals_for(tracer, "outer");
  const SpanTotals inner = totals_for(tracer, "inner");
  // The inner 4 ms is charged to the inner span only. The outer span's wall
  // self time also holds any time the thread was descheduled outside the
  // inner span, so its upper bound is checked on thread CPU, which a
  // preemption does not add to.
  EXPECT_GE(inner.self_wall_ns, 4'000'000u);
  EXPECT_GE(outer.self_wall_ns, 2'000'000u);
  EXPECT_LT(outer.self_cpu_ns, 4'000'000u);
  EXPECT_LE(outer.self_wall_ns + inner.self_wall_ns, wall);
  EXPECT_LE(outer.self_cpu_ns + inner.self_cpu_ns, wall);
}

TEST(Tracer, SelfTimesSumExactlyToTheRoot) {
  // root [0,100) holds a [10,40) holding c [20,30), and b [50,90).
  Tracer tracer;
  tracer.record("c", 20, 10, 5);
  tracer.record("a", 10, 30, 20);
  tracer.record("b", 50, 40, 10);
  tracer.record("root", 0, 100, 50);
  const auto expect_row = [&](const char* name, std::uint64_t wall,
                              std::uint64_t cpu) {
    const SpanTotals row = totals_for(tracer, name);
    EXPECT_EQ(row.entries, 1u) << name;
    EXPECT_EQ(row.self_wall_ns, wall) << name;
    EXPECT_EQ(row.self_cpu_ns, cpu) << name;
  };
  expect_row("root", 30, 20);
  expect_row("a", 20, 15);
  expect_row("c", 10, 5);
  expect_row("b", 40, 10);
  std::uint64_t wall = 0;
  for (const SpanTotals& row : tracer.self_times()) wall += row.self_wall_ns;
  EXPECT_EQ(wall, 100u);
}

TEST(Tracer, SelfTimesAggregateAcrossThreads) {
  Tracer tracer;
  tracer.set_enabled(true);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10; ++i) {
        Span s("lookup", tracer);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(totals_for(tracer, "lookup").entries, 40u);
}

TEST(Tracer, SelfTimeRowsKeyByNameNotPointer) {
  // Two objects with the same characters, as one literal can be in two
  // translation units.
  static const char kFirst[] = "same";
  static const char kSecond[] = "same";
  ASSERT_NE(static_cast<const void*>(kFirst),
            static_cast<const void*>(kSecond));
  Tracer tracer;
  tracer.record(kFirst, 0, 10);
  tracer.record(kSecond, 20, 10);
  ASSERT_EQ(tracer.self_times().size(), 1u);
  EXPECT_EQ(tracer.self_times()[0].entries, 2u);
}

TEST(Tracer, ResetZeroesSelfTimes) {
  Tracer tracer;
  tracer.set_enabled(true);
  { Span s("gone", tracer); }
  tracer.reset();
  EXPECT_TRUE(tracer.self_times().empty());
}

TEST(Tracer, PublishesSpanGaugesIdempotently) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    Span s("aggregate", tracer);
    spin_for(tracer, 100'000);
  }
  Registry reg;
  tracer.publish(reg);
  tracer.publish(reg);
  const auto snap = reg.snapshot();
  const Labels span{{"span", "aggregate"}};
  ASSERT_NE(snap.gauge("obs.span.entries", span), nullptr);
  EXPECT_DOUBLE_EQ(snap.gauge("obs.span.entries", span)->value, 1.0);
  ASSERT_NE(snap.gauge("obs.span.self_seconds", span), nullptr);
  EXPECT_GE(snap.gauge("obs.span.self_seconds", span)->value, 100e-6);
  ASSERT_NE(snap.gauge("obs.span.self_cpu_seconds", span), nullptr);
  EXPECT_GT(snap.gauge("obs.span.self_cpu_seconds", span)->value, 0.0);
  EXPECT_EQ(snap.gauges.size(), 3u);
}

TEST(Tracer, SelfTimeTableListsEveryNameAndTotal) {
  Tracer tracer;
  tracer.set_enabled(true);
  { Span s("alpha", tracer); }
  { Span s("beta", tracer); }
  std::ostringstream os;
  tracer.write_self_time_table(os);
  const std::string table = os.str();
  EXPECT_NE(table.find("entries"), std::string::npos);
  EXPECT_NE(table.find("self wall [ms]"), std::string::npos);
  EXPECT_NE(table.find("self cpu [ms]"), std::string::npos);
  EXPECT_NE(table.find("alpha"), std::string::npos);
  EXPECT_NE(table.find("beta"), std::string::npos);
  EXPECT_NE(table.find("total"), std::string::npos);
}

TEST(Tracer, SpanMacroSelfTimesOnGlobal) {
  Tracer& tracer = Tracer::global();
  const bool was_enabled = tracer.enabled();
  tracer.set_enabled(true);
  const std::uint64_t before = totals_for(tracer, "macro-self-time").entries;
  { EXPERT_SPAN("macro-self-time"); }
  EXPECT_EQ(totals_for(tracer, "macro-self-time").entries, before + 1);
  tracer.set_enabled(was_enabled);
}

TEST(Tracer, SleepingSpanHasWallButLittleCpu) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    Span s("sleep", tracer);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const SpanTotals sleep = totals_for(tracer, "sleep");
  EXPECT_GE(sleep.self_wall_ns, 20'000'000u);
  EXPECT_LT(sleep.self_cpu_ns, sleep.self_wall_ns / 4);
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  EXPECT_NE(os.str().find("\"tdur\":"), std::string::npos);
}

// ---- spans that observe a histogram ----

TEST(Tracer, SpanObservesHistogramWithTracerOff) {
  Tracer tracer;
  Registry reg;
  const Histogram wall = reg.histogram("test.wall_seconds");
  {
    Span s("timed", tracer, &wall);
    spin_for(tracer, 100'000);
  }
  const Snapshot snap = reg.snapshot();
  const HistogramSnapshot* h = snap.histogram("test.wall_seconds");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
  EXPECT_GE(h->sum, 100e-6);
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(Tracer, SpanRecordsAndObservesWithBothOn) {
  Tracer tracer;
  tracer.set_enabled(true);
  Registry reg;
  const Histogram wall = reg.histogram("test.wall_seconds");
  { Span s("timed", tracer, &wall); }
  { Span s("untimed", tracer, nullptr); }
  EXPECT_EQ(tracer.event_count(), 2u);
  EXPECT_EQ(reg.snapshot().histogram("test.wall_seconds")->count, 1u);
}

}  // namespace
}  // namespace expert::obs
