#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

namespace xrbench::sim {
namespace {

TEST(Simulator, EmptyQueueRuns) {
  Simulator s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.run(), 0u);
  EXPECT_EQ(s.now(), 0.0);
}

TEST(Simulator, FiresInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(30.0, [&] { order.push_back(3); });
  s.schedule_at(10.0, [&] { order.push_back(1); });
  s.schedule_at(20.0, [&] { order.push_back(2); });
  EXPECT_EQ(s.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30.0);
}

TEST(Simulator, FifoTieBreakAtEqualTime) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(5.0, [&] { order.push_back(1); });
  s.schedule_at(5.0, [&] { order.push_back(2); });
  s.schedule_at(5.0, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator s;
  double fired_at = -1.0;
  s.schedule_at(10.0, [&] {
    s.schedule_after(5.0, [&] { fired_at = s.now(); });
  });
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(Simulator, PastTimestampsClampToNow) {
  Simulator s;
  double fired_at = -1.0;
  s.schedule_at(10.0, [&] {
    s.schedule_at(3.0, [&] { fired_at = s.now(); });  // in the past
  });
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 10.0);
}

TEST(Simulator, NegativeDelayClampsToZero) {
  Simulator s;
  double fired_at = -1.0;
  s.schedule_after(-5.0, [&] { fired_at = s.now(); });
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 0.0);
}

TEST(Simulator, CancelPreventsFiring) {
  Simulator s;
  bool fired = false;
  const EventId id = s.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(s.cancel(id));
  EXPECT_EQ(s.run(), 0u);
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelTwiceFails) {
  Simulator s;
  const EventId id = s.schedule_at(1.0, [] {});
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));
}

TEST(Simulator, CancelUnknownIdFails) {
  Simulator s;
  EXPECT_FALSE(s.cancel(0));
  EXPECT_FALSE(s.cancel(9999));
}

TEST(Simulator, PendingCountTracksCancel) {
  Simulator s;
  const EventId a = s.schedule_at(1.0, [] {});
  s.schedule_at(2.0, [] {});
  EXPECT_EQ(s.pending_events(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.pending_events(), 1u);
  s.run();
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator s;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    s.schedule_at(t, [&fired, &s] { fired.push_back(s.now()); });
  }
  EXPECT_EQ(s.run_until(2.5), 2u);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(s.now(), 2.5);
  EXPECT_EQ(s.run(), 2u);
}

TEST(Simulator, RunUntilIncludesBoundaryEvents) {
  Simulator s;
  int count = 0;
  s.schedule_at(5.0, [&] { ++count; });
  EXPECT_EQ(s.run_until(5.0), 1u);
  EXPECT_EQ(count, 1);
}

TEST(Simulator, RunBeforeLeavesEqualTimeEventsQueued) {
  Simulator s;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 2.0, 3.0}) {
    s.schedule_at(t, [&fired, &s] { fired.push_back(s.now()); });
  }
  EXPECT_EQ(s.run_before(2.0), 1u);
  EXPECT_EQ(fired, (std::vector<double>{1.0}));
  EXPECT_EQ(s.pending_events(), 3u);
  EXPECT_EQ(s.run(), 3u);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0, 2.0, 3.0}));
}

TEST(Simulator, RunBeforeAdvancesNowToBoundary) {
  Simulator s;
  s.schedule_at(1.0, [] {});
  s.run_before(4.5);
  EXPECT_DOUBLE_EQ(s.now(), 4.5);
  // An empty queue still moves the clock; an earlier boundary never rewinds.
  s.run_before(7.0);
  EXPECT_DOUBLE_EQ(s.now(), 7.0);
  EXPECT_EQ(s.run_before(6.0), 0u);
  EXPECT_DOUBLE_EQ(s.now(), 7.0);
}

TEST(Simulator, RunBeforeSkipsCancelledEvents) {
  Simulator s;
  std::vector<int> order;
  const EventId first = s.schedule_at(1.0, [&] { order.push_back(1); });
  s.schedule_at(2.0, [&] { order.push_back(2); });
  ASSERT_TRUE(s.cancel(first));
  EXPECT_EQ(s.run_before(3.0), 1u);
  EXPECT_EQ(order, (std::vector<int>{2}));
  EXPECT_TRUE(s.empty());
}

TEST(Simulator, RunBeforeFiresEventsScheduledInsideTheWindow) {
  Simulator s;
  std::vector<double> fired;
  s.schedule_at(1.0, [&] {
    fired.push_back(s.now());
    s.schedule_after(0.5, [&] { fired.push_back(s.now()); });  // 1.5 < 2
    s.schedule_after(1.0, [&] { fired.push_back(s.now()); });  // 2.0: waits
  });
  EXPECT_EQ(s.run_before(2.0), 2u);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 1.5}));
  EXPECT_EQ(s.pending_events(), 1u);
}

TEST(Simulator, StepFiresOneEvent) {
  Simulator s;
  int count = 0;
  s.schedule_at(1.0, [&] { ++count; });
  s.schedule_at(2.0, [&] { ++count; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Simulator, CascadedEventChains) {
  Simulator s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) s.schedule_after(1.0, chain);
  };
  s.schedule_at(0.0, chain);
  s.run();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(s.now(), 99.0);
}

TEST(Simulator, FiredEventsCounter) {
  Simulator s;
  for (int i = 0; i < 10; ++i) s.schedule_at(i, [] {});
  s.run();
  EXPECT_EQ(s.fired_events(), 10u);
}

TEST(Simulator, CancelAfterPoolSlotReuseFails) {
  // Regression for the pooled event arena: after event `a` fires, its pool
  // slot is recycled by event `b`. A stale handle to `a` must NOT cancel
  // `b` (EventIds are generation-tagged).
  Simulator s;
  bool b_fired = false;
  const EventId a = s.schedule_at(1.0, [] {});
  EXPECT_TRUE(s.step());             // `a` fires, slot returns to free list
  s.schedule_at(2.0, [&] { b_fired = true; });  // reuses a's slot
  EXPECT_FALSE(s.cancel(a));         // stale id must be rejected
  s.run();
  EXPECT_TRUE(b_fired);
}

TEST(Simulator, CancelAfterCancelledSlotReuseFails) {
  // Same regression via the cancel path: cancelling `a` frees its slot
  // immediately; the recycled slot's new tenant must be unaffected by a
  // second cancel with the old id.
  Simulator s;
  bool b_fired = false;
  const EventId a = s.schedule_at(1.0, [] {});
  EXPECT_TRUE(s.cancel(a));
  const EventId b = s.schedule_at(2.0, [&] { b_fired = true; });
  EXPECT_NE(a, b);
  EXPECT_FALSE(s.cancel(a));
  s.run();
  EXPECT_TRUE(b_fired);
}

TEST(Simulator, FifoTieBreakSurvivesPoolReuse) {
  // Equal-timestamp FIFO order must hold even when the events' pool slots
  // were recycled in a different order than they were first allocated.
  Simulator s;
  std::vector<int> order;
  // Round 1: allocate three slots, fire them (slots go to the free list in
  // fire order, so the free list is LIFO relative to allocation).
  for (int i = 0; i < 3; ++i) s.schedule_at(1.0, [] {});
  s.run();
  // Round 2: equal timestamps on recycled slots must still fire FIFO.
  s.schedule_at(10.0, [&] { order.push_back(1); });
  s.schedule_at(10.0, [&] { order.push_back(2); });
  s.schedule_at(10.0, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, PoolHighWaterMarkIsReused) {
  // Steady-state scheduling must recycle slots instead of growing the pool:
  // repeated schedule/fire cycles keep the arena at its high-water mark.
  Simulator s;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 4; ++i) s.schedule_after(1.0, [] {});
    s.run();
  }
  EXPECT_EQ(s.pool_slots(), 4u);
}

TEST(Simulator, CancelDuringCallbackOfSameEventFails) {
  // Once an event fires its id is dead, even from inside its own callback.
  Simulator s;
  EventId id = 0;
  bool cancelled = true;
  id = s.schedule_at(1.0, [&] { cancelled = s.cancel(id); });
  s.run();
  EXPECT_FALSE(cancelled);
}

/// Property: N randomly-ordered timestamps always fire sorted.
class SimulatorOrderProperty : public ::testing::TestWithParam<int> {};

TEST_P(SimulatorOrderProperty, AlwaysSorted) {
  Simulator s;
  std::vector<double> fired;
  const int n = GetParam();
  for (int i = 0; i < n; ++i) {
    const double t = static_cast<double>((i * 7919) % 1000);
    s.schedule_at(t, [&fired, &s] { fired.push_back(s.now()); });
  }
  s.run();
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(n));
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SimulatorOrderProperty,
                         ::testing::Values(1, 2, 17, 100, 1000));

}  // namespace
}  // namespace xrbench::sim
