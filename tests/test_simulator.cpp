#include "runtime/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace xrbench::runtime {
namespace {

constexpr std::size_t kUnits = 4;

/// Pops every live event, returning (time, unit) pairs in firing order.
std::vector<std::pair<double, std::uint32_t>> drain(EventQueue& q) {
  std::vector<std::pair<double, std::uint32_t>> fired;
  Event e;
  while (q.pop(e)) fired.emplace_back(e.when, e.unit);
  return fired;
}

EventQueue fresh_queue() {
  EventQueue q;
  q.reset(kUnits);
  return q;
}

TEST(EventQueue, EmptyQueuePopsNothing) {
  auto q = fresh_queue();
  Event e;
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_FALSE(q.pop(e));
  EXPECT_FALSE(q.pop_before(10.0, e));
  EXPECT_EQ(q.now(), 0.0);
}

TEST(EventQueue, PopsInTimeOrder) {
  auto q = fresh_queue();
  q.push_at(30.0, EventKind::kOutageEnd, 3);
  q.push_at(10.0, EventKind::kOutageEnd, 1);
  q.push_at(20.0, EventKind::kOutageEnd, 2);
  const auto fired = drain(q);
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0].second, 1u);
  EXPECT_EQ(fired[1].second, 2u);
  EXPECT_EQ(fired[2].second, 3u);
  EXPECT_EQ(q.now(), 30.0);
}

TEST(EventQueue, FifoTieBreakAtEqualTime) {
  auto q = fresh_queue();
  q.push_at(5.0, EventKind::kOutageStart, 1);
  q.push_at(5.0, EventKind::kRetry, 2);
  q.push_at(5.0, EventKind::kComplete, 3);
  const auto fired = drain(q);
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0].second, 1u);
  EXPECT_EQ(fired[1].second, 2u);
  EXPECT_EQ(fired[2].second, 3u);
}

TEST(EventQueue, PushAfterUsesCurrentTime) {
  auto q = fresh_queue();
  q.push_at(10.0, EventKind::kOutageStart, 0);
  Event e;
  ASSERT_TRUE(q.pop(e));
  q.push_after(5.0, EventKind::kComplete, 0);
  ASSERT_TRUE(q.pop(e));
  EXPECT_DOUBLE_EQ(e.when, 15.0);
  EXPECT_DOUBLE_EQ(q.now(), 15.0);
}

TEST(EventQueue, PastTimestampsClampToNow) {
  auto q = fresh_queue();
  q.push_at(10.0, EventKind::kOutageStart, 0);
  Event e;
  ASSERT_TRUE(q.pop(e));
  q.push_at(3.0, EventKind::kOutageEnd, 0);  // in the past
  ASSERT_TRUE(q.pop(e));
  EXPECT_DOUBLE_EQ(e.when, 10.0);
}

TEST(EventQueue, NegativeDelayClampsToZero) {
  auto q = fresh_queue();
  q.push_after(-5.0, EventKind::kComplete, 0);
  Event e;
  ASSERT_TRUE(q.pop(e));
  EXPECT_DOUBLE_EQ(e.when, 0.0);
}

TEST(EventQueue, VoidedCompletionNeverFires) {
  auto q = fresh_queue();
  q.push_at(1.0, EventKind::kComplete, 2);
  q.push_at(2.0, EventKind::kFault, 3);
  EXPECT_TRUE(q.void_completion(2));
  EXPECT_TRUE(q.void_completion(3));
  Event e;
  EXPECT_FALSE(q.pop(e));
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, VoidTwiceOrUnarmedFails) {
  auto q = fresh_queue();
  EXPECT_FALSE(q.void_completion(0));  // never armed
  q.push_at(1.0, EventKind::kComplete, 0);
  EXPECT_TRUE(q.void_completion(0));
  EXPECT_FALSE(q.void_completion(0));
  // A popped completion is gone as well.
  q.push_at(2.0, EventKind::kComplete, 1);
  Event e;
  ASSERT_TRUE(q.pop(e));
  EXPECT_FALSE(q.void_completion(1));
}

TEST(EventQueue, VoidLeavesOtherKindsAndUnitsAlone) {
  // Tokens only guard completion kinds: an outage event or a retry on the
  // same unit index still fires after the unit's completion is voided.
  auto q = fresh_queue();
  q.push_at(1.0, EventKind::kComplete, 1);
  q.push_at(1.0, EventKind::kComplete, 2);
  q.push_at(3.0, EventKind::kOutageEnd, 1);
  q.push_at(4.0, EventKind::kRetry, 1);
  ASSERT_TRUE(q.void_completion(1));
  const auto fired = drain(q);
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0], std::make_pair(1.0, std::uint32_t{2}));
  EXPECT_EQ(fired[1], std::make_pair(3.0, std::uint32_t{1}));
  EXPECT_EQ(fired[2], std::make_pair(4.0, std::uint32_t{1}));
}

TEST(EventQueue, RearmedUnitFiresOnlyItsNewCompletion) {
  // A kill voids the old completion; the re-dispatch arms a new one with
  // the bumped token, and only that one fires.
  auto q = fresh_queue();
  q.push_at(5.0, EventKind::kComplete, 0);
  ASSERT_TRUE(q.void_completion(0));
  q.push_at(8.0, EventKind::kComplete, 0);
  const auto fired = drain(q);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].first, 8.0);
}

TEST(EventQueue, ArmingAnArmedUnitThrows) {
  auto q = fresh_queue();
  q.push_at(1.0, EventKind::kComplete, 0);
  EXPECT_THROW(q.push_at(2.0, EventKind::kFault, 0), std::logic_error);
}

TEST(EventQueue, PendingCountTracksVoid) {
  auto q = fresh_queue();
  q.push_at(1.0, EventKind::kComplete, 0);
  q.push_at(2.0, EventKind::kOutageStart, 1);
  EXPECT_EQ(q.pending(), 2u);
  q.void_completion(0);
  EXPECT_EQ(q.pending(), 1u);
  drain(q);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, PopBeforeLeavesEqualTimeEventsQueued) {
  auto q = fresh_queue();
  std::uint32_t unit = 0;
  for (double t : {1.0, 2.0, 2.0, 3.0}) {
    q.push_at(t, EventKind::kOutageEnd, unit++);
  }
  Event e;
  std::vector<double> fired;
  while (q.pop_before(2.0, e)) fired.push_back(e.when);
  EXPECT_EQ(fired, (std::vector<double>{1.0}));
  EXPECT_EQ(q.pending(), 3u);
  for (const auto& f : drain(q)) fired.push_back(f.first);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0, 2.0, 3.0}));
}

TEST(EventQueue, AdvanceToMovesTheClockForwardOnly) {
  auto q = fresh_queue();
  q.push_at(1.0, EventKind::kOutageEnd, 0);
  Event e;
  while (q.pop_before(4.5, e)) {
  }
  q.advance_to(4.5);
  EXPECT_DOUBLE_EQ(q.now(), 4.5);
  q.advance_to(7.0);
  EXPECT_DOUBLE_EQ(q.now(), 7.0);
  EXPECT_FALSE(q.pop_before(6.0, e));
  q.advance_to(6.0);
  EXPECT_DOUBLE_EQ(q.now(), 7.0);
}

TEST(EventQueue, PopBeforeSkipsVoidedEvents) {
  auto q = fresh_queue();
  q.push_at(1.0, EventKind::kComplete, 0);
  q.push_at(2.0, EventKind::kOutageEnd, 1);
  ASSERT_TRUE(q.void_completion(0));
  Event e;
  ASSERT_TRUE(q.pop_before(3.0, e));
  EXPECT_EQ(e.unit, 1u);
  EXPECT_FALSE(q.pop_before(3.0, e));
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, VoidedEntryBelowTheBoundaryNeverLetsALaterEventThrough) {
  // Regression: a killed completion's stale entry sits below the arrival
  // boundary while the next live event is at (or past) it. The stale entry
  // must be discarded BEFORE the boundary test; discarding it inside the
  // pop step instead would pop the live event ahead of the arrival.
  auto q = fresh_queue();
  q.push_at(1.0, EventKind::kComplete, 0);
  q.push_at(3.0, EventKind::kComplete, 1);  // exactly at the boundary
  q.push_at(4.0, EventKind::kOutageStart, 2);  // past it
  ASSERT_TRUE(q.void_completion(0));
  Event e;
  EXPECT_FALSE(q.pop_before(3.0, e));
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_DOUBLE_EQ(q.now(), 0.0);
  ASSERT_TRUE(q.pop_before(3.5, e));
  EXPECT_EQ(e.unit, 1u);
}

TEST(EventQueue, PopBeforeReturnsEventsPushedInsideTheWindow) {
  auto q = fresh_queue();
  q.push_at(1.0, EventKind::kOutageStart, 0);
  Event e;
  std::vector<double> fired;
  while (q.pop_before(2.0, e)) {
    fired.push_back(e.when);
    if (e.kind == EventKind::kOutageStart) {
      q.push_after(0.5, EventKind::kRetry, 0);     // 1.5 < 2
      q.push_after(1.0, EventKind::kOutageEnd, 0);  // 2.0: waits
    }
  }
  EXPECT_EQ(fired, (std::vector<double>{1.0, 1.5}));
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, CascadedEventChains) {
  auto q = fresh_queue();
  q.push_at(0.0, EventKind::kComplete, 0);
  int depth = 0;
  Event e;
  while (q.pop(e)) {
    if (++depth < 100) q.push_after(1.0, EventKind::kComplete, 0);
  }
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(q.now(), 99.0);
}

TEST(EventQueue, FifoTieBreakSurvivesReset) {
  auto q = fresh_queue();
  for (std::uint32_t u = 0; u < 3; ++u) q.push_at(1.0, EventKind::kRetry, u);
  drain(q);
  q.reset(kUnits);
  q.push_at(10.0, EventKind::kRetry, 1);
  q.push_at(10.0, EventKind::kRetry, 2);
  q.push_at(10.0, EventKind::kRetry, 3);
  const auto fired = drain(q);
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0].second, 1u);
  EXPECT_EQ(fired[1].second, 2u);
  EXPECT_EQ(fired[2].second, 3u);
}

TEST(EventQueue, HighWaterCountsQueuedEntries) {
  // Steady-state pushing and popping keeps the heap at its high-water
  // mark; a voided entry counts until it surfaces.
  auto q = fresh_queue();
  for (int round = 0; round < 50; ++round) {
    for (std::uint32_t u = 0; u < kUnits; ++u) {
      q.push_after(1.0, EventKind::kComplete, u);
    }
    drain(q);
  }
  EXPECT_EQ(q.high_water(), kUnits);
  q.push_after(1.0, EventKind::kComplete, 0);
  q.void_completion(0);
  q.push_after(2.0, EventKind::kComplete, 0);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.high_water(), kUnits);
  drain(q);
}

TEST(EventQueue, ResetRewindsClockAndDropsVoidedEntries) {
  auto q = fresh_queue();
  q.push_at(5.0, EventKind::kOutageStart, 0);
  q.push_at(9.0, EventKind::kComplete, 1);
  q.push_at(12.0, EventKind::kComplete, 2);
  q.void_completion(2);
  EXPECT_EQ(drain(q).size(), 2u);
  EXPECT_DOUBLE_EQ(q.now(), 9.0);
  q.reset(kUnits);
  EXPECT_DOUBLE_EQ(q.now(), 0.0);
  EXPECT_EQ(q.high_water(), 0u);
  // Events before the old end time are legal again after the rewind, and
  // the voided entry from the previous run never resurfaces.
  q.push_at(2.0, EventKind::kComplete, 2);
  const auto fired = drain(q);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_DOUBLE_EQ(fired[0].first, 2.0);
}

TEST(EventQueue, ResetWithPendingEventsThrows) {
  auto q = fresh_queue();
  q.push_at(1.0, EventKind::kOutageEnd, 0);
  EXPECT_THROW(q.reset(kUnits), std::logic_error);
}

TEST(EventQueue, DiscardDropsLiveEventsAndDisarmsUnits) {
  auto q = fresh_queue();
  q.push_at(1.0, EventKind::kOutageEnd, 0);
  q.push_at(3.0, EventKind::kComplete, 1);
  q.discard();
  EXPECT_EQ(q.pending(), 0u);
  Event e;
  EXPECT_FALSE(q.pop(e));
  // The discarded completion no longer arms unit 1, and reset() accepts the
  // queue again.
  EXPECT_FALSE(q.void_completion(1));
  q.push_at(4.0, EventKind::kComplete, 1);
  EXPECT_EQ(drain(q).size(), 1u);
  q.reset(kUnits);
}

/// Property: N randomly-ordered timestamps always pop sorted.
class EventQueueOrderProperty : public ::testing::TestWithParam<int> {};

TEST_P(EventQueueOrderProperty, AlwaysSorted) {
  auto q = fresh_queue();
  const int n = GetParam();
  for (int i = 0; i < n; ++i) {
    const double t = static_cast<double>((i * 7919) % 1000);
    q.push_at(t, EventKind::kRetry, static_cast<std::uint32_t>(i));
  }
  std::vector<double> fired;
  for (const auto& f : drain(q)) fired.push_back(f.first);
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(n));
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, EventQueueOrderProperty,
                         ::testing::Values(1, 2, 17, 100, 1000));

}  // namespace
}  // namespace xrbench::runtime
