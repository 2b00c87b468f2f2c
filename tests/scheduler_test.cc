// Unit tests for the discrete-event scheduler: (time, insertion-order)
// execution order, Cancel semantics, and the run-loop entry points.

#include "sim/scheduler.h"

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace ecdb {
namespace {

// The suite ran once per event-queue backend until the timer wheel was
// removed; the 4-ary heap is the only queue now, and its instance keeps
// the suite's test names.
enum class QueueBackend : uint8_t { kHeap };

class SchedulerBackendTest : public ::testing::TestWithParam<QueueBackend> {
 protected:
  Scheduler s;
};

TEST_P(SchedulerBackendTest, StartsAtZero) {
  EXPECT_EQ(s.Now(), 0u);
  EXPECT_TRUE(s.Empty());
}

TEST_P(SchedulerBackendTest, RunsEventsInTimeOrder) {
  std::vector<int> order;
  s.ScheduleAt(30, [&] { order.push_back(3); });
  s.ScheduleAt(10, [&] { order.push_back(1); });
  s.ScheduleAt(20, [&] { order.push_back(2); });
  s.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.Now(), 30u);
}

TEST_P(SchedulerBackendTest, SameTimeEventsRunFifo) {
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  s.RunAll();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST_P(SchedulerBackendTest, ClockAdvancesToEventTime) {
  Micros seen = 0;
  s.ScheduleAfter(100, [&] { seen = s.Now(); });
  s.RunOne();
  EXPECT_EQ(seen, 100u);
}

TEST_P(SchedulerBackendTest, ScheduleAfterIsRelative) {
  s.ScheduleAt(50, [] {});
  s.RunOne();
  Micros seen = 0;
  s.ScheduleAfter(25, [&] { seen = s.Now(); });
  s.RunOne();
  EXPECT_EQ(seen, 75u);
}

TEST_P(SchedulerBackendTest, PastTimesClampToNow) {
  s.ScheduleAt(100, [] {});
  s.RunOne();
  Micros seen = 0;
  s.ScheduleAt(10, [&] { seen = s.Now(); });  // in the past
  s.RunOne();
  EXPECT_EQ(seen, 100u);
}

TEST_P(SchedulerBackendTest, CancelPreventsExecution) {
  bool ran = false;
  const auto id = s.ScheduleAfter(10, [&] { ran = true; });
  EXPECT_TRUE(s.Cancel(id));
  s.RunAll();
  EXPECT_FALSE(ran);
}

TEST_P(SchedulerBackendTest, CancelReturnsFalseTwice) {
  const auto id = s.ScheduleAfter(10, [] {});
  EXPECT_TRUE(s.Cancel(id));
  EXPECT_FALSE(s.Cancel(id));
}

TEST_P(SchedulerBackendTest, CancelAfterRunReturnsFalse) {
  const auto id = s.ScheduleAfter(10, [] {});
  s.RunAll();
  EXPECT_FALSE(s.Cancel(id));
}

TEST_P(SchedulerBackendTest, RunUntilExecutesOnlyDueEvents) {
  int ran = 0;
  s.ScheduleAt(10, [&] { ran++; });
  s.ScheduleAt(20, [&] { ran++; });
  s.ScheduleAt(30, [&] { ran++; });
  EXPECT_EQ(s.RunUntil(20), 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(s.Now(), 20u);
  EXPECT_EQ(s.PendingCount(), 1u);
}

TEST_P(SchedulerBackendTest, RunUntilAdvancesClockWhenIdle) {
  s.RunUntil(500);
  EXPECT_EQ(s.Now(), 500u);
}

TEST_P(SchedulerBackendTest, RunUntilSkipsCancelledHead) {
  bool ran = false;
  const auto id = s.ScheduleAt(10, [] {});
  s.ScheduleAt(20, [&] { ran = true; });
  s.Cancel(id);
  EXPECT_EQ(s.RunUntil(25), 1u);
  EXPECT_TRUE(ran);
}

TEST_P(SchedulerBackendTest, EventsMayScheduleMoreEvents) {
  std::vector<Micros> times;
  std::function<void()> chain = [&] {
    times.push_back(s.Now());
    if (times.size() < 5) s.ScheduleAfter(10, chain);
  };
  s.ScheduleAfter(10, chain);
  s.RunAll();
  EXPECT_EQ(times, (std::vector<Micros>{10, 20, 30, 40, 50}));
}

TEST_P(SchedulerBackendTest, RunAllHonorsEventCap) {
  std::function<void()> forever = [&] { s.ScheduleAfter(1, forever); };
  s.ScheduleAfter(1, forever);
  EXPECT_EQ(s.RunAll(100), 100u);
}

TEST_P(SchedulerBackendTest, RunOneReturnsFalseWhenEmpty) {
  EXPECT_FALSE(s.RunOne());
}

TEST_P(SchedulerBackendTest, PendingCountExcludesCancelled) {
  const auto a = s.ScheduleAfter(1, [] {});
  s.ScheduleAfter(2, [] {});
  EXPECT_EQ(s.PendingCount(), 2u);
  s.Cancel(a);
  EXPECT_EQ(s.PendingCount(), 1u);
}

TEST_P(SchedulerBackendTest, RunOneSkipsCancelledHead) {
  // The cancelled entry sits at the front of the queue; RunOne must
  // discard it and execute the next live event in the same call.
  int ran = 0;
  const auto head = s.ScheduleAt(5, [&] { ran = 1; });
  s.ScheduleAt(10, [&] { ran = 2; });
  s.Cancel(head);
  EXPECT_TRUE(s.RunOne());
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(s.Now(), 10u);
}

TEST_P(SchedulerBackendTest, RunUntilPastDrainedQueueReturnsZero) {
  s.ScheduleAt(10, [] {});
  EXPECT_EQ(s.RunUntil(50), 1u);
  EXPECT_EQ(s.RunUntil(200), 0u);  // nothing left: just advance the clock
  EXPECT_EQ(s.Now(), 200u);
}

TEST_P(SchedulerBackendTest, StaleIdOfRecycledSlotIsNotCancellable) {
  // After an event runs, its storage slot is recycled for the next
  // schedule. The old TaskId must stay dead: cancelling it may not
  // return true and — critically — may not kill the slot's new tenant.
  const auto old_id = s.ScheduleAfter(1, [] {});
  s.RunAll();
  bool ran = false;
  const auto new_id = s.ScheduleAfter(1, [&] { ran = true; });
  EXPECT_NE(old_id, new_id);  // same slot, different generation
  EXPECT_FALSE(s.Cancel(old_id));
  s.RunAll();
  EXPECT_TRUE(ran);
}

TEST_P(SchedulerBackendTest, CancelReleasesCapturedStateImmediately) {
  // Cancel destroys the captured state right away (matching the old
  // map-erase semantics) even though the queue entry is reclaimed lazily.
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  const auto id = s.ScheduleAfter(10, [t = std::move(token)] { (void)*t; });
  EXPECT_FALSE(watch.expired());
  EXPECT_TRUE(s.Cancel(id));
  EXPECT_TRUE(watch.expired());
}

TEST_P(SchedulerBackendTest, LargeCallablesFallBackToHeap) {
  // Captures beyond TaskFn's inline buffer take the heap path; behavior
  // must be identical.
  std::array<uint64_t, 32> payload{};  // 256 bytes > inline capacity
  payload[0] = 11;
  payload[31] = 22;
  uint64_t sum = 0;
  s.ScheduleAfter(1, [payload, &sum] { sum = payload[0] + payload[31]; });
  s.RunAll();
  EXPECT_EQ(sum, 33u);
}

TEST_P(SchedulerBackendTest, MoveOnlyCallablesAreSupported) {
  auto box = std::make_unique<int>(41);
  int seen = 0;
  s.ScheduleAfter(1, [b = std::move(box), &seen] { seen = *b + 1; });
  s.RunAll();
  EXPECT_EQ(seen, 42);
}

TEST_P(SchedulerBackendTest, RandomizedOrderMatchesReferenceSort) {
  // Adversarial mix of times, FIFO ties and cancellations: execution
  // order must equal a stable sort of the surviving events by time.
  std::mt19937_64 rng(12345);
  struct Ref {
    Micros when;
    int tag;
  };
  std::vector<Ref> expected;
  std::vector<Scheduler::TaskId> ids;
  std::vector<int> ran;
  for (int i = 0; i < 1000; ++i) {
    const Micros when = rng() % 64;  // dense times force FIFO tie-breaks
    ids.push_back(s.ScheduleAt(when, [&ran, i] { ran.push_back(i); }));
    expected.push_back(Ref{when, i});
  }
  // Cancel every seventh event.
  for (size_t i = 0; i < ids.size(); i += 7) {
    ASSERT_TRUE(s.Cancel(ids[i]));
  }
  std::erase_if(expected, [&](const Ref& r) { return r.tag % 7 == 0; });
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Ref& a, const Ref& b) { return a.when < b.when; });
  s.RunAll();
  ASSERT_EQ(ran.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(ran[i], expected[i].tag) << "position " << i;
  }
}

TEST_P(SchedulerBackendTest, FarFutureTimesRunInOrder) {
  // Timestamps spanning 40 bits interleaved with near ones.
  std::vector<int> order;
  s.ScheduleAt(Micros{1} << 40, [&] { order.push_back(4); });
  s.ScheduleAt(100, [&] { order.push_back(1); });
  s.ScheduleAt((Micros{1} << 40) + 1, [&] { order.push_back(5); });
  s.ScheduleAt(Micros{1} << 37, [&] { order.push_back(3); });
  s.ScheduleAt(Micros{1} << 20, [&] { order.push_back(2); });
  s.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(s.Now(), (Micros{1} << 40) + 1);
}

TEST_P(SchedulerBackendTest, InsertEarlierThanPendingHeadBetweenRuns) {
  // RunUntil stops the clock short of the earliest pending event; a later
  // insert lands *before* it and must run first.
  std::vector<Micros> fired;
  s.ScheduleAt(1000, [&] { fired.push_back(s.Now()); });
  EXPECT_EQ(s.RunUntil(500), 0u);
  EXPECT_EQ(s.Now(), 500u);
  s.ScheduleAt(600, [&] { fired.push_back(s.Now()); });
  s.RunAll();
  EXPECT_EQ(fired, (std::vector<Micros>{600, 1000}));
}

INSTANTIATE_TEST_SUITE_P(Backends, SchedulerBackendTest,
                         ::testing::Values(QueueBackend::kHeap),
                         [](const ::testing::TestParamInfo<QueueBackend>&) {
                           return "Heap";
                         });

}  // namespace
}  // namespace ecdb
