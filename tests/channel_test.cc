// Tests for the threaded-runtime message channel and router.

#include "net/channel.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace ecdb {
namespace {

using namespace std::chrono_literals;

Message Make(NodeId src, NodeId dst) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.txn = MakeTxnId(src, 1);
  return m;
}

TEST(MessageChannelTest, PushPop) {
  MessageChannel ch;
  ch.Push(Make(0, 1));
  std::vector<Message> batch;
  ASSERT_TRUE(ch.PopAll(&batch, 100ms));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].src, 0u);
  EXPECT_EQ(ch.Size(), 0u);
}

TEST(MessageChannelTest, PopTimesOutWhenEmpty) {
  MessageChannel ch;
  std::vector<Message> batch;
  EXPECT_FALSE(ch.PopAll(&batch, 10ms));
}

TEST(MessageChannelTest, FifoOrder) {
  MessageChannel ch;
  for (uint32_t i = 0; i < 10; ++i) {
    Message m = Make(i, 0);
    ch.Push(std::move(m));
  }
  std::vector<Message> batch;
  ASSERT_TRUE(ch.PopAll(&batch, 0us));
  ASSERT_EQ(batch.size(), 10u);
  for (uint32_t i = 0; i < 10; ++i) EXPECT_EQ(batch[i].src, i);
}

TEST(MessageChannelTest, CloseWakesBlockedConsumer) {
  MessageChannel ch;
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    std::vector<Message> batch;
    ch.PopAll(&batch, 5000ms);
    returned = true;
  });
  std::this_thread::sleep_for(20ms);
  ch.Close();
  consumer.join();
  EXPECT_TRUE(returned);
}

TEST(MessageChannelTest, PushAfterCloseIsDropped) {
  MessageChannel ch;
  ch.Close();
  ch.Push(Make(0, 1));
  EXPECT_EQ(ch.Size(), 0u);
}

TEST(MessageChannelTest, ConcurrentProducersDeliverEverything) {
  MessageChannel ch;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 1000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ch, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ch.Push(Make(static_cast<NodeId>(p), 0));
      }
    });
  }
  int received = 0;
  std::vector<Message> batch;
  while (received < kProducers * kPerProducer) {
    if (ch.PopAll(&batch, 1000ms)) received += static_cast<int>(batch.size());
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(received, kProducers * kPerProducer);
}

TEST(MessageChannelTest, PopAllDrainsWholeBurstInOrder) {
  MessageChannel ch;
  for (uint32_t i = 0; i < 10; ++i) ch.Push(Make(i, 0));
  std::vector<Message> batch;
  ASSERT_TRUE(ch.PopAll(&batch, 1000us));
  ASSERT_EQ(batch.size(), 10u);
  for (uint32_t i = 0; i < 10; ++i) EXPECT_EQ(batch[i].src, i);
  EXPECT_EQ(ch.Size(), 0u);
  EXPECT_FALSE(ch.PopAll(&batch, 1000us));
  EXPECT_TRUE(batch.empty());  // a failed PopAll leaves the buffer cleared
}

TEST(MessageChannelTest, PopAllTimesOutWhenEmpty) {
  MessageChannel ch;
  std::vector<Message> batch;
  batch.push_back(Make(7, 7));  // stale content must be cleared
  EXPECT_FALSE(ch.PopAll(&batch, 5000us));
  EXPECT_TRUE(batch.empty());
}

TEST(MessageChannelTest, PopAllReturnsRemainderAfterClose) {
  MessageChannel ch;
  ch.Push(Make(0, 1));
  ch.Push(Make(1, 1));
  ch.Close();
  std::vector<Message> batch;
  ASSERT_TRUE(ch.PopAll(&batch, 1000us));
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_FALSE(ch.PopAll(&batch, 1000us));  // closed and drained
}

TEST(MessageChannelTest, CloseWakesBlockedPopAll) {
  MessageChannel ch;
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    std::vector<Message> batch;
    ch.PopAll(&batch, std::chrono::microseconds(5'000'000));
    returned = true;
  });
  std::this_thread::sleep_for(20ms);
  ch.Close();
  consumer.join();
  EXPECT_TRUE(returned);
}

// Multi-producer push/drain/close race. Run under ECDB_SANITIZE=thread this
// pins the mailbox's synchronization: every message pushed before Close
// must be observed exactly once by the draining consumer, with no data
// race between producers appending, the consumer swapping, and the closer.
TEST(MessageChannelTest, StressedProducersDrainAndCloseRace) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  MessageChannel ch;
  std::atomic<int> produced{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ch, &produced, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        Message m = Make(static_cast<NodeId>(p), 0);
        m.trace_seq = static_cast<uint64_t>(i);
        ch.Push(std::move(m));
        produced.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::vector<uint64_t> next_expected(kProducers, 0);
  std::vector<Message> batch;
  int received = 0;
  while (ch.PopAll(&batch, std::chrono::microseconds(500'000))) {
    for (const Message& m : batch) {
      // Per-producer FIFO must survive the batched drain.
      ASSERT_EQ(m.trace_seq, next_expected[m.src]++);
      received++;
    }
    if (received == kProducers * kPerProducer) break;
  }
  for (auto& t : producers) t.join();
  ch.Close();  // race Close against the final (empty) drains
  EXPECT_FALSE(ch.PopAll(&batch, 1000us));
  EXPECT_EQ(received, kProducers * kPerProducer);
  EXPECT_EQ(produced.load(), received);
}

TEST(ThreadNetworkTest, RoutesByDestination) {
  ThreadNetwork net(3);
  net.Send(Make(0, 2));
  std::vector<Message> batch;
  ASSERT_TRUE(net.channel(2).PopAll(&batch, 100ms));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].src, 0u);
  EXPECT_EQ(net.channel(1).Size(), 0u);
}

TEST(ThreadNetworkTest, CrashedNodesDropTraffic) {
  ThreadNetwork net(3);
  net.CrashNode(1);
  net.Send(Make(0, 1));  // to crashed
  net.Send(Make(1, 2));  // from crashed
  EXPECT_EQ(net.channel(1).Size(), 0u);
  EXPECT_EQ(net.channel(2).Size(), 0u);
  EXPECT_TRUE(net.IsCrashed(1));
}

TEST(ThreadNetworkTest, CountsMessagesDroppedAtCrashedNodes) {
  ThreadNetwork net(3);
  EXPECT_EQ(net.stats().messages_from_crashed, 0u);
  EXPECT_EQ(net.stats().messages_to_crashed, 0u);
  net.CrashNode(1);
  net.Send(Make(0, 1));  // to crashed
  net.Send(Make(2, 1));  // to crashed
  net.Send(Make(1, 2));  // from crashed
  EXPECT_EQ(net.stats().messages_to_crashed, 2u);
  EXPECT_EQ(net.stats().messages_from_crashed, 1u);
  net.RecoverNode(1);
  net.Send(Make(0, 1));  // delivered, not counted
  EXPECT_EQ(net.stats().messages_to_crashed, 2u);
  EXPECT_EQ(net.channel(1).Size(), 1u);
}

TEST(ThreadNetworkTest, RecoverRestoresDelivery) {
  ThreadNetwork net(2);
  net.CrashNode(1);
  net.RecoverNode(1);
  net.Send(Make(0, 1));
  EXPECT_EQ(net.channel(1).Size(), 1u);
}

TEST(ThreadNetworkTest, OutOfRangeDestinationIsDropped) {
  ThreadNetwork net(2);
  net.Send(Make(0, 9));  // must not crash
}

TEST(ThreadNetworkTest, ShutdownClosesAllChannels) {
  ThreadNetwork net(2);
  net.Shutdown();
  std::vector<Message> batch;
  EXPECT_FALSE(net.channel(0).PopAll(&batch, 10ms));
  EXPECT_FALSE(net.channel(1).PopAll(&batch, 10ms));
}

}  // namespace
}  // namespace ecdb
