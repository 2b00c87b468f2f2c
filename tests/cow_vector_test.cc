// Unit tests for CowVector and the shared-payload Message semantics built
// on it: a list of up to two NodeIds is copied by value, a longer one is
// shared by every copy (copies are O(1)), and any mutation detaches, so a
// forwarder can never corrupt the sender's copy.

#include "common/cow_vector.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/frame.h"
#include "net/message.h"
#include "wal/wal.h"

namespace ecdb {
namespace {

std::vector<int> Items(const CowVector<int>& v) {
  return std::vector<int>(v.begin(), v.end());
}

TEST(CowVectorTest, DefaultIsEmpty) {
  CowVector<int> v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.begin(), v.end());
}

TEST(CowVectorTest, CopySharesStorage) {
  CowVector<int> a{1, 2, 3};
  CowVector<int> b = a;
  EXPECT_TRUE(b.SharesStorageWith(a));
  EXPECT_EQ(a, b);
}

TEST(CowVectorTest, EmptyVectorsDoNotClaimSharing) {
  CowVector<int> a;
  CowVector<int> b;
  EXPECT_FALSE(a.SharesStorageWith(b));  // nothing to share
}

TEST(CowVectorTest, MutableDetachesFromSharedStorage) {
  CowVector<int> a{1, 2, 3};
  CowVector<int> b = a;
  b.push_back(4);
  EXPECT_FALSE(b.SharesStorageWith(a));
  EXPECT_EQ(a.size(), 3u);  // the original never sees the write
  EXPECT_EQ(b.size(), 4u);
}

TEST(CowVectorTest, MutableWithoutSharingDoesNotReallocate) {
  CowVector<int> a{1, 2, 3, 4};
  const int* data = a.data();
  a.pop_back();
  EXPECT_EQ(a.data(), data);  // sole owner mutates in place
  EXPECT_EQ(Items(a), (std::vector<int>{1, 2, 3}));
}

TEST(CowVectorTest, ComparesAgainstPlainVectors) {
  CowVector<int> a{1, 2, 3};
  const std::vector<int> same = {1, 2, 3};
  EXPECT_TRUE(a == same);
  EXPECT_TRUE(same == a);
  EXPECT_FALSE(a == (std::vector<int>{1, 2}));
}

TEST(CowVectorTest, AssignFromVectorReplacesContents) {
  CowVector<int> a{1, 2, 3};
  CowVector<int> b = a;
  a = std::vector<int>{9, 9};
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(b.size(), 3u);  // b keeps the old buffer
}

TEST(CowVectorTest, ListsOfTwoOrFewerAreInlineAndCopiesIndependent) {
  static_assert(CowVector<NodeId>::kInline == 2);
  static_assert(CowVector<Operation>::kInline == 0);
  static_assert(sizeof(CowVector<NodeId>) == 2 * sizeof(void*));
  for (NodeId n = 0; n <= 2; ++n) {
    CowVector<NodeId> a;
    for (NodeId i = 0; i < n; ++i) a.push_back(10 + i);
    ASSERT_TRUE(a.IsInline()) << n;
    CowVector<NodeId> b = a;
    EXPECT_FALSE(b.SharesStorageWith(a));
    EXPECT_NE(b.data(), a.data());
    // Writing the copy, inline or across the boundary, leaves `a` alone.
    if (n > 0) b.pop_back();
    b.push_back(99);
    b.push_back(98);
    EXPECT_EQ(a.size(), n);
    for (NodeId i = 0; i < n; ++i) EXPECT_EQ(a[i], 10 + i);
  }
}

TEST(CowVectorTest, LongerListSharesOneBufferAcrossCopies) {
  const CowVector<NodeId> a{0, 1, 2};
  ASSERT_FALSE(a.IsInline());
  std::vector<CowVector<NodeId>> copies(8, a);
  CowVector<NodeId> assigned;
  assigned = copies.back();
  for (const CowVector<NodeId>& c : copies) {
    EXPECT_TRUE(c.SharesStorageWith(a));
    EXPECT_EQ(c.data(), a.data());
  }
  EXPECT_TRUE(assigned.SharesStorageWith(a));
  CowVector<NodeId> moved = std::move(copies[0]);
  EXPECT_TRUE(moved.SharesStorageWith(a));
  EXPECT_TRUE(copies[0].empty());  // NOLINT: moved-from state is pinned
}

TEST(CowVectorTest, PushBackAcrossInlineBoundaryKeepsOrder) {
  CowVector<NodeId> v;
  std::vector<NodeId> want;
  for (NodeId i = 0; i < 9; ++i) {
    v.push_back(100 - i);
    want.push_back(100 - i);
    ASSERT_EQ(v, want) << "after " << i + 1 << " pushes";
    EXPECT_EQ(v.IsInline(), want.size() <= 2);
  }
  while (!want.empty()) {
    v.pop_back();
    want.pop_back();
    ASSERT_EQ(v, want) << "after popping to " << want.size();
    EXPECT_EQ(v.IsInline(), want.size() <= 2);
  }
  // An element of the list itself, pushed as the list spills.
  v = {4, 5};
  v.push_back(v[0]);
  EXPECT_EQ(v, (std::vector<NodeId>{4, 5, 4}));
}

TEST(CowVectorTest, SpilledListRoundTripsThroughFrameCodecAndWal) {
  // Three ids: the shortest list that leaves the inline slots.
  const CowVector<NodeId> spilled{7, 3, 5};
  ASSERT_FALSE(spilled.IsInline());

  MessageFrame frame;
  frame.src = 0;
  frame.dst = 1;
  Message m;
  m.type = MsgType::kGlobalCommit;
  m.txn = MakeTxnId(0, 1);
  m.participants = spilled;
  frame.messages.push_back(m);
  std::vector<uint8_t> bytes;
  EncodeFrame(frame, &bytes);
  MessageFrame decoded;
  ASSERT_TRUE(DecodeFrame(bytes, &decoded));
  ASSERT_EQ(decoded.messages.size(), 1u);
  EXPECT_EQ(decoded.messages[0].participants, spilled);

  const std::string path = ::testing::TempDir() + "/cow_spilled.wal";
  std::remove(path.c_str());
  {
    auto wal = std::move(FileWal::Open(path)).value();
    wal->Append({0, m.txn, LogRecordType::kReady, spilled});
    ASSERT_TRUE(wal->Flush().ok());
  }
  auto wal = std::move(FileWal::Open(path)).value();
  ASSERT_EQ(wal->Size(), 1u);
  EXPECT_EQ(wal->Scan()[0].participants, spilled);
  std::remove(path.c_str());
}

TEST(CowVectorTest, SharedBufferCopiedAndReleasedAcrossThreads) {
  // Workers copy a message's wide list and drop their copies on other
  // threads, as the threaded hosts do; the last release frees the buffer
  // once (ASan/TSan check the count's ordering).
  auto list = std::make_unique<CowVector<NodeId>>(
      CowVector<NodeId>{0, 1, 2, 3, 4, 5, 6, 7});
  std::vector<CowVector<NodeId>> handoff(4, *list);
  std::vector<std::thread> threads;
  for (CowVector<NodeId>& held : handoff) {
    threads.emplace_back([&held] {
      for (int i = 0; i < 1000; ++i) {
        CowVector<NodeId> copy = held;
        CowVector<NodeId> again = copy;
        if (again.size() != 8 || again[7] != 7) std::abort();
      }
      CowVector<NodeId> last = std::move(held);
    });
  }
  list.reset();  // the main thread's reference goes while workers run
  for (std::thread& t : threads) t.join();
  for (const CowVector<NodeId>& held : handoff) EXPECT_TRUE(held.empty());
}

// --- Message payload sharing (forwarding safety) ---

Message MakeGlobalCommit() {
  Message m;
  m.type = MsgType::kGlobalCommit;
  m.src = 0;
  m.dst = 1;
  m.txn = MakeTxnId(0, 7);
  m.participants = {0, 1, 2, 3};
  m.ops = {Operation{1, 42, AccessMode::kWrite}};
  return m;
}

TEST(MessageSharingTest, CopyingAMessageSharesPayloads) {
  const Message original = MakeGlobalCommit();
  Message copy = original;
  EXPECT_TRUE(copy.participants.SharesStorageWith(original.participants));
  EXPECT_TRUE(copy.ops.SharesStorageWith(original.ops));
}

TEST(MessageSharingTest, ForwardingCannotMutateSendersList) {
  // EC cohort forwarding: the forwarder stamps new routing fields on a
  // copy. Even if it (wrongly) edited the participant list, the sender's
  // record — sharing the same buffer — must not change.
  const Message original = MakeGlobalCommit();
  Message forward = original;
  forward.src = 1;
  forward.dst = 2;
  forward.forwarded = true;
  forward.participants.push_back(99);

  EXPECT_EQ(original.participants.size(), 4u);
  EXPECT_FALSE(forward.participants.SharesStorageWith(original.participants));
  EXPECT_EQ(forward.participants.size(), 5u);
}

TEST(MessageSharingTest, ApproximateBytesAgreesSharedVsDeepCopied) {
  // The wire-size model must not depend on whether payloads are shared:
  // a shared broadcast and a per-recipient deep copy describe the same
  // bytes on the (simulated) wire.
  const Message original = MakeGlobalCommit();
  Message shared = original;

  Message deep;
  deep.type = original.type;
  deep.src = original.src;
  deep.dst = original.dst;
  deep.txn = original.txn;
  deep.participants = std::vector<NodeId>(original.participants.begin(),
                                          original.participants.end());
  deep.ops = std::vector<Operation>(original.ops.begin(), original.ops.end());
  ASSERT_FALSE(deep.participants.SharesStorageWith(original.participants));

  EXPECT_EQ(shared.ApproximateBytes(), original.ApproximateBytes());
  EXPECT_EQ(deep.ApproximateBytes(), original.ApproximateBytes());
}

}  // namespace
}  // namespace ecdb
