// Unit tests for the write-ahead log (memory and file backends).

#include "wal/wal.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

namespace ecdb {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(LogRecordTest, PaperNames) {
  EXPECT_EQ(ToString(LogRecordType::kBeginCommit), "begin_commit");
  EXPECT_EQ(ToString(LogRecordType::kReady), "ready");
  EXPECT_EQ(ToString(LogRecordType::kCommitDecision),
            "global-commit-decision-reached");
  EXPECT_EQ(ToString(LogRecordType::kAbortReceived), "global-abort-received");
  EXPECT_EQ(ToString(LogRecordType::kTransactionCommit),
            "transaction-commit");
  EXPECT_EQ(ToString(LogRecordType::kPreCommit), "pre-commit");
}

TEST(MemoryWalTest, AppendAssignsSequentialLsns) {
  MemoryWal wal;
  EXPECT_EQ(wal.Append({0, 1, LogRecordType::kBeginCommit, {}}), 1u);
  EXPECT_EQ(wal.Append({0, 1, LogRecordType::kCommitDecision, {}}), 2u);
  EXPECT_EQ(wal.Size(), 2u);
}

TEST(MemoryWalTest, ScanReturnsAppendOrder) {
  MemoryWal wal;
  wal.Append({0, 7, LogRecordType::kReady, {}});
  wal.Append({0, 8, LogRecordType::kReady, {}});
  const auto records = wal.Scan();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].txn, 7u);
  EXPECT_EQ(records[1].txn, 8u);
}

TEST(MemoryWalTest, ClearEmptiesLog) {
  MemoryWal wal;
  wal.Append({0, 1, LogRecordType::kReady, {}});
  wal.Clear();
  EXPECT_EQ(wal.Size(), 0u);
}

TEST(MemoryWalTest, ParticipantsArePreserved) {
  MemoryWal wal;
  wal.Append({0, 1, LogRecordType::kReady, {3, 1, 4}});
  EXPECT_EQ(wal.Scan().back().participants, (std::vector<NodeId>{3, 1, 4}));
}

TEST(FileWalTest, OpenCreatesFile) {
  const std::string path = TempPath("wal_create.log");
  std::remove(path.c_str());
  auto wal = FileWal::Open(path);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(wal.value()->Size(), 0u);
}

TEST(FileWalTest, AppendAndScan) {
  const std::string path = TempPath("wal_scan.log");
  std::remove(path.c_str());
  auto wal = std::move(FileWal::Open(path)).value();
  wal->Append({0, 11, LogRecordType::kBeginCommit, {}});
  wal->Append({0, 11, LogRecordType::kCommitDecision, {}});
  const auto records = wal->Scan();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].type, LogRecordType::kBeginCommit);
  EXPECT_EQ(records[1].lsn, 2u);
}

TEST(FileWalTest, SurvivesReopen) {
  const std::string path = TempPath("wal_reopen.log");
  std::remove(path.c_str());
  {
    auto wal = std::move(FileWal::Open(path)).value();
    wal->Append({0, 5, LogRecordType::kReady, {0, 1, 2}});
    wal->Append({0, 5, LogRecordType::kCommitReceived, {}});
    ASSERT_TRUE(wal->Flush().ok());
  }
  auto wal = std::move(FileWal::Open(path)).value();
  ASSERT_EQ(wal->Size(), 2u);
  EXPECT_EQ(wal->Scan()[1].type, LogRecordType::kCommitReceived);
  EXPECT_EQ(wal->Scan()[0].participants, (std::vector<NodeId>{0, 1, 2}));
}

TEST(FileWalTest, WideRecordSurvivesReopen) {
  // A ready list of 300 participants: wider than one byte can count. The
  // record and everything flushed after it must come back on reopen.
  const std::string path = TempPath("wal_wide.log");
  std::remove(path.c_str());
  std::vector<NodeId> wide(300);
  for (NodeId i = 0; i < wide.size(); ++i) wide[i] = i;
  {
    auto wal = std::move(FileWal::Open(path)).value();
    wal->Append({0, 5, LogRecordType::kReady, CowVector<NodeId>(wide)});
    wal->Append({0, 5, LogRecordType::kCommitReceived, {}});
    ASSERT_TRUE(wal->Flush().ok());
    ASSERT_EQ(wal->Size(), 2u);
  }
  auto wal = std::move(FileWal::Open(path)).value();
  ASSERT_EQ(wal->Size(), 2u);
  EXPECT_EQ(wal->Scan()[0].participants, wide);
  EXPECT_EQ(wal->Scan()[1].type, LogRecordType::kCommitReceived);
  // Appends after the reopen land behind the wide record, not over it.
  wal->Append({0, 6, LogRecordType::kReady, {}});
  ASSERT_TRUE(wal->Flush().ok());
  wal = std::move(FileWal::Open(path)).value();
  EXPECT_EQ(wal->Size(), 3u);
}

TEST(FileWalTest, AppendsAfterReopenContinueLsns) {
  const std::string path = TempPath("wal_continue.log");
  std::remove(path.c_str());
  {
    auto wal = std::move(FileWal::Open(path)).value();
    wal->Append({0, 5, LogRecordType::kReady, {}});
  }
  auto wal = std::move(FileWal::Open(path)).value();
  EXPECT_EQ(wal->Append({0, 5, LogRecordType::kTransactionCommit, {}}), 2u);
  EXPECT_EQ(wal->Size(), 2u);
}

TEST(FileWalTest, TornTailIsIgnored) {
  const std::string path = TempPath("wal_torn.log");
  std::remove(path.c_str());
  {
    auto wal = std::move(FileWal::Open(path)).value();
    wal->Append({0, 5, LogRecordType::kReady, {}});
    wal->Append({0, 6, LogRecordType::kReady, {}});
    ASSERT_TRUE(wal->Flush().ok());
  }
  // Append garbage (a torn write) at the end.
  std::FILE* f = std::fopen(path.c_str(), "ab");
  const unsigned char junk[5] = {0xDE, 0xAD, 0xBE, 0xEF, 0x00};
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);

  auto wal = std::move(FileWal::Open(path)).value();
  EXPECT_EQ(wal->Size(), 2u);  // valid prefix only
}

TEST(FileWalTest, AppendsAfterTornTailSurviveTheNextReopen) {
  const std::string path = TempPath("wal_torn_reopen.log");
  std::remove(path.c_str());
  {
    auto wal = std::move(FileWal::Open(path)).value();
    for (TxnId txn = 1; txn <= 3; ++txn) {
      wal->Append({0, txn, LogRecordType::kReady, {}});
    }
    ASSERT_TRUE(wal->Flush().ok());
  }
  std::FILE* f = std::fopen(path.c_str(), "ab");
  const unsigned char junk[7] = {0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02, 0x03};
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  {
    auto wal = std::move(FileWal::Open(path)).value();
    ASSERT_EQ(wal->Size(), 3u);
    for (TxnId txn = 4; txn <= 6; ++txn) {
      wal->Append({0, txn, LogRecordType::kReady, {}});
    }
    ASSERT_TRUE(wal->Flush().ok());
    EXPECT_EQ(wal->Size(), 6u);
  }
  // Recovery after recovery: the records appended after the first replay
  // must not sit behind the torn bytes.
  auto wal = std::move(FileWal::Open(path)).value();
  ASSERT_EQ(wal->Size(), 6u);
  EXPECT_EQ(wal->Scan().back().txn, 6u);
}

TEST(FileWalTest, OpenFailsForBadPath) {
  auto wal = FileWal::Open("/nonexistent-dir-xyz/wal.log");
  EXPECT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), Code::kIOError);
}

// --------------------------------------------------------------------------
// Group commit
// --------------------------------------------------------------------------

TEST(FileWalTest, GroupCommitCrashLosesOnlyUnflushedSuffix) {
  const std::string path = TempPath("wal_group_crash.log");
  std::remove(path.c_str());
  {
    auto wal = std::move(FileWal::Open(path)).value();
    wal->Append({0, 1, LogRecordType::kReady, {}});
    wal->Append({0, 2, LogRecordType::kReady, {}});
    ASSERT_TRUE(wal->Flush().ok());  // group boundary: 1-2 durable
    wal->Append({0, 3, LogRecordType::kReady, {}});
    wal->Append({0, 4, LogRecordType::kReady, {}});

    // Staged appends are visible to Scan immediately — the engine reads
    // its own writes before the group is flushed.
    EXPECT_EQ(wal->Size(), 4u);
    EXPECT_EQ(wal->Scan().back().txn, 4u);
    EXPECT_EQ(wal->group_flushes(), 1u);

    wal->DropUnflushed();  // crash: the unflushed group never hit disk
    EXPECT_EQ(wal->Size(), 2u);
    EXPECT_EQ(wal->Scan().back().txn, 2u);
  }
  auto wal = std::move(FileWal::Open(path)).value();
  ASSERT_EQ(wal->Size(), 2u);  // recovery replays exactly the flushed prefix
  EXPECT_EQ(wal->Scan()[1].txn, 2u);
  // New appends continue the LSN sequence from the surviving prefix.
  EXPECT_EQ(wal->Append({0, 9, LogRecordType::kReady, {}}), 3u);
}

TEST(FileWalTest, DestructorFlushesStagedAppends) {
  // Orderly shutdown is not a crash: staged records reach the file even
  // without an explicit Flush.
  const std::string path = TempPath("wal_dtor_flush.log");
  std::remove(path.c_str());
  {
    auto wal = std::move(FileWal::Open(path)).value();
    wal->Append({0, 5, LogRecordType::kCommitDecision, {}});
  }
  auto wal = std::move(FileWal::Open(path)).value();
  EXPECT_EQ(wal->Size(), 1u);
}

TEST(FileWalTest, AppendBatchIsOneGroup) {
  const std::string path = TempPath("wal_batch.log");
  std::remove(path.c_str());
  auto wal = std::move(FileWal::Open(path)).value();
  std::vector<LogRecord> batch = {
      {0, 1, LogRecordType::kReady, {}},
      {0, 2, LogRecordType::kReady, {}},
      {0, 3, LogRecordType::kReady, {}},
  };
  EXPECT_EQ(wal->AppendBatch(&batch), 3u);  // returns the last LSN
  EXPECT_TRUE(batch.empty());               // drained
  ASSERT_TRUE(wal->Flush().ok());
  EXPECT_EQ(wal->group_flushes(), 1u);  // three appends, one write+flush
  EXPECT_EQ(wal->Size(), 3u);
}

TEST(FileWalTest, FlushWithNothingPendingIsFree) {
  const std::string path = TempPath("wal_empty_flush.log");
  std::remove(path.c_str());
  auto wal = std::move(FileWal::Open(path)).value();
  ASSERT_TRUE(wal->Flush().ok());
  ASSERT_TRUE(wal->Flush().ok());
  EXPECT_EQ(wal->group_flushes(), 0u);  // no pending group, no flush counted
}

TEST(MemoryWalTest, GroupFlushCountsCoveredGroups) {
  MemoryWal wal;
  wal.Append({0, 1, LogRecordType::kReady, {}});
  wal.Append({0, 2, LogRecordType::kReady, {}});
  ASSERT_TRUE(wal.Flush().ok());
  ASSERT_TRUE(wal.Flush().ok());  // empty group: not counted
  wal.Append({0, 3, LogRecordType::kReady, {}});
  ASSERT_TRUE(wal.Flush().ok());
  EXPECT_EQ(wal.group_flushes(), 2u);
}

}  // namespace
}  // namespace ecdb
