#ifndef ECDB_WAL_WAL_H_
#define ECDB_WAL_WAL_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "wal/log_record.h"

namespace ecdb {

/// The write-ahead log: one in-memory record store per node. Commit
/// protocols append their milestone entries here before acting (write-ahead
/// rule), and recovery reads it back after a restart. The simulator keeps
/// the object alive across simulated crashes, which models stable storage
/// exactly as the paper assumes; FileWal adds an on-disk copy.
class MemoryWal {
 public:
  MemoryWal() = default;
  virtual ~MemoryWal() = default;

  MemoryWal(const MemoryWal&) = delete;
  MemoryWal& operator=(const MemoryWal&) = delete;

  /// Appends `record`, assigns and returns its LSN (monotonic from 1).
  virtual uint64_t Append(LogRecord record);

  /// Appends every record in `*records` in order as one group, assigning
  /// consecutive LSNs. `*records` is drained (cleared, capacity kept) so
  /// callers recycle the buffer. Returns the LSN of the last record, or 0
  /// when the batch is empty.
  uint64_t AppendBatch(std::vector<LogRecord>* records);

  /// Group commit: makes every record appended since the previous Flush
  /// durable with a single device round-trip. Memory is "durable" the
  /// moment Append returns, so here Flush only keeps the accounting: a
  /// flush with appends pending since the previous one counts.
  virtual Status Flush();

  /// Number of flushes that actually covered pending records — each one
  /// stands in for the per-append syncs group commit amortized away.
  uint64_t group_flushes() const { return group_flushes_; }

  /// Every record in append order. The reference is invalidated by the
  /// next append: read to the end before writing.
  const std::vector<LogRecord>& Scan() const { return records_; }

  /// Number of appended records.
  uint64_t Size() const { return records_.size(); }

  /// Drops all records; used when a test re-initializes stable storage.
  void Clear() { records_.clear(); }

 protected:
  std::vector<LogRecord> records_;
  uint64_t appended_since_flush_ = 0;  // records not yet covered by Flush

 private:
  uint64_t group_flushes_ = 0;
};

/// File-backed WAL with a binary record format and a checksum per record.
/// Used by the threaded and socket hosts to recover from an on-disk log.
class FileWal : public MemoryWal {
 public:
  /// Opens (creating if needed) the log at `path` and replays existing
  /// records into the in-memory store.
  static Result<std::unique_ptr<FileWal>> Open(const std::string& path);

  ~FileWal() override;

  /// Appends stage the encoded record in an internal buffer; nothing
  /// reaches the file until Flush (group commit). Scan sees staged records
  /// immediately — the write-ahead rule is enforced by the host flushing
  /// before it acts on the logged decision, not per append.
  uint64_t Append(LogRecord record) override;

  /// Writes every staged record and flushes the OS buffer once — the
  /// single device round-trip that covers the whole group. No-op (and not
  /// counted) when nothing is staged.
  Status Flush() override;

  /// Crash hook for tests: discards records staged but never flushed, as
  /// a real crash would — the in-memory store is truncated back to the
  /// durable prefix so a subsequent Scan matches what reopen would see.
  void DropUnflushed();

  const std::string& path() const { return path_; }

 private:
  explicit FileWal(std::string path, std::FILE* file);

  std::string path_;
  std::FILE* file_;
  std::vector<unsigned char> pending_;  // encoded, staged since last flush
};

}  // namespace ecdb

#endif  // ECDB_WAL_WAL_H_
