#include "wal/wal.h"

#include <unistd.h>

#include <cstring>
#include <utility>

namespace ecdb {

std::string ToString(LogRecordType type) {
  switch (type) {
    case LogRecordType::kBeginCommit:
      return "begin_commit";
    case LogRecordType::kReady:
      return "ready";
    case LogRecordType::kPreCommit:
      return "pre-commit";
    case LogRecordType::kCommitDecision:
      return "global-commit-decision-reached";
    case LogRecordType::kAbortDecision:
      return "global-abort-decision-reached";
    case LogRecordType::kCommitReceived:
      return "global-commit-received";
    case LogRecordType::kAbortReceived:
      return "global-abort-received";
    case LogRecordType::kTransactionCommit:
      return "transaction-commit";
    case LogRecordType::kTransactionAbort:
      return "transaction-abort";
    case LogRecordType::kPreAbort:
      return "pre-abort";
    case LogRecordType::kQuorumState:
      return "quorum-state";
    case LogRecordType::kPaxosState:
      return "paxos-state";
  }
  return "unknown";
}

uint64_t WriteAheadLog::AppendBatch(std::vector<LogRecord>* records) {
  uint64_t last = 0;
  for (LogRecord& r : *records) last = Append(std::move(r));
  records->clear();
  return last;
}

uint64_t MemoryWal::Append(LogRecord record) {
  record.lsn = records_.size() + 1;
  records_.push_back(std::move(record));  // lsn stays readable below
  appended_since_flush_++;
  return record.lsn;
}

Status MemoryWal::Flush() {
  if (appended_since_flush_ > 0) {
    group_flushes_++;
    appended_since_flush_ = 0;
  }
  return Status::OK();
}

std::vector<LogRecord> MemoryWal::Scan() const { return records_; }

std::optional<LogRecord> MemoryWal::LastFor(TxnId txn) const {
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (it->txn == txn) return *it;
  }
  return std::nullopt;
}

namespace {

// On-disk framing:
// [magic u16][type u8][npart u8][txn u64][lsn u64][participants u32 x n]
// [check u32]. `check` is a simple mix of the fields, enough to catch torn
// writes at the tail.
constexpr uint16_t kRecordMagic = 0xECDB;
constexpr size_t kHeaderBytes = 2 + 1 + 1 + 8 + 8;

uint32_t Checksum(const LogRecord& r) {
  uint64_t h = r.txn * 0x9E3779B97f4A7C15ULL;
  h ^= static_cast<uint64_t>(r.type) << 32;
  h ^= r.lsn * 0xBF58476D1CE4E5B9ULL;
  for (NodeId p : r.participants) {
    h = (h ^ p) * 0x94D049BB133111EBULL;
  }
  return static_cast<uint32_t>(h ^ (h >> 32));
}

// Appends the encoding of `r` to `*out` (the staging buffer), so a whole
// group of records encodes into one contiguous write.
void EncodeRecord(const LogRecord& r, std::vector<unsigned char>* out) {
  const size_t start = out->size();
  out->resize(start + kHeaderBytes + 4 * r.participants.size() + 4);
  unsigned char* p = out->data() + start;
  std::memcpy(p, &kRecordMagic, 2);
  p[2] = static_cast<unsigned char>(r.type);
  p[3] = static_cast<unsigned char>(r.participants.size());
  std::memcpy(p + 4, &r.txn, 8);
  std::memcpy(p + 12, &r.lsn, 8);
  size_t off = kHeaderBytes;
  for (NodeId part : r.participants) {
    uint32_t v = part;
    std::memcpy(p + off, &v, 4);
    off += 4;
  }
  const uint32_t check = Checksum(r);
  std::memcpy(p + off, &check, 4);
}

// Reads one record from `file`; false on EOF or corruption.
bool ReadRecord(std::FILE* file, LogRecord* out) {
  unsigned char header[kHeaderBytes];
  if (std::fread(header, 1, kHeaderBytes, file) != kHeaderBytes) return false;
  uint16_t magic;
  std::memcpy(&magic, header, 2);
  if (magic != kRecordMagic) return false;
  out->type = static_cast<LogRecordType>(header[2]);
  const size_t npart = header[3];
  std::memcpy(&out->txn, header + 4, 8);
  std::memcpy(&out->lsn, header + 12, 8);
  out->participants.clear();
  for (size_t i = 0; i < npart; ++i) {
    uint32_t v;
    if (std::fread(&v, 1, 4, file) != 4) return false;
    out->participants.push_back(v);
  }
  uint32_t check;
  if (std::fread(&check, 1, 4, file) != 4) return false;
  return check == Checksum(*out);
}

}  // namespace

FileWal::FileWal(std::string path, std::FILE* file)
    : path_(std::move(path)), file_(file) {}

FileWal::~FileWal() {
  // Orderly shutdown is not a crash: staged records go out with the log.
  // Nothing to report a flush failure to here; the file is closing anyway.
  (void)Flush();
  if (file_ != nullptr) std::fclose(file_);
}

Result<std::unique_ptr<FileWal>> FileWal::Open(const std::string& path) {
  // a+b: reads allowed anywhere, writes always append.
  std::FILE* file = std::fopen(path.c_str(), "a+b");
  if (file == nullptr) {
    return Status::IOError("cannot open WAL at " + path);
  }
  auto wal = std::unique_ptr<FileWal>(new FileWal(path, file));

  // Replay existing records; stop at the first torn/corrupt frame and cut
  // the file back to the last good record. Appends land at the end of the
  // file, so a torn tail left in place would hide every later record from
  // the next replay.
  std::fseek(file, 0, SEEK_SET);
  LogRecord record;
  long good_end = 0;
  while (ReadRecord(file, &record)) {
    wal->records_.push_back(record);
    good_end = std::ftell(file);
  }
  std::fseek(file, 0, SEEK_END);
  if (std::ftell(file) > good_end &&
      (ftruncate(fileno(file), good_end) != 0 ||
       std::fseek(file, 0, SEEK_END) != 0)) {
    return Status::IOError("cannot truncate torn WAL tail at " + path);
  }
  wal->flushed_records_ = wal->records_.size();
  return wal;
}

uint64_t FileWal::Append(LogRecord record) {
  record.lsn = records_.size() + 1;
  EncodeRecord(record, &pending_);
  records_.push_back(std::move(record));
  return records_.back().lsn;
}

uint64_t FileWal::AppendBatch(std::vector<LogRecord>* records) {
  uint64_t last = 0;
  for (LogRecord& r : *records) last = Append(std::move(r));
  records->clear();
  return last;
}

std::vector<LogRecord> FileWal::Scan() const { return records_; }

std::optional<LogRecord> FileWal::LastFor(TxnId txn) const {
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (it->txn == txn) return *it;
  }
  return std::nullopt;
}

Status FileWal::Flush() {
  if (pending_.empty()) return Status::OK();
  if (std::fwrite(pending_.data(), 1, pending_.size(), file_) !=
      pending_.size()) {
    return Status::IOError("WAL group write failed");
  }
  if (std::fflush(file_) != 0) return Status::IOError("fflush failed");
  pending_.clear();
  flushed_records_ = records_.size();
  group_flushes_++;
  return Status::OK();
}

void FileWal::DropUnflushed() {
  pending_.clear();
  records_.resize(flushed_records_);
}

}  // namespace ecdb
