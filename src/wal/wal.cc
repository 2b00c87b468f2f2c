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

uint64_t MemoryWal::Append(LogRecord record) {
  record.lsn = records_.size() + 1;
  records_.push_back(std::move(record));  // lsn stays readable below
  appended_since_flush_++;
  return record.lsn;
}

uint64_t MemoryWal::AppendBatch(std::vector<LogRecord>* records) {
  uint64_t last = 0;
  for (LogRecord& r : *records) last = Append(std::move(r));
  records->clear();
  return last;
}

Status MemoryWal::Flush() {
  if (appended_since_flush_ > 0) {
    group_flushes_++;
    appended_since_flush_ = 0;
  }
  return Status::OK();
}

namespace {

// On-disk framing:
// [magic u16][type u8][npart u32][txn u64][lsn u64][participants u32 x n]
// [check u32]. `check` is a simple mix of the fields, enough to catch torn
// writes at the tail. The count is as wide as a participant id: a Paxos
// snapshot of 64 instances already packs more than 255 words.
constexpr uint16_t kRecordMagic = 0xECDB;
constexpr size_t kHeaderBytes = 2 + 1 + 4 + 8 + 8;

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
  const uint32_t npart = static_cast<uint32_t>(r.participants.size());
  std::memcpy(p + 3, &npart, 4);
  std::memcpy(p + 7, &r.txn, 8);
  std::memcpy(p + 15, &r.lsn, 8);
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
  uint32_t npart;
  std::memcpy(&npart, header + 3, 4);
  std::memcpy(&out->txn, header + 7, 8);
  std::memcpy(&out->lsn, header + 15, 8);
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
  return wal;
}

uint64_t FileWal::Append(LogRecord record) {
  const uint64_t lsn = MemoryWal::Append(std::move(record));
  EncodeRecord(records_.back(), &pending_);
  return lsn;
}

Status FileWal::Flush() {
  if (pending_.empty()) return Status::OK();
  if (std::fwrite(pending_.data(), 1, pending_.size(), file_) !=
      pending_.size()) {
    return Status::IOError("WAL group write failed");
  }
  if (std::fflush(file_) != 0) return Status::IOError("fflush failed");
  pending_.clear();
  return MemoryWal::Flush();
}

void FileWal::DropUnflushed() {
  pending_.clear();
  records_.resize(records_.size() - appended_since_flush_);
  appended_since_flush_ = 0;
}

}  // namespace ecdb
