#ifndef ECDB_STORAGE_TABLE_H_
#define ECDB_STORAGE_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "common/flat_map.h"
#include "common/operation.h"
#include "common/status.h"
#include "common/types.h"

namespace ecdb {

/// Index of a row in its table: row k holds the key `first + k * stride`.
using RowId = uint32_t;

/// In-memory table, single-partition. Not thread-safe: in both runtimes a
/// partition is touched only by its owning node (shared-nothing), and the
/// threaded runtime serializes access through the node's event loop.
///
/// The workloads key every table by a dense row number
/// (`key = row * P + partition`), so a table holds exactly the keys
/// `first + k * stride` for k < count, fixed when it is created, and key
/// `key` is row `(key - first) / stride`: a lookup is a subtract, a divide
/// and no memory access. Every other key is NotFound. The evaluation
/// workloads never inspect payload bytes, so columns are modeled as 64-bit
/// words (a YCSB row of 10 x 100B fields is simulated with a configurable
/// column count). Row k is the num_columns() + 1 words starting at
/// `k * (num_columns() + 1)` of one zero-filled anonymous mapping: word 0
/// is the row's version, the rest its cells. Creating a table maps the
/// words and writes none of them, so a row costs memory only once written.
class Table {
 public:
  /// Empty placeholder table (needed by FlatMap slot storage); only tables
  /// made through the value constructor are ever reachable via GetTable.
  Table() = default;

  /// Creates a table whose rows have `num_columns` (at least 1) columns and
  /// the keys `first + k * stride` (k < count, stride at least 1), every
  /// version and cell zero.
  Table(TableId id, std::string name, uint32_t num_columns, Key first,
        Key stride, uint32_t count);

  TableId id() const { return id_; }
  const std::string& name() const { return name_; }
  uint32_t num_columns() const { return num_columns_; }
  size_t size() const { return count_; }

  /// The row holding `key`, or NotFound.
  Result<RowId> Get(Key key) const {
    const uint64_t offset = key - first_;  // wraps below the range
    if (offset >= span_) return Status::NotFound();
    const uint64_t k = offset / stride_;
    if (k * stride_ != offset) return Status::NotFound();
    return static_cast<RowId>(k);
  }

  /// Bumped on every committed write; lets tests verify atomicity (all of a
  /// transaction's writes applied or none). ECDB_CHECKs the row id, as
  /// Columns does.
  uint64_t& Version(RowId row) { return words_.data()[RowStart(row)]; }
  uint64_t Version(RowId row) const { return words_.data()[RowStart(row)]; }

  /// The row's num_columns() cells. Every cell access goes through here,
  /// and it ECDB_CHECKs the row id: one mapping holds every row, so an
  /// out-of-row write would otherwise corrupt a neighbour silently, out of
  /// AddressSanitizer's sight.
  std::span<uint64_t> Columns(RowId row) {
    return {words_.data() + RowStart(row) + 1, num_columns_};
  }
  std::span<const uint64_t> Columns(RowId row) const {
    return {words_.data() + RowStart(row) + 1, num_columns_};
  }

 private:
  /// Zero-initialised elements in one anonymous memory mapping. The kernel
  /// backs the mapping with zero pages on first touch, so sizing the array
  /// costs neither a memset nor page faults, elements never written cost no
  /// resident memory, and no malloc arena ever owns it. The mapping asks
  /// for transparent huge pages (only a hint): a skewed write stream soon
  /// touches most of its pages, and a first write to a 4 KB page costs two
  /// faults (the read of the old value maps the zero page, the store copies
  /// it), where a huge page costs a fault or two per 2 MB. T must be
  /// trivially copyable with all-zero bytes a valid value. Move-only.
  template <typename T>
  class MappedArray {
   public:
    MappedArray() = default;
    explicit MappedArray(size_t n);
    ~MappedArray();
    MappedArray(MappedArray&& other) noexcept;
    MappedArray& operator=(MappedArray&& other) noexcept;
    MappedArray(const MappedArray&) = delete;
    MappedArray& operator=(const MappedArray&) = delete;

    T* data() { return items_; }
    const T* data() const { return items_; }

   private:
    T* items_ = nullptr;
    size_t bytes_ = 0;
  };

  /// Index of row `row`'s version word.
  size_t RowStart(RowId row) const;

  TableId id_ = 0;
  std::string name_;
  uint32_t num_columns_ = 0;
  Key first_ = 0;
  Key stride_ = 1;
  uint32_t count_ = 0;
  uint64_t span_ = 0;  // count_ * stride_
  MappedArray<uint64_t> words_;  // count_ rows of num_columns_ + 1 words
};

/// All tables owned by one partition. A node hosts exactly one partition in
/// the paper's deployment (partition-per-server), which we mirror.
class PartitionStore {
 public:
  explicit PartitionStore(PartitionId id) : id_(id) {}

  PartitionId id() const { return id_; }

  /// Creates a table holding the keys `first + k * stride` (k < count),
  /// every version and cell zero (see Table); the same (id, schema) must be
  /// created on every partition that stores a slice of it. Fails with
  /// AlreadyExists, or with InvalidArgument for a zero-column schema (every
  /// write updates column 0).
  Status CreateTable(TableId id, const std::string& name, uint32_t num_columns,
                     Key first, Key stride, uint32_t count);

  /// Returns the table or nullptr. The pointer is valid until the next
  /// CreateTable (which may rehash the table index).
  Table* GetTable(TableId id);
  const Table* GetTable(TableId id) const;

  size_t num_tables() const { return tables_.size(); }

 private:
  PartitionId id_;
  FlatMap<TableId, Table> tables_;
};

/// Maps a key to the partition that owns it. The paper's ExpoDB hashes keys
/// to partitions; YCSB uses key % partitions and TPC-C partitions by
/// warehouse. A `KeyPartitioner` captures that policy.
class KeyPartitioner {
 public:
  explicit KeyPartitioner(uint32_t num_partitions)
      : num_partitions_(num_partitions) {}

  uint32_t num_partitions() const { return num_partitions_; }

  /// Default policy: modulo. Workloads that encode the partition into the
  /// key (TPC-C warehouse id) arrange their key encoding so this is exact.
  PartitionId PartitionOf(Key key) const {
    return static_cast<PartitionId>(key % num_partitions_);
  }

 private:
  uint32_t num_partitions_;
};

}  // namespace ecdb

#endif  // ECDB_STORAGE_TABLE_H_
