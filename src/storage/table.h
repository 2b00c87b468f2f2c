#ifndef ECDB_STORAGE_TABLE_H_
#define ECDB_STORAGE_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/flat_map.h"
#include "common/operation.h"
#include "common/status.h"
#include "common/types.h"

namespace ecdb {

/// A row's index entry: where its cells live and how often it was
/// written. The evaluation workloads never inspect payload bytes, so
/// columns are modeled as 64-bit words (a YCSB row of 10 x 100B fields is
/// simulated with a configurable column count) and live in the owning
/// table's cell array; read them through Table::Columns.
struct Row {
  /// Bumped on every committed write; lets tests verify atomicity (all of a
  /// transaction's writes applied or none).
  uint64_t version = 0;

  /// Index of the row's cells in the table's cell array.
  uint32_t id = 0;
};

/// In-memory table, single-partition. Not thread-safe: in both runtimes a
/// partition is touched only by its owning node (shared-nothing), and the
/// threaded runtime serializes access through the node's event loop.
///
/// Layout: a key maps to its 16-byte Row (version plus row id) through one
/// of two indexes. The workloads key every table by a dense row number
/// (`key = row * P + partition`), so a bulk load (InsertRange) puts its
/// arithmetic progression of keys in a dense Row array indexed by
/// `(key - first) / stride`: the per-operation lookup (the innermost step
/// of every transaction) is a subtract, a divide and one load. Every other
/// key lives in an open-addressing FlatMap (a mix + mask + short probe).
/// The columns of row `id` are the num_columns() cells starting at
/// `id * num_columns()` of one contiguous cell array. Erase marks a dense
/// slot absent or drops the hash entry, and puts the row id on a free list;
/// the next insert reuses (and zeroes) its cells. No row owns a heap
/// allocation.
class Table {
 public:
  /// Empty placeholder table (needed by FlatMap slot storage); only tables
  /// made through the value constructor are ever reachable via GetTable.
  Table() = default;

  /// Creates a table whose rows have `num_columns` (at least 1) columns.
  Table(TableId id, std::string name, uint32_t num_columns);

  TableId id() const { return id_; }
  const std::string& name() const { return name_; }
  uint32_t num_columns() const { return num_columns_; }
  size_t size() const { return range_live_ + rows_.size(); }

  /// Bulk load: inserts `count` rows with all columns zero and the keys
  /// `first + k * stride` (k < count, stride at least 1), as row ids
  /// 0..count-1, in a dense row array. The table must never have held a
  /// row. Keys off the progression keep going through the hash index.
  void InsertRange(Key first, Key stride, uint32_t count);

  /// Inserts a row with all columns zero. Fails with AlreadyExists.
  Status Insert(Key key);

  /// Inserts a row with the given column values (padded with zeros or
  /// truncated to the schema width). Fails with AlreadyExists.
  Status InsertWith(Key key, const std::vector<uint64_t>& columns);

  /// Returns the row or NotFound. The pointer is valid only until the next
  /// mutation of the table: Insert can rehash the hash index and Erase
  /// backward-shifts index slots into the vacated one, either of which
  /// moves rows in memory. Do not hold it across Insert/InsertWith/Erase.
  Result<const Row*> Get(Key key) const;

  /// Mutable access for the execution engine. Returns NotFound if absent.
  /// Same validity contract as Get.
  Result<Row*> GetMutable(Key key);

  /// The row's num_columns() cells. Every cell access goes through here,
  /// and it ECDB_CHECKs the row id: one array holds every row, so an
  /// out-of-row write would otherwise corrupt a neighbour silently, out of
  /// AddressSanitizer's sight. Valid until the next Insert or InsertWith
  /// (either may grow, and so move, the array).
  std::span<uint64_t> Columns(const Row& row);
  std::span<const uint64_t> Columns(const Row& row) const;

  /// Removes a row and recycles its cells; NotFound if absent.
  Status Erase(Key key);

  /// Calls fn(key, row) for every row, in unspecified order. The table
  /// must not change during the walk.
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    for (uint64_t k = 0; k < range_count_; ++k) {
      const Row& row = range_.data()[k];
      if (row.id != kAbsent) fn(range_first_ + k * range_stride_, row);
    }
    for (const auto& slot : rows_) fn(slot.key, slot.value);
  }

 private:
  /// Zero-initialised elements in one anonymous memory mapping. The kernel
  /// backs the mapping with zero pages on first touch, so sizing the array
  /// costs neither a memset nor page faults, elements never written cost no
  /// resident memory, and no malloc arena ever owns it. T must be trivially
  /// copyable with all-zero bytes a valid value. Move-only.
  template <typename T>
  class MappedArray {
   public:
    MappedArray() = default;
    ~MappedArray();
    MappedArray(MappedArray&& other) noexcept;
    MappedArray& operator=(MappedArray&& other) noexcept;
    MappedArray(const MappedArray&) = delete;
    MappedArray& operator=(const MappedArray&) = delete;

    size_t capacity() const { return capacity_; }
    T* data() { return items_; }
    const T* data() const { return items_; }

    /// Grows to at least `n` elements, keeping the first `live` elements'
    /// values; every other element reads as zero. `huge_pages` asks for
    /// transparent huge pages (only a hint). The cells ask: a skewed write
    /// stream soon touches most of their pages, and a first write to a 4 KB
    /// page costs two faults (the read of the old value maps the zero page,
    /// the store copies it), where a huge page costs a fault or two per 2 MB.
    void Grow(size_t n, size_t live, bool huge_pages);

   private:
    T* items_ = nullptr;
    size_t capacity_ = 0;
  };

  /// Row id of an erased dense slot; Columns rejects it.
  static constexpr uint32_t kAbsent = UINT32_MAX;

  /// The dense slot of an in-range key on the progression (live or
  /// absent), or nullptr for any other key.
  Row* RangeSlot(Key key) {
    const uint64_t offset = key - range_first_;  // wraps below the range
    if (offset >= range_span_) return nullptr;
    const uint64_t k = offset / range_stride_;
    return k * range_stride_ == offset ? range_.data() + k : nullptr;
  }

  /// The live row for `key` in either index, or nullptr.
  Row* FindRow(Key key);

  /// Takes a recycled row id (its cells zeroed) or the next never-used one.
  uint32_t AllocateRow();

  TableId id_ = 0;
  std::string name_;
  uint32_t num_columns_ = 0;
  // Dense range from InsertRange: slot k holds key first + k * stride.
  MappedArray<Row> range_;
  Key range_first_ = 0;
  Key range_stride_ = 1;
  uint64_t range_count_ = 0;
  uint64_t range_span_ = 0;  // range_count_ * range_stride_
  size_t range_live_ = 0;    // dense slots not erased
  FlatMap<Key, Row> rows_;   // every key outside the dense range
  MappedArray<uint64_t> cells_;
  uint32_t next_row_ = 0;           // row ids below this have been handed out
  std::vector<uint32_t> free_rows_;  // erased row ids awaiting reuse
};

/// All tables owned by one partition. A node hosts exactly one partition in
/// the paper's deployment (partition-per-server), which we mirror.
class PartitionStore {
 public:
  explicit PartitionStore(PartitionId id) : id_(id) {}

  PartitionId id() const { return id_; }

  /// Creates a table; the same (id, schema) must be created on every
  /// partition that stores a slice of it. Fails with AlreadyExists, or
  /// with InvalidArgument for a zero-column schema (every write updates
  /// column 0).
  Status CreateTable(TableId id, const std::string& name,
                     uint32_t num_columns);

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
