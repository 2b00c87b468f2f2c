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

/// Hash-indexed in-memory table, single-partition. Not thread-safe: in both
/// runtimes a partition is touched only by its owning node (shared-nothing),
/// and the threaded runtime serializes access through the node's event loop.
///
/// Layout: an open-addressing FlatMap maps each key to its 16-byte Row
/// (version plus row id), so the per-operation lookup (the innermost step
/// of every transaction) is a mix + mask + short probe. The columns of row
/// `id` are the num_columns() cells starting at `id * num_columns()` of one
/// contiguous CellArray. Loading a row writes only its index slot; Erase
/// puts the row id on a free list and the next insert reuses (and zeroes)
/// its cells. No row owns a heap allocation.
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
  size_t size() const { return rows_.size(); }

  /// Pre-sizes the row index and the cell array for `n` rows so a bulk
  /// load performs no rehash or copy mid-fill (the workload loaders call
  /// this before inserting).
  void Reserve(size_t n);

  /// Inserts a row with all columns zero. Fails with AlreadyExists.
  Status Insert(Key key);

  /// Inserts a row with the given column values (padded with zeros or
  /// truncated to the schema width). Fails with AlreadyExists.
  Status InsertWith(Key key, const std::vector<uint64_t>& columns);

  /// Returns the row or NotFound. The pointer is valid only until the next
  /// mutation of the table: Insert can rehash the row index and Erase
  /// backward-shifts index slots into the vacated one, either of which
  /// moves rows in memory. Do not hold it across Insert/InsertWith/Erase/
  /// Reserve.
  Result<const Row*> Get(Key key) const;

  /// Mutable access for the execution engine. Returns NotFound if absent.
  /// Same validity contract as Get.
  Result<Row*> GetMutable(Key key);

  /// The row's num_columns() cells. Every cell access goes through here,
  /// and it ECDB_CHECKs the row id: one array holds every row, so an
  /// out-of-row write would otherwise corrupt a neighbour silently, out of
  /// AddressSanitizer's sight. Valid until the next Insert, InsertWith or
  /// Reserve (each may grow, and so move, the array).
  std::span<uint64_t> Columns(const Row& row);
  std::span<const uint64_t> Columns(const Row& row) const;

  /// Removes a row and recycles its cells; NotFound if absent.
  Status Erase(Key key);

  /// Calls fn(key, row) for every row, in unspecified order. The table
  /// must not change during the walk.
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    for (const auto& slot : rows_) fn(slot.key, slot.value);
  }

 private:
  /// Zero-initialised 64-bit cells in one anonymous memory mapping. The
  /// kernel backs the mapping with zero pages on first touch, so sizing the
  /// array costs neither a memset nor page faults, and cells never written
  /// cost no resident memory. Move-only.
  class CellArray {
   public:
    CellArray() = default;
    ~CellArray();
    CellArray(CellArray&& other) noexcept;
    CellArray& operator=(CellArray&& other) noexcept;
    CellArray(const CellArray&) = delete;
    CellArray& operator=(const CellArray&) = delete;

    size_t capacity() const { return capacity_; }
    uint64_t* data() { return cells_; }
    const uint64_t* data() const { return cells_; }

    /// Grows to at least `n` cells, keeping the first `live` cells' values;
    /// every other cell reads as zero.
    void Grow(size_t n, size_t live);

   private:
    uint64_t* cells_ = nullptr;
    size_t capacity_ = 0;
  };

  /// Takes a recycled row id (its cells zeroed) or the next never-used one.
  uint32_t AllocateRow();

  TableId id_ = 0;
  std::string name_;
  uint32_t num_columns_ = 0;
  FlatMap<Key, Row> rows_;
  CellArray cells_;
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
