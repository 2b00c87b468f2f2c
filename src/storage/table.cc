#include "storage/table.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <utility>

#include "common/logging.h"

namespace ecdb {

template <typename T>
Table::MappedArray<T>::~MappedArray() {
  if (items_ != nullptr) munmap(items_, capacity_ * sizeof(T));
}

template <typename T>
Table::MappedArray<T>::MappedArray(MappedArray&& other) noexcept
    : items_(std::exchange(other.items_, nullptr)),
      capacity_(std::exchange(other.capacity_, 0)) {}

template <typename T>
Table::MappedArray<T>& Table::MappedArray<T>::operator=(
    MappedArray&& other) noexcept {
  // The moved-from array takes over (and eventually unmaps) ours.
  std::swap(items_, other.items_);
  std::swap(capacity_, other.capacity_);
  return *this;
}

template <typename T>
void Table::MappedArray<T>::Grow(size_t n, size_t live, bool huge_pages) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (n <= capacity_) return;
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  const size_t bytes = (n * sizeof(T) + page - 1) / page * page;
  void* mapped = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ECDB_CHECK(mapped != MAP_FAILED);
  if (huge_pages) madvise(mapped, bytes, MADV_HUGEPAGE);
  MappedArray grown;
  grown.items_ = static_cast<T*>(mapped);
  grown.capacity_ = bytes / sizeof(T);
  if (live > 0) std::memcpy(grown.items_, items_, live * sizeof(T));
  *this = std::move(grown);
}

// The only two element types; defined here, used by every Table's
// (implicit, inline) destructor and move operations.
template class Table::MappedArray<Row>;
template class Table::MappedArray<uint64_t>;

Table::Table(TableId id, std::string name, uint32_t num_columns)
    : id_(id), name_(std::move(name)), num_columns_(num_columns) {
  ECDB_CHECK(num_columns_ > 0);
}

void Table::InsertRange(Key first, Key stride, uint32_t count) {
  ECDB_CHECK(next_row_ == 0);  // no row was ever inserted
  ECDB_CHECK(stride > 0);
  ECDB_CHECK(count <= (UINT64_MAX - first) / stride);  // no key wraps
  // Written in full right here: huge pages would only add compaction and
  // 2 MB zeroing to the load's faults.
  range_.Grow(count, 0, /*huge_pages=*/false);
  Row* slots = range_.data();
  for (uint32_t k = 0; k < count; ++k) slots[k].id = k;  // versions read 0
  range_first_ = first;
  range_stride_ = stride;
  range_count_ = count;
  range_span_ = uint64_t{count} * stride;
  range_live_ = count;
  cells_.Grow(size_t{count} * num_columns_, 0, /*huge_pages=*/true);
  next_row_ = count;
}

uint32_t Table::AllocateRow() {
  if (!free_rows_.empty()) {
    const uint32_t id = free_rows_.back();
    free_rows_.pop_back();
    std::fill_n(cells_.data() + size_t{id} * num_columns_, num_columns_, 0);
    return id;
  }
  const size_t used = size_t{next_row_} * num_columns_;
  if (used + num_columns_ > cells_.capacity()) {
    cells_.Grow(std::max(2 * cells_.capacity(), used + num_columns_), used,
                /*huge_pages=*/true);
  }
  return next_row_++;
}

Status Table::Insert(Key key) {
  if (Row* slot = RangeSlot(key)) {
    if (slot->id != kAbsent) {
      return Status::AlreadyExists("key already in table " + name_);
    }
    *slot = Row{0, AllocateRow()};
    ++range_live_;
    return Status::OK();
  }
  auto [row, inserted] = rows_.Emplace(key, Row{});
  if (!inserted) {
    return Status::AlreadyExists("key already in table " + name_);
  }
  row->id = AllocateRow();  // touches only the cells, so `row` stays valid
  return Status::OK();
}

Status Table::InsertWith(Key key, const std::vector<uint64_t>& columns) {
  Status status = Insert(key);
  if (!status.ok()) return status;
  std::span<uint64_t> cells = Columns(*FindRow(key));
  std::copy_n(columns.begin(), std::min(columns.size(), cells.size()),
              cells.begin());
  return Status::OK();
}

Row* Table::FindRow(Key key) {
  if (Row* slot = RangeSlot(key)) return slot->id == kAbsent ? nullptr : slot;
  return rows_.Find(key);
}

Result<const Row*> Table::Get(Key key) const {
  const Row* row = const_cast<Table*>(this)->FindRow(key);
  if (row == nullptr) return Status::NotFound();
  return row;
}

Result<Row*> Table::GetMutable(Key key) {
  Row* row = FindRow(key);
  if (row == nullptr) return Status::NotFound();
  return row;
}

std::span<uint64_t> Table::Columns(const Row& row) {
  ECDB_CHECK(row.id < next_row_);
  return {cells_.data() + size_t{row.id} * num_columns_, num_columns_};
}

std::span<const uint64_t> Table::Columns(const Row& row) const {
  ECDB_CHECK(row.id < next_row_);
  return {cells_.data() + size_t{row.id} * num_columns_, num_columns_};
}

Status Table::Erase(Key key) {
  if (Row* slot = RangeSlot(key)) {
    if (slot->id == kAbsent) return Status::NotFound();
    free_rows_.push_back(slot->id);
    *slot = Row{0, kAbsent};
    --range_live_;
    return Status::OK();
  }
  const Row* row = rows_.Find(key);
  if (row == nullptr) return Status::NotFound();
  free_rows_.push_back(row->id);
  rows_.Erase(key);
  return Status::OK();
}

Status PartitionStore::CreateTable(TableId id, const std::string& name,
                                   uint32_t num_columns) {
  if (num_columns == 0) {
    return Status::InvalidArgument("table " + name + " has no columns");
  }
  auto [slot, inserted] = tables_.Emplace(id, Table(id, name, num_columns));
  (void)slot;
  if (!inserted) return Status::AlreadyExists("table id in use");
  return Status::OK();
}

Table* PartitionStore::GetTable(TableId id) { return tables_.Find(id); }

const Table* PartitionStore::GetTable(TableId id) const {
  return tables_.Find(id);
}

}  // namespace ecdb
