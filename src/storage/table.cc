#include "storage/table.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.h"

namespace ecdb {

Table::CellArray::~CellArray() {
  if (cells_ != nullptr) munmap(cells_, capacity_ * sizeof(uint64_t));
}

Table::CellArray::CellArray(CellArray&& other) noexcept
    : cells_(std::exchange(other.cells_, nullptr)),
      capacity_(std::exchange(other.capacity_, 0)) {}

Table::CellArray& Table::CellArray::operator=(CellArray&& other) noexcept {
  // The moved-from array takes over (and eventually unmaps) ours.
  std::swap(cells_, other.cells_);
  std::swap(capacity_, other.capacity_);
  return *this;
}

void Table::CellArray::Grow(size_t n, size_t live) {
  if (n <= capacity_) return;
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  const size_t bytes = (n * sizeof(uint64_t) + page - 1) / page * page;
  void* mapped = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ECDB_CHECK(mapped != MAP_FAILED);
  // A skewed write stream soon touches most pages of a large table, and a
  // first write to a 4 KB page costs two faults (the read of the old value
  // maps the zero page, the store copies it). Transparent huge pages, where
  // the kernel offers them, make that a fault or two per 2 MB. Only a hint.
  madvise(mapped, bytes, MADV_HUGEPAGE);
  CellArray grown;
  grown.cells_ = static_cast<uint64_t*>(mapped);
  grown.capacity_ = bytes / sizeof(uint64_t);
  if (live > 0) std::memcpy(grown.cells_, cells_, live * sizeof(uint64_t));
  *this = std::move(grown);
}

Table::Table(TableId id, std::string name, uint32_t num_columns)
    : id_(id), name_(std::move(name)), num_columns_(num_columns) {
  ECDB_CHECK(num_columns_ > 0);
}

void Table::Reserve(size_t n) {
  rows_.Reserve(n);
  cells_.Grow(n * num_columns_, size_t{next_row_} * num_columns_);
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
    cells_.Grow(std::max(2 * cells_.capacity(), used + num_columns_), used);
  }
  return next_row_++;
}

Status Table::Insert(Key key) {
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
  std::span<uint64_t> cells = Columns(*rows_.Find(key));
  std::copy_n(columns.begin(), std::min(columns.size(), cells.size()),
              cells.begin());
  return Status::OK();
}

Result<const Row*> Table::Get(Key key) const {
  const Row* row = rows_.Find(key);
  if (row == nullptr) return Status::NotFound();
  return row;
}

Result<Row*> Table::GetMutable(Key key) {
  Row* row = rows_.Find(key);
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
