#include "storage/table.h"

#include <sys/mman.h>

#include <type_traits>
#include <utility>

#include "common/logging.h"

namespace ecdb {

template <typename T>
Table::MappedArray<T>::MappedArray(size_t n) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (n == 0) return;  // mmap rejects an empty mapping
  const size_t bytes = n * sizeof(T);
  void* mapped = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ECDB_CHECK(mapped != MAP_FAILED);
  madvise(mapped, bytes, MADV_HUGEPAGE);
  items_ = static_cast<T*>(mapped);
  bytes_ = bytes;
}

template <typename T>
Table::MappedArray<T>::~MappedArray() {
  if (items_ != nullptr) munmap(items_, bytes_);
}

template <typename T>
Table::MappedArray<T>::MappedArray(MappedArray&& other) noexcept
    : items_(std::exchange(other.items_, nullptr)),
      bytes_(std::exchange(other.bytes_, 0)) {}

template <typename T>
Table::MappedArray<T>& Table::MappedArray<T>::operator=(
    MappedArray&& other) noexcept {
  // The moved-from array takes over (and eventually unmaps) ours.
  std::swap(items_, other.items_);
  std::swap(bytes_, other.bytes_);
  return *this;
}

// The only element type; defined here, used by every Table's (implicit,
// inline) destructor and move operations.
template class Table::MappedArray<uint64_t>;

Table::Table(TableId id, std::string name, uint32_t num_columns, Key first,
             Key stride, uint32_t count)
    : id_(id),
      name_(std::move(name)),
      num_columns_(num_columns),
      first_(first),
      stride_(stride),
      count_(count),
      span_(uint64_t{count} * stride),
      words_(size_t{count} * (num_columns + 1)) {
  ECDB_CHECK(num_columns_ > 0);
  ECDB_CHECK(stride > 0);
  ECDB_CHECK(count <= (UINT64_MAX - first) / stride);  // no key wraps
}

size_t Table::RowStart(RowId row) const {
  ECDB_CHECK(row < count_);
  return size_t{row} * (num_columns_ + 1);
}

Status PartitionStore::CreateTable(TableId id, const std::string& name,
                                   uint32_t num_columns, Key first, Key stride,
                                   uint32_t count) {
  if (num_columns == 0) {
    return Status::InvalidArgument("table " + name + " has no columns");
  }
  if (tables_.Find(id) != nullptr) {
    return Status::AlreadyExists("table id in use");
  }
  tables_.Emplace(id, Table(id, name, num_columns, first, stride, count));
  return Status::OK();
}

Table* PartitionStore::GetTable(TableId id) { return tables_.Find(id); }

const Table* PartitionStore::GetTable(TableId id) const {
  return tables_.Find(id);
}

}  // namespace ecdb
