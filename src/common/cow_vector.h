#ifndef ECDB_COMMON_COW_VECTOR_H_
#define ECDB_COMMON_COW_VECTOR_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <type_traits>
#include <utility>
#include <vector>

namespace ecdb {

/// A list that is cheap to copy: the participant and operation lists that
/// messages, WAL records and per-transaction state carry.
///
/// A list that fits in the bytes of one pointer (two NodeIds) lives inside
/// the object and is copied by value: no allocation and no atomic, so the
/// two-participant lists of the evaluation's transactions cross workers
/// without touching a cache line another worker writes.
///
/// A longer list lives in one reference-counted heap buffer that every copy
/// shares, so EC's O(n^2) decision re-broadcast of a wide list (each
/// Global-* message carries it, Section 5.3) costs one allocation, not one
/// deep copy per recipient. A shared buffer is immutable: a mutator first
/// detaches onto a private copy, so no holder observes another's writes.
/// Copies may be taken and released on different threads; the reference
/// count is the only state they share.
///
/// Types that are not trivially copyable or are wider than half a pointer
/// (`Operation`) get no inline slot and always use the shared buffer.
template <typename T>
class CowVector {
 public:
  using value_type = T;
  using const_iterator = const T*;

  /// Elements stored in the object itself.
  static constexpr size_t kInline =
      std::is_trivially_copyable_v<T> &&
              std::is_trivially_default_constructible_v<T> &&
              alignof(T) <= alignof(void*)
          ? sizeof(void*) / sizeof(T)
          : 0;

  CowVector() = default;
  CowVector(std::initializer_list<T> init) {
    Assign(init.begin(), init.size());
  }
  CowVector(const std::vector<T>& v) {  // NOLINT: deliberate
    Assign(v.data(), v.size());
  }

  CowVector(const CowVector& other) : size_(other.size_), u_(other.u_) {
    if (!IsInline()) u_.heap->refs.fetch_add(1, std::memory_order_relaxed);
  }
  CowVector(CowVector&& other) noexcept : size_(other.size_), u_(other.u_) {
    other.size_ = 0;
  }
  CowVector& operator=(const CowVector& other) {
    CowVector copy(other);
    Swap(copy);
    return *this;
  }
  CowVector& operator=(CowVector&& other) noexcept {
    CowVector moved(std::move(other));
    Swap(moved);
    return *this;
  }
  ~CowVector() { Release(); }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  const T* data() const {
    return IsInline() ? InlineData() : u_.heap->items.data();
  }
  const T& operator[](size_t i) const { return data()[i]; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }

  /// True when the elements live in this object, so a copy allocates
  /// nothing and touches no reference count.
  bool IsInline() const { return size_ <= kInline; }

  /// True when `other` currently shares this list's heap buffer. Used by
  /// tests to pin the payload-sharing behaviour.
  bool SharesStorageWith(const CowVector& other) const {
    return !IsInline() && !other.IsInline() && u_.heap == other.u_.heap;
  }

  // Mutators (message builders, decoders and tests). `v` is taken by
  // value: it may be an element of this list.
  void push_back(T v) {
    if (size_ < kInline) {
      InlineData()[size_++] = v;
      return;
    }
    if (size_ == kInline) {  // spill
      Buffer* buffer = new Buffer;
      buffer->items.reserve(2 * kInline + 2);
      buffer->items.assign(InlineData(), InlineData() + size_);
      u_.heap = buffer;
    } else {
      Detach();
    }
    u_.heap->items.push_back(std::move(v));
    size_++;
  }
  void pop_back() {
    if (size_ - 1 == kInline) {  // back inline
      Buffer* buffer = u_.heap;
      std::copy_n(buffer->items.data(), kInline, InlineData());
      Unref(buffer);
    } else if (!IsInline()) {
      Detach();
      u_.heap->items.pop_back();
    }
    size_--;
  }
  void clear() {
    Release();
    size_ = 0;
  }

  friend bool operator==(const CowVector& a, const CowVector& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(const CowVector& a, const std::vector<T>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  struct Buffer {
    std::atomic<uint32_t> refs{1};
    std::vector<T> items;
  };
  using Slot = std::conditional_t<(kInline > 0), T, char>;
  union Storage {
    Buffer* heap;
    Slot items[kInline > 0 ? kInline : 1];
  };

  T* InlineData() { return reinterpret_cast<T*>(u_.items); }
  const T* InlineData() const { return reinterpret_cast<const T*>(u_.items); }

  void Assign(const T* items, size_t n) {
    if (n <= kInline) {
      std::copy_n(items, n, InlineData());
    } else {
      u_.heap = new Buffer;
      u_.heap->items.assign(items, items + n);
    }
    size_ = static_cast<uint32_t>(n);
  }

  // Makes this object the heap buffer's only holder.
  void Detach() {
    if (u_.heap->refs.load(std::memory_order_acquire) == 1) return;
    Buffer* copy = new Buffer;
    copy->items = u_.heap->items;
    Unref(u_.heap);
    u_.heap = copy;
  }

  void Release() {
    if (!IsInline()) Unref(u_.heap);
  }

  static void Unref(Buffer* buffer) {
    if (buffer->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete buffer;
    }
  }

  void Swap(CowVector& other) noexcept {
    std::swap(size_, other.size_);
    std::swap(u_, other.u_);
  }

  uint32_t size_ = 0;  // <= kInline: u_.items holds them; else u_.heap
  Storage u_{};
};

}  // namespace ecdb

#endif  // ECDB_COMMON_COW_VECTOR_H_
