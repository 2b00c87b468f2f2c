#ifndef ECDB_COMMON_INLINE_VECTOR_H_
#define ECDB_COMMON_INLINE_VECTOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

namespace ecdb {

/// A vector of trivially copyable T that stores its first N elements inside
/// the object and spills to one heap buffer only beyond that. Built for
/// small per-key lists on hot paths — a lock's holders, a transaction's
/// decision appliers — which almost always fit inline, so the common case
/// never allocates. Elements keep their insertion order.
/// Move-only; a moved-from vector is empty and inline.
template <typename T, size_t N>
class InlineVector {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(N > 0);

 public:
  InlineVector() = default;
  InlineVector(InlineVector&& other) noexcept { *this = std::move(other); }
  InlineVector& operator=(InlineVector&& other) noexcept {
    if (this != &other) {
      spill_ = std::move(other.spill_);
      if (spill_ == nullptr) std::copy_n(other.inline_, other.size_, inline_);
      size_ = std::exchange(other.size_, 0);
      capacity_ = std::exchange(other.capacity_, N);
    }
    return *this;
  }
  InlineVector(const InlineVector&) = delete;
  InlineVector& operator=(const InlineVector&) = delete;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }

  T& operator[](size_t i) { return data()[i]; }
  const T& operator[](size_t i) const { return data()[i]; }

  void push_back(const T& value) {
    if (size_ == capacity_) Grow();
    data()[size_++] = value;
  }

  /// Removes every element matching `pred`, keeping the others' order.
  template <typename Pred>
  void EraseIf(Pred pred) {
    size_ = static_cast<uint32_t>(std::remove_if(begin(), end(), pred) -
                                  begin());
  }

 private:
  T* data() { return spill_ != nullptr ? spill_.get() : inline_; }
  const T* data() const { return spill_ != nullptr ? spill_.get() : inline_; }

  void Grow() {
    std::unique_ptr<T[]> grown(new T[2 * capacity_]);
    std::copy_n(data(), size_, grown.get());
    spill_ = std::move(grown);
    capacity_ *= 2;
  }

  T inline_[N];
  std::unique_ptr<T[]> spill_;
  uint32_t size_ = 0;
  uint32_t capacity_ = N;
};

}  // namespace ecdb

#endif  // ECDB_COMMON_INLINE_VECTOR_H_
