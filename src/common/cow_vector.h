#ifndef ECDB_COMMON_COW_VECTOR_H_
#define ECDB_COMMON_COW_VECTOR_H_

#include <cstddef>
#include <initializer_list>
#include <memory>
#include <utility>
#include <vector>

namespace ecdb {

/// Copy-on-write wrapper around std::vector<T>. Copying a CowVector shares
/// the underlying storage (one refcount bump), so fanning a message out to
/// n recipients costs one allocation instead of n deep copies — the cost
/// that used to dominate EasyCommit's O(n^2) decision re-broadcast, where
/// every Global-* message carries the full participant list.
///
/// Reads go through const accessors (plus an implicit conversion to
/// `const std::vector<T>&`, so fields drop into existing vector-typed
/// parameters and assignments unchanged). Mutation detaches onto a private
/// copy first, so no holder can observe another holder's writes.
///
/// Thread-safety matches shared_ptr: concurrent readers of a shared
/// payload are safe (the threaded runtime passes messages across node
/// threads); a payload is only written before it is first shared or after
/// Mutable() detaches.
template <typename T>
class CowVector {
 public:
  using Vec = std::vector<T>;
  using value_type = T;
  using const_iterator = typename Vec::const_iterator;

  CowVector() = default;
  CowVector(std::initializer_list<T> init) { *this = init; }
  CowVector(const Vec& v) { *this = v; }          // NOLINT: deliberate
  CowVector(Vec&& v) { *this = std::move(v); }    // NOLINT: deliberate

  CowVector(const CowVector&) = default;             // shares storage
  CowVector(CowVector&&) noexcept = default;
  CowVector& operator=(const CowVector&) = default;  // shares storage
  CowVector& operator=(CowVector&&) noexcept = default;

  CowVector& operator=(const Vec& v) {
    data_ = v.empty() ? nullptr : std::make_shared<Vec>(v);
    return *this;
  }
  CowVector& operator=(Vec&& v) {
    data_ = v.empty() ? nullptr : std::make_shared<Vec>(std::move(v));
    return *this;
  }
  CowVector& operator=(std::initializer_list<T> init) {
    data_ = init.size() == 0 ? nullptr : std::make_shared<Vec>(init);
    return *this;
  }

  bool empty() const { return data_ == nullptr || data_->empty(); }
  size_t size() const { return data_ == nullptr ? 0 : data_->size(); }
  const T& operator[](size_t i) const { return (*data_)[i]; }
  const_iterator begin() const { return vec().begin(); }
  const_iterator end() const { return vec().end(); }

  /// Read view as a plain vector (no copy).
  const Vec& vec() const { return data_ == nullptr ? EmptyVec() : *data_; }
  operator const Vec&() const { return vec(); }  // NOLINT: deliberate

  /// True when `other` currently shares this vector's storage. Used by
  /// tests to pin the payload-sharing behaviour.
  bool SharesStorageWith(const CowVector& other) const {
    return data_ != nullptr && data_ == other.data_;
  }

  /// Mutable access; detaches (clones) first if the storage is shared.
  Vec& Mutable() {
    if (data_ == nullptr) {
      data_ = std::make_shared<Vec>();
    } else if (data_.use_count() > 1) {
      data_ = std::make_shared<Vec>(*data_);
    }
    return *data_;
  }

  // Vector-style mutators (message builders and tests); all detach.
  void push_back(const T& v) { Mutable().push_back(v); }
  void push_back(T&& v) { Mutable().push_back(std::move(v)); }
  void assign(size_t n, const T& v) { Mutable().assign(n, v); }
  void resize(size_t n) { Mutable().resize(n); }
  void clear() { data_.reset(); }

  friend bool operator==(const CowVector& a, const CowVector& b) {
    return a.data_ == b.data_ || a.vec() == b.vec();
  }
  friend bool operator==(const CowVector& a, const Vec& b) {
    return a.vec() == b;
  }
  friend bool operator==(const Vec& a, const CowVector& b) {
    return a == b.vec();
  }

 private:
  static const Vec& EmptyVec() {
    static const Vec empty;
    return empty;
  }

  std::shared_ptr<Vec> data_;
};

}  // namespace ecdb

#endif  // ECDB_COMMON_COW_VECTOR_H_
