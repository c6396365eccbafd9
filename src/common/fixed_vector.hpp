// Fixed-capacity inline vector (no heap allocation).
//
// Pipeline stage buffers (fetch buffer, decode buffer, retire batch) have
// small compile-time capacities; FixedVector keeps them on the owning
// structure so per-cycle simulation does no allocation.
//
// Storage contract: only the live prefix [0, size()) is ever read. The
// storage is default-initialized, not value-initialized, so constructing a
// vector of a trivial type (a per-cycle grant or completion list) does not
// zero its whole capacity; copies and assignments move only the live
// prefix, and equality compares only it.
#pragma once

#include <array>
#include <cstddef>
#include <type_traits>
#include <utility>

#include "common/contracts.hpp"

namespace steersim {

template <typename T, std::size_t Capacity>
class FixedVector {
 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  constexpr FixedVector() = default;
  constexpr FixedVector(const FixedVector& other) { *this = other; }
  constexpr FixedVector(FixedVector&& other) noexcept(
      std::is_nothrow_move_assignable_v<T>) {
    *this = std::move(other);
  }
  constexpr FixedVector& operator=(const FixedVector& other) {
    if (this != &other) {
      for (std::size_t i = 0; i < other.size_; ++i) {
        items_[i] = other.items_[i];
      }
      size_ = other.size_;
    }
    return *this;
  }
  constexpr FixedVector& operator=(FixedVector&& other) noexcept(
      std::is_nothrow_move_assignable_v<T>) {
    if (this != &other) {
      for (std::size_t i = 0; i < other.size_; ++i) {
        items_[i] = std::move(other.items_[i]);
      }
      size_ = other.size_;
    }
    return *this;
  }

  constexpr std::size_t size() const { return size_; }
  static constexpr std::size_t capacity() { return Capacity; }
  constexpr bool empty() const { return size_ == 0; }
  constexpr bool full() const { return size_ == Capacity; }

  constexpr void push_back(const T& value) {
    STEERSIM_EXPECTS(!full());
    items_[size_++] = value;
  }
  constexpr void push_back(T&& value) {
    STEERSIM_EXPECTS(!full());
    items_[size_++] = std::move(value);
  }
  constexpr void pop_back() {
    STEERSIM_EXPECTS(!empty());
    --size_;
  }
  constexpr void clear() { size_ = 0; }

  /// Removes the first `n` elements, shifting the rest down (keeps order).
  constexpr void erase_front(std::size_t n) {
    STEERSIM_EXPECTS(n <= size_);
    for (std::size_t i = n; i < size_; ++i) {
      items_[i - n] = std::move(items_[i]);
    }
    size_ -= n;
  }

  constexpr T& operator[](std::size_t i) {
    STEERSIM_EXPECTS(i < size_);
    return items_[i];
  }
  constexpr const T& operator[](std::size_t i) const {
    STEERSIM_EXPECTS(i < size_);
    return items_[i];
  }
  constexpr T& front() { return (*this)[0]; }
  constexpr const T& front() const { return (*this)[0]; }
  constexpr T& back() { return (*this)[size_ - 1]; }
  constexpr const T& back() const { return (*this)[size_ - 1]; }

  constexpr iterator begin() { return items_.data(); }
  constexpr iterator end() { return items_.data() + size_; }
  constexpr const_iterator begin() const { return items_.data(); }
  constexpr const_iterator end() const { return items_.data() + size_; }

  friend constexpr bool operator==(const FixedVector& a,
                                   const FixedVector& b) {
    if (a.size_ != b.size_) {
      return false;
    }
    for (std::size_t i = 0; i < a.size_; ++i) {
      if (!(a.items_[i] == b.items_[i])) {
        return false;
      }
    }
    return true;
  }

 private:
  /// Default-initialized: slots at or past size_ hold unspecified values
  /// for trivial T and are never read.
  std::array<T, Capacity> items_;
  std::size_t size_ = 0;
};

}  // namespace steersim
