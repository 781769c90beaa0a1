// SmallVec: a vector with inline storage for the per-packet hot path.
//
// A packet's header stack, each header's fields, its metadata and its hop
// trace are short in the common case (a TCP packet carries three headers
// of at most five fields and crosses a handful of devices), so they live
// in fixed inline storage, the way P4 targets keep parsed headers in a
// fixed packet header vector.  Storage spills to the heap only once a
// vector grows past its inline capacity N; building, copying and moving
// a packet that stays within its capacities allocates nothing.
//
// Elements past size() are never constructed, so inline capacity costs
// bytes, not construction work.  Iterators and references are invalidated
// by any growth, as with std::vector.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>

namespace flexnet::packet {

template <typename T, std::size_t N>
class SmallVec {
  static_assert(N > 0, "SmallVec needs at least one inline slot");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  static constexpr std::size_t kInlineCapacity = N;

  SmallVec() noexcept = default;
  SmallVec(const SmallVec& other) { CopyFrom(other); }
  SmallVec(SmallVec&& other) noexcept { StealFrom(other); }
  SmallVec& operator=(const SmallVec& other) {
    if (this != &other) {
      clear();
      CopyFrom(other);
    }
    return *this;
  }
  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      Release();
      StealFrom(other);
    }
    return *this;
  }
  ~SmallVec() { Release(); }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return capacity_; }
  // True once the elements live on the heap (size ever exceeded N).
  bool spilled() const noexcept { return heap_ != nullptr; }

  T* data() noexcept { return heap_ != nullptr ? heap_ : InlineData(); }
  const T* data() const noexcept {
    return heap_ != nullptr ? heap_ : InlineData();
  }
  iterator begin() noexcept { return data(); }
  iterator end() noexcept { return data() + size_; }
  const_iterator begin() const noexcept { return data(); }
  const_iterator end() const noexcept { return data() + size_; }

  T& operator[](std::size_t i) noexcept { return data()[i]; }
  const T& operator[](std::size_t i) const noexcept { return data()[i]; }
  T& front() noexcept { return data()[0]; }
  const T& front() const noexcept { return data()[0]; }
  T& back() noexcept { return data()[size_ - 1]; }
  const T& back() const noexcept { return data()[size_ - 1]; }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) {
      // Build the element first: an argument may alias a current element.
      T fresh(std::forward<Args>(args)...);
      Grow(size_ + 1);
      return *::new (static_cast<void*>(data() + size_++)) T(std::move(fresh));
    }
    return *::new (static_cast<void*>(data() + size_++))
        T(std::forward<Args>(args)...);
  }
  void push_back(const T& value) { emplace_back(value); }
  void push_back(T&& value) { emplace_back(std::move(value)); }

  // Removes the element at `pos`, shifting the tail down one slot.
  iterator erase(const_iterator pos) {
    T* at = data() + (pos - data());
    std::move(at + 1, end(), at);
    --size_;
    std::destroy_at(data() + size_);
    return at;
  }

  // Destroys the elements; a spilled vector keeps its heap buffer.
  void clear() noexcept {
    std::destroy_n(data(), size_);
    size_ = 0;
  }

  friend bool operator==(const SmallVec& a, const SmallVec& b)
    requires requires(const T& x) { x == x; }
  {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  T* InlineData() noexcept {
    return std::launder(reinterpret_cast<T*>(inline_));
  }
  const T* InlineData() const noexcept {
    return std::launder(reinterpret_cast<const T*>(inline_));
  }

  // Moves the elements to a heap buffer of at least `need` slots.
  void Grow(std::size_t need) {
    const std::size_t cap = std::max<std::size_t>(need, 2 * capacity_);
    T* fresh = std::allocator<T>().allocate(cap);
    std::uninitialized_move_n(data(), size_, fresh);
    std::destroy_n(data(), size_);
    if (heap_ != nullptr) std::allocator<T>().deallocate(heap_, capacity_);
    heap_ = fresh;
    capacity_ = static_cast<std::uint32_t>(cap);
  }

  // Precondition: empty.
  void CopyFrom(const SmallVec& other) {
    if (other.size_ > capacity_) Grow(other.size_);
    std::uninitialized_copy_n(other.data(), other.size_, data());
    size_ = other.size_;
  }

  // Precondition: released (inline and empty).
  void StealFrom(SmallVec& other) noexcept {
    if (other.heap_ != nullptr) {
      heap_ = std::exchange(other.heap_, nullptr);
      capacity_ = std::exchange(other.capacity_, static_cast<std::uint32_t>(N));
    } else {
      std::uninitialized_move_n(other.InlineData(), other.size_, InlineData());
      std::destroy_n(other.InlineData(), other.size_);
    }
    size_ = std::exchange(other.size_, 0);
  }

  void Release() noexcept {
    clear();
    if (heap_ != nullptr) {
      std::allocator<T>().deallocate(heap_, capacity_);
      heap_ = nullptr;
      capacity_ = static_cast<std::uint32_t>(N);
    }
  }

  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = static_cast<std::uint32_t>(N);
  T* heap_ = nullptr;
  alignas(T) unsigned char inline_[N * sizeof(T)];
};

}  // namespace flexnet::packet
