/// \file default_init_allocator.h
/// \brief std::allocator whose value-less construct default-initialises.
///
/// `std::vector<T>::resize(n)` value-initialises the new elements, which
/// for a trivial T is a zero-fill. A buffer whose every element is written
/// before it is read pays that pass for nothing; with this allocator the
/// same `resize` leaves trivial elements uninitialised. Constructions with
/// arguments (push_back, assign, fill constructors) are unchanged.
#pragma once

#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace rj {

template <typename T>
class DefaultInitAllocator : public std::allocator<T> {
 public:
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>& other) noexcept
      : std::allocator<T>(other) {}

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// A vector whose resize leaves trivial elements uninitialised.
template <typename T>
using UninitVector = std::vector<T, DefaultInitAllocator<T>>;

}  // namespace rj
