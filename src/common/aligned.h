#ifndef GANNS_COMMON_ALIGNED_H_
#define GANNS_COMMON_ALIGNED_H_

#include <cstddef>
#include <new>
#include <utility>
#include <vector>

namespace ganns {

/// Minimal std::allocator replacement that over-aligns every allocation.
/// Used for the dataset's row-major feature buffer so each padded row starts
/// on a 32-byte boundary (one full AVX2 register), and
/// through UnfilledVector for every array a shard file loads into.
///
/// A value-less construct default-initializes, so resize(n) without a value
/// leaves new scalars unfilled: a reader sizes its buffer and reads straight
/// into it, touching each page once. Every resize that must fill passes the
/// value.
template <typename T, std::size_t Alignment>
class AlignedAllocator {
 public:
  static_assert(Alignment >= alignof(T) && (Alignment & (Alignment - 1)) == 0,
                "Alignment must be a power of two no weaker than alignof(T)");
  using value_type = T;

  /// allocator_traits cannot synthesize rebind across the non-type Alignment
  /// parameter, so spell it out.
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Alignment}));
  }
  void deallocate(T* p, std::size_t) {
    ::operator delete(p, std::align_val_t{Alignment});
  }

  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U, Alignment>&) const {
    return true;
  }
};

/// 32-byte-aligned vector whose value-less resize leaves new scalars
/// unfilled: the storage of everything a shard file loads into.
template <typename T>
using UnfilledVector = std::vector<T, AlignedAllocator<T, 32>>;

/// 32-byte-aligned float vector (AVX2 register width).
using AlignedFloatVector = UnfilledVector<float>;

}  // namespace ganns

#endif  // GANNS_COMMON_ALIGNED_H_
