//===- support/SmallVector.h - Vector with inline storage -------*- C++ -*-===//
///
/// \file
/// A vector of trivially copyable values that stores its first N elements
/// inline. The IR keeps operand, successor and phi-predecessor lists in it:
/// 32-bit register and block ids, at most two except for a phi, so the
/// common case never touches the heap. SmallVector<uint32_t, 2> is 16 bytes:
/// the inline slots share their storage with the heap pointer, and the
/// vector owns a heap block exactly when its capacity exceeds N. Copy, move
/// and growth are memcpy.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_SUPPORT_SMALLVECTOR_H
#define EPRE_SUPPORT_SMALLVECTOR_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <new>
#include <type_traits>

namespace epre {

template <typename T, unsigned N>
class SmallVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVector copies its elements with memcpy");
  static_assert(N > 0, "SmallVector requires a nonzero inline capacity");

public:
  using value_type = T;
  using iterator = T *;
  using const_iterator = const T *;

  SmallVector() {}
  SmallVector(std::initializer_list<T> IL)
      : SmallVector(IL.begin(), IL.end()) {}
  template <typename InputIt>
  SmallVector(InputIt First, InputIt Last) {
    reserve(static_cast<size_t>(std::distance(First, Last)));
    for (; First != Last; ++First)
      data()[Size++] = *First;
  }
  SmallVector(const SmallVector &RHS) { copyFrom(RHS); }
  SmallVector(SmallVector &&RHS) { stealFrom(RHS); }
  ~SmallVector() { release(); }

  SmallVector &operator=(const SmallVector &RHS) {
    if (this != &RHS) {
      Size = 0;
      copyFrom(RHS);
    }
    return *this;
  }
  SmallVector &operator=(SmallVector &&RHS) {
    if (this != &RHS) {
      release();
      stealFrom(RHS);
    }
    return *this;
  }

  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }

  T *data() { return onHeap() ? Heap : Inline; }
  const T *data() const { return onHeap() ? Heap : Inline; }
  iterator begin() { return data(); }
  const_iterator begin() const { return data(); }
  iterator end() { return data() + Size; }
  const_iterator end() const { return data() + Size; }

  T &operator[](size_t I) {
    assert(I < Size && "index out of range");
    return data()[I];
  }
  const T &operator[](size_t I) const {
    assert(I < Size && "index out of range");
    return data()[I];
  }

  void push_back(T V) { // by value: V may be an element that growth moves
    if (Size == Cap)
      grow(Size + 1);
    data()[Size++] = V;
  }

  iterator erase(const_iterator Pos) {
    T *P = begin() + (Pos - begin());
    assert(P >= begin() && P < end() && "erase out of range");
    std::memmove(P, P + 1, static_cast<size_t>(end() - P - 1) * sizeof(T));
    --Size;
    return P;
  }

  void reserve(size_t MinCap) {
    if (MinCap > Cap)
      grow(MinCap);
  }

  bool operator==(const SmallVector &RHS) const {
    return Size == RHS.Size && std::equal(begin(), end(), RHS.begin());
  }

private:
  bool onHeap() const { return Cap > N; }

  void release() {
    if (onHeap())
      ::operator delete(Heap);
  }

  /// Appends RHS's elements to an empty vector.
  void copyFrom(const SmallVector &RHS) {
    reserve(RHS.Size);
    std::memcpy(data(), RHS.data(), RHS.Size * sizeof(T));
    Size = RHS.Size;
  }

  /// Takes RHS's heap block, or copies its inline elements, into a vector
  /// that owns no heap block; RHS is left empty and inline.
  void stealFrom(SmallVector &RHS) {
    if (RHS.onHeap())
      Heap = RHS.Heap;
    else
      std::memcpy(Inline, RHS.Inline, RHS.Size * sizeof(T));
    Size = RHS.Size;
    Cap = RHS.Cap;
    RHS.Size = 0;
    RHS.Cap = N;
  }

  void grow(size_t MinCap) {
    size_t NewCap = std::max<size_t>(2 * size_t(Cap), MinCap);
    T *NewData = static_cast<T *>(::operator new(NewCap * sizeof(T)));
    std::memcpy(NewData, data(), Size * sizeof(T));
    release();
    Heap = NewData;
    Cap = static_cast<uint32_t>(NewCap);
  }

  union {
    T Inline[N];
    T *Heap;
  };
  uint32_t Size = 0;
  uint32_t Cap = N;
};

} // namespace epre

#endif // EPRE_SUPPORT_SMALLVECTOR_H
