//===- support/SmallVector.h - Vector with inline storage -------*- C++ -*-===//
///
/// \file
/// A std::vector-like container that stores its first N elements inline,
/// avoiding any heap allocation in the overwhelmingly common small case
/// (instruction operand lists and successor lists hold <= 2 elements).
/// Modeled on the LLVM idiom: a size-erased SmallVectorImpl<T> base that
/// passes can take by reference, and a SmallVector<T, N> that supplies the
/// inline buffer.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_SUPPORT_SMALLVECTOR_H
#define EPRE_SUPPORT_SMALLVECTOR_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace epre {

/// Size-erased interface: all operations that don't need to know the inline
/// capacity live here. Holds a pointer to the current storage (inline buffer
/// or heap block), the element count, and the capacity.
template <typename T> class SmallVectorImpl {
public:
  using value_type = T;
  using iterator = T *;
  using const_iterator = const T *;
  using size_type = size_t;
  using reference = T &;
  using const_reference = const T &;

  SmallVectorImpl(const SmallVectorImpl &) = delete;

  iterator begin() { return Data; }
  const_iterator begin() const { return Data; }
  iterator end() { return Data + Count; }
  const_iterator end() const { return Data + Count; }

  auto rbegin() { return std::reverse_iterator<iterator>(end()); }
  auto rend() { return std::reverse_iterator<iterator>(begin()); }

  size_type size() const { return Count; }
  size_type capacity() const { return Cap; }
  bool empty() const { return Count == 0; }

  T *data() { return Data; }
  const T *data() const { return Data; }

  reference operator[](size_type I) {
    assert(I < Count && "index out of range");
    return Data[I];
  }
  const_reference operator[](size_type I) const {
    assert(I < Count && "index out of range");
    return Data[I];
  }

  reference front() {
    assert(Count && "front() on empty vector");
    return Data[0];
  }
  const_reference front() const {
    assert(Count && "front() on empty vector");
    return Data[0];
  }
  reference back() {
    assert(Count && "back() on empty vector");
    return Data[Count - 1];
  }
  const_reference back() const {
    assert(Count && "back() on empty vector");
    return Data[Count - 1];
  }

  void push_back(const T &V) {
    if (Count == Cap) {
      T Tmp(V); // V may alias an element that moves during growth
      grow(Cap + 1);
      ::new (static_cast<void *>(Data + Count)) T(std::move(Tmp));
      ++Count;
    } else {
      ::new (static_cast<void *>(Data + Count)) T(V);
      ++Count;
    }
  }
  void push_back(T &&V) {
    if (Count == Cap) {
      T Tmp(std::move(V));
      grow(Cap + 1);
      ::new (static_cast<void *>(Data + Count)) T(std::move(Tmp));
      ++Count;
    } else {
      ::new (static_cast<void *>(Data + Count)) T(std::move(V));
      ++Count;
    }
  }

  template <typename... Args> reference emplace_back(Args &&...A) {
    if (Count == Cap) {
      T Tmp(std::forward<Args>(A)...);
      grow(Cap + 1);
      ::new (static_cast<void *>(Data + Count)) T(std::move(Tmp));
    } else {
      ::new (static_cast<void *>(Data + Count)) T(std::forward<Args>(A)...);
    }
    return Data[Count++];
  }

  void pop_back() {
    assert(Count && "pop_back() on empty vector");
    --Count;
    Data[Count].~T();
  }

  void clear() {
    destroyRange(Data, Data + Count);
    Count = 0;
  }

  void reserve(size_type N) {
    if (N > Cap)
      grow(N);
  }

  void resize(size_type N) {
    if (N < Count) {
      destroyRange(Data + N, Data + Count);
      Count = N;
    } else if (N > Count) {
      reserve(N);
      for (; Count < N; ++Count)
        ::new (static_cast<void *>(Data + Count)) T();
    }
  }

  void resize(size_type N, const T &V) {
    if (N < Count) {
      destroyRange(Data + N, Data + Count);
      Count = N;
      return;
    }
    if (N > Cap) {
      T Tmp(V); // V may alias an element that moves during growth
      grow(N);
      for (; Count < N; ++Count)
        ::new (static_cast<void *>(Data + Count)) T(Tmp);
      return;
    }
    for (; Count < N; ++Count)
      ::new (static_cast<void *>(Data + Count)) T(V);
  }

  iterator erase(const_iterator CI) {
    iterator I = const_cast<iterator>(CI);
    assert(I >= begin() && I < end() && "erase out of range");
    std::move(I + 1, end(), I);
    pop_back();
    return I;
  }

  iterator erase(const_iterator CFirst, const_iterator CLast) {
    iterator First = const_cast<iterator>(CFirst);
    iterator Last = const_cast<iterator>(CLast);
    assert(First >= begin() && Last <= end() && First <= Last &&
           "erase range out of range");
    iterator NewEnd = std::move(Last, end(), First);
    destroyRange(NewEnd, end());
    Count = static_cast<size_type>(NewEnd - begin());
    return First;
  }

  iterator insert(const_iterator CPos, const T &V) {
    size_type Idx = static_cast<size_type>(CPos - begin());
    assert(Idx <= Count && "insert out of range");
    if (Idx == Count) {
      push_back(V);
      return begin() + Idx;
    }
    T Tmp(V); // V may alias an element that moves during growth
    if (Count == Cap)
      grow(Cap + 1);
    ::new (static_cast<void *>(Data + Count)) T(std::move(Data[Count - 1]));
    std::move_backward(Data + Idx, Data + Count - 1, Data + Count);
    Data[Idx] = std::move(Tmp);
    ++Count;
    return begin() + Idx;
  }

  template <typename InputIt> void assign(InputIt First, InputIt Last) {
    clear();
    append(First, Last);
  }

  void assign(std::initializer_list<T> IL) { assign(IL.begin(), IL.end()); }

  template <typename InputIt> void append(InputIt First, InputIt Last) {
    size_type N = static_cast<size_type>(std::distance(First, Last));
    reserve(Count + N);
    for (; First != Last; ++First) {
      ::new (static_cast<void *>(Data + Count)) T(*First);
      ++Count;
    }
  }

  SmallVectorImpl &operator=(const SmallVectorImpl &RHS) {
    if (this != &RHS)
      assign(RHS.begin(), RHS.end());
    return *this;
  }

  SmallVectorImpl &operator=(SmallVectorImpl &&RHS) {
    if (this == &RHS)
      return *this;
    if (!RHS.isSmall() && RHS.Cap > InlineCap) {
      // Steal the heap block, which is larger than our inline buffer, so
      // isSmall() stays exact; free ours if we had one.
      destroyRange(Data, Data + Count);
      if (!isSmall())
        free(Data);
      Data = RHS.Data;
      Count = RHS.Count;
      Cap = RHS.Cap;
      RHS.Data = RHS.inlineBuffer();
      RHS.Count = 0;
      RHS.Cap = RHS.InlineCap;
    } else {
      // RHS is inline, or its heap block would fit ours: move element-wise.
      clear();
      reserve(RHS.Count);
      for (size_type I = 0; I != RHS.Count; ++I)
        ::new (static_cast<void *>(Data + I)) T(std::move(RHS.Data[I]));
      Count = RHS.Count;
      RHS.clear();
    }
    return *this;
  }

  SmallVectorImpl &operator=(std::initializer_list<T> IL) {
    assign(IL);
    return *this;
  }

  bool operator==(const SmallVectorImpl &RHS) const {
    return Count == RHS.Count && std::equal(begin(), end(), RHS.begin());
  }
  bool operator!=(const SmallVectorImpl &RHS) const { return !(*this == RHS); }
  bool operator<(const SmallVectorImpl &RHS) const {
    return std::lexicographical_compare(begin(), end(), RHS.begin(),
                                        RHS.end());
  }

protected:
  SmallVectorImpl(T *InlineBuf, size_type InlineN)
      : Data(InlineBuf), Cap(InlineN), InlineCap(InlineN) {}

  ~SmallVectorImpl() {
    destroyRange(Data, Data + Count);
    if (!isSmall())
      free(Data);
  }

  /// Heap ownership follows from the capacity: grow() always allocates
  /// more than the inline capacity, and a move adopts only a heap block
  /// larger than it. Deciding it from the capacity rather than from the
  /// address of the inline buffer lets the compiler see that free() never
  /// receives that buffer.
  bool isSmall() const { return Cap <= InlineCap; }

  /// The inline buffer sits immediately after this header in SmallVector's
  /// layout; recover it from the stored inline capacity offset.
  T *inlineBuffer() const {
    return const_cast<T *>(reinterpret_cast<const T *>(
        reinterpret_cast<const char *>(this) + InlineBufOffset));
  }

  void grow(size_type MinCap) {
    size_type NewCap = std::max<size_type>(Cap * 2, MinCap);
    NewCap = std::max<size_type>(NewCap, 4);
    T *NewData = static_cast<T *>(malloc(NewCap * sizeof(T)));
    if (!NewData)
      std::abort();
    if constexpr (std::is_trivially_copyable_v<T>) {
      if (Count)
        std::memcpy(static_cast<void *>(NewData), Data, Count * sizeof(T));
    } else {
      for (size_type I = 0; I != Count; ++I) {
        ::new (static_cast<void *>(NewData + I)) T(std::move(Data[I]));
        Data[I].~T();
      }
    }
    if (!isSmall())
      free(Data);
    Data = NewData;
    Cap = NewCap;
  }

  static void destroyRange(T *First, T *Last) {
    if constexpr (!std::is_trivially_destructible_v<T>)
      for (; First != Last; ++First)
        First->~T();
  }

  T *Data;
  size_type Count = 0;
  size_type Cap;
  size_type InlineCap;

  /// Byte offset from a SmallVectorImpl header to the inline buffer of the
  /// concrete SmallVector that derives from it. Identical for every N since
  /// the buffer is the first (aligned) member of the derived class.
  static constexpr size_t InlineBufOffset =
      (sizeof(SmallVectorImpl) + alignof(T) - 1) / alignof(T) * alignof(T);
};

/// A vector with N elements of inline storage.
template <typename T, unsigned N> class SmallVector : public SmallVectorImpl<T> {
  static_assert(N > 0, "SmallVector requires a nonzero inline capacity");
  alignas(T) char InlineStorage[N * sizeof(T)];

  using Impl = SmallVectorImpl<T>;

public:
  SmallVector() : Impl(reinterpret_cast<T *>(InlineStorage), N) {
    // The base recovers the inline buffer from a fixed layout offset (see
    // InlineBufOffset); confirm the derived layout actually matches.
    assert(this->inlineBuffer() == reinterpret_cast<T *>(InlineStorage) &&
           "inline buffer offset mismatch");
  }

  SmallVector(std::initializer_list<T> IL) : SmallVector() {
    this->append(IL.begin(), IL.end());
  }

  template <typename InputIt>
  SmallVector(InputIt First, InputIt Last) : SmallVector() {
    this->append(First, Last);
  }

  explicit SmallVector(typename Impl::size_type Sz) : SmallVector() {
    this->resize(Sz);
  }

  SmallVector(typename Impl::size_type Sz, const T &V) : SmallVector() {
    this->resize(Sz, V);
  }

  SmallVector(const SmallVector &RHS) : SmallVector() {
    this->append(RHS.begin(), RHS.end());
  }

  SmallVector(const Impl &RHS) : SmallVector() {
    this->append(RHS.begin(), RHS.end());
  }

  SmallVector(SmallVector &&RHS) : SmallVector() {
    Impl::operator=(std::move(RHS));
  }

  SmallVector(Impl &&RHS) : SmallVector() { Impl::operator=(std::move(RHS)); }

  SmallVector &operator=(const SmallVector &RHS) {
    Impl::operator=(RHS);
    return *this;
  }
  SmallVector &operator=(const Impl &RHS) {
    Impl::operator=(RHS);
    return *this;
  }
  SmallVector &operator=(SmallVector &&RHS) {
    Impl::operator=(std::move(RHS));
    return *this;
  }
  SmallVector &operator=(Impl &&RHS) {
    Impl::operator=(std::move(RHS));
    return *this;
  }
  SmallVector &operator=(std::initializer_list<T> IL) {
    this->assign(IL);
    return *this;
  }
};

} // namespace epre

#endif // EPRE_SUPPORT_SMALLVECTOR_H
