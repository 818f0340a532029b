//===- support/SparseSet.h - Briggs–Torczon sparse set -----------*- C++ -*-===//
///
/// \file
/// A set over the fixed universe [0, N) with O(1) insert, erase, membership
/// test and clear, and iteration in time proportional to the number of
/// members (Briggs and Torczon, "An efficient representation for sparse
/// sets", 1993). Two arrays of N entries: Dense holds the members packed at
/// [0, size()), Sparse maps a member to its slot in Dense. A value is a
/// member exactly when its Sparse slot points back at it inside the packed
/// prefix, so clear() only resets the size and stale slots are harmless.
/// Allocate once per pass and clear() between blocks.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_SUPPORT_SPARSESET_H
#define EPRE_SUPPORT_SPARSESET_H

#include <cassert>
#include <cstdint>
#include <vector>

namespace epre {

class SparseSet {
public:
  /// An empty set over [0, \p Universe).
  explicit SparseSet(unsigned Universe) : Dense(Universe), Sparse(Universe) {}

  unsigned size() const { return Size; }

  bool contains(uint32_t V) const {
    assert(V < Sparse.size() && "value outside the universe");
    uint32_t S = Sparse[V];
    return S < Size && Dense[S] == V;
  }

  /// Adds \p V; returns true if it was not already a member.
  bool insert(uint32_t V) {
    if (contains(V))
      return false;
    Sparse[V] = Size;
    Dense[Size++] = V;
    return true;
  }

  /// Removes \p V; returns true if it was a member. The last member takes
  /// its slot, so erasing reorders the iteration sequence.
  bool erase(uint32_t V) {
    if (!contains(V))
      return false;
    uint32_t Last = Dense[--Size];
    Dense[Sparse[V]] = Last;
    Sparse[Last] = Sparse[V];
    return true;
  }

  void clear() { Size = 0; }

  const uint32_t *begin() const { return Dense.data(); }
  const uint32_t *end() const { return Dense.data() + Size; }

private:
  std::vector<uint32_t> Dense, Sparse;
  unsigned Size = 0;
};

} // namespace epre

#endif // EPRE_SUPPORT_SPARSESET_H
