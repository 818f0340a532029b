//===- support/BitVector.h - Dense dynamic bit vector ----------*- C++ -*-===//
///
/// \file
/// A dense, dynamically sized bit vector used by the dataflow solvers.
///
/// The interface intentionally mirrors the subset of llvm::BitVector that the
/// optimizer needs: set/reset/test, whole-vector boolean algebra, population
/// count, and iteration over set bits.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_SUPPORT_BITVECTOR_H
#define EPRE_SUPPORT_BITVECTOR_H

#include <cassert>
#include <cstdint>
#include <vector>

namespace epre {

/// A fixed-universe bit set with word-parallel boolean operations.
class BitVector {
public:
  BitVector() = default;

  /// Creates a vector of \p NumBits bits, all initialized to \p Value.
  explicit BitVector(unsigned NumBits, bool Value = false) {
    resize(NumBits, Value);
  }

  /// Returns the number of bits in the universe.
  unsigned size() const { return NumBits; }

  /// Grows or shrinks the universe; new bits are initialized to \p Value.
  void resize(unsigned NewNumBits, bool Value = false) {
    unsigned OldNumBits = NumBits;
    NumBits = NewNumBits;
    Words.resize(numWords(NewNumBits), Value ? ~uint64_t(0) : 0);
    if (Value && OldNumBits < NewNumBits && OldNumBits % 64 != 0) {
      // Set the tail bits of the old final word that just became live.
      Words[OldNumBits / 64] |= ~uint64_t(0) << (OldNumBits % 64);
    }
    clearUnusedBits();
  }

  void set(unsigned Bit) {
    assert(Bit < NumBits && "bit index out of range");
    Words[Bit / 64] |= uint64_t(1) << (Bit % 64);
  }

  void reset(unsigned Bit) {
    assert(Bit < NumBits && "bit index out of range");
    Words[Bit / 64] &= ~(uint64_t(1) << (Bit % 64));
  }

  void setAll() {
    for (uint64_t &W : Words)
      W = ~uint64_t(0);
    clearUnusedBits();
  }

  void resetAll() {
    for (uint64_t &W : Words)
      W = 0;
  }

  bool test(unsigned Bit) const {
    assert(Bit < NumBits && "bit index out of range");
    return (Words[Bit / 64] >> (Bit % 64)) & 1;
  }

  bool operator[](unsigned Bit) const { return test(Bit); }

  /// Returns true if no bit is set.
  bool none() const {
    for (uint64_t W : Words)
      if (W)
        return false;
    return true;
  }

  bool any() const { return !none(); }

  /// Returns the number of set bits.
  unsigned count() const {
    unsigned N = 0;
    for (uint64_t W : Words)
      N += __builtin_popcountll(W);
    return N;
  }

  /// Returns the index of the first set bit, or -1 if none.
  int findFirst() const {
    for (unsigned I = 0, E = Words.size(); I != E; ++I)
      if (Words[I])
        return int(I * 64 + __builtin_ctzll(Words[I]));
    return -1;
  }

  /// Returns the index of the first set bit after \p Prev, or -1 if none.
  int findNext(unsigned Prev) const {
    unsigned Bit = Prev + 1;
    if (Bit >= NumBits)
      return -1;
    unsigned WordIdx = Bit / 64;
    uint64_t W = Words[WordIdx] & (~uint64_t(0) << (Bit % 64));
    while (true) {
      if (W)
        return int(WordIdx * 64 + __builtin_ctzll(W));
      if (++WordIdx == Words.size())
        return -1;
      W = Words[WordIdx];
    }
  }

  BitVector &operator|=(const BitVector &RHS) {
    assert(NumBits == RHS.NumBits && "universe mismatch");
    for (unsigned I = 0, E = Words.size(); I != E; ++I)
      Words[I] |= RHS.Words[I];
    return *this;
  }

  // --- Allocation-free kernels with change detection ------------------------
  //
  // The dataflow solvers' inner loop: each kernel mutates in place, touches
  // every word exactly once, and reports whether any bit actually changed so
  // a worklist solver can re-enqueue only the neighbours it has to.

  /// *this |= RHS; returns true if any bit of *this changed.
  bool unionWith(const BitVector &RHS) {
    assert(NumBits == RHS.NumBits && "universe mismatch");
    uint64_t Delta = 0;
    for (unsigned I = 0, E = unsigned(Words.size()); I != E; ++I) {
      uint64_t Old = Words[I];
      Words[I] |= RHS.Words[I];
      Delta |= Old ^ Words[I];
    }
    return Delta != 0;
  }

  /// *this &= RHS; returns true if any bit of *this changed.
  bool intersectWith(const BitVector &RHS) {
    assert(NumBits == RHS.NumBits && "universe mismatch");
    uint64_t Delta = 0;
    for (unsigned I = 0, E = unsigned(Words.size()); I != E; ++I) {
      uint64_t Old = Words[I];
      Words[I] &= RHS.Words[I];
      Delta |= Old ^ Words[I];
    }
    return Delta != 0;
  }

  /// *this &= ~RHS (set difference); returns true if any bit changed.
  bool intersectWithComplement(const BitVector &RHS) {
    assert(NumBits == RHS.NumBits && "universe mismatch");
    uint64_t Delta = 0;
    for (unsigned I = 0, E = unsigned(Words.size()); I != E; ++I) {
      uint64_t Old = Words[I];
      Words[I] &= ~RHS.Words[I];
      Delta |= Old ^ Words[I];
    }
    return Delta != 0;
  }

  /// *this = RHS; returns true if any bit changed. Universes must already
  /// match, so this never allocates.
  bool assignFrom(const BitVector &RHS) {
    assert(NumBits == RHS.NumBits && "universe mismatch");
    uint64_t Delta = 0;
    for (unsigned I = 0, E = unsigned(Words.size()); I != E; ++I) {
      Delta |= Words[I] ^ RHS.Words[I];
      Words[I] = RHS.Words[I];
    }
    return Delta != 0;
  }

  /// *this = (M & P) | G in a single word pass; returns true if any bit of
  /// *this changed. The fused Gen/Preserve transfer of forward/backward
  /// bit-vector dataflow (P = transparency mask).
  bool assignMeetPreserveGen(const BitVector &M, const BitVector &P,
                             const BitVector &G) {
    assert(NumBits == M.NumBits && NumBits == P.NumBits &&
           NumBits == G.NumBits && "universe mismatch");
    uint64_t Delta = 0;
    for (unsigned I = 0, E = unsigned(Words.size()); I != E; ++I) {
      uint64_t New = (M.Words[I] & P.Words[I]) | G.Words[I];
      Delta |= Words[I] ^ New;
      Words[I] = New;
    }
    return Delta != 0;
  }

  /// Number of 64-bit words backing the vector (for solver statistics).
  unsigned numWords() const { return unsigned(Words.size()); }

  BitVector &operator&=(const BitVector &RHS) {
    assert(NumBits == RHS.NumBits && "universe mismatch");
    for (unsigned I = 0, E = Words.size(); I != E; ++I)
      Words[I] &= RHS.Words[I];
    return *this;
  }

  /// Removes from this vector every bit set in \p RHS (set difference).
  BitVector &andNot(const BitVector &RHS) {
    assert(NumBits == RHS.NumBits && "universe mismatch");
    for (unsigned I = 0, E = Words.size(); I != E; ++I)
      Words[I] &= ~RHS.Words[I];
    return *this;
  }

  /// Flips every bit in the universe.
  void flip() {
    for (uint64_t &W : Words)
      W = ~W;
    clearUnusedBits();
  }

  bool operator==(const BitVector &RHS) const {
    return NumBits == RHS.NumBits && Words == RHS.Words;
  }

  bool operator!=(const BitVector &RHS) const { return !(*this == RHS); }

private:
  static unsigned numWords(unsigned Bits) { return (Bits + 63) / 64; }

  /// Keeps bits beyond NumBits zero so count()/equality stay exact.
  void clearUnusedBits() {
    if (NumBits % 64 != 0 && !Words.empty())
      Words.back() &= ~uint64_t(0) >> (64 - NumBits % 64);
  }

  unsigned NumBits = 0;
  std::vector<uint64_t> Words;
};

} // namespace epre

#endif // EPRE_SUPPORT_BITVECTOR_H
