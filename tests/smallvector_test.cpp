//===- tests/smallvector_test.cpp - SmallVector unit tests ----------------===//
///
/// Exercises the inline-storage vector the IR uses for operand, successor
/// and phi-predecessor lists: the inline/heap transition, aliasing-safe
/// growth, heap-block ownership across moves, and the erase/compare surface
/// the passes rely on. The ASan job checks that every heap block is freed
/// exactly once.
///
//===----------------------------------------------------------------------===//

#include "support/SmallVector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>

using namespace epre;

namespace {

using Vec = SmallVector<uint32_t, 2>;

TEST(SmallVector, IsSixteenBytes) {
  EXPECT_EQ(sizeof(Vec), 16u);
}

TEST(SmallVector, StaysInlineUpToCapacity) {
  Vec V;
  const void *InlineData = V.data();
  V.push_back(0);
  V.push_back(1);
  EXPECT_EQ(V.data(), InlineData) << "no heap allocation within inline cap";
  EXPECT_EQ(V.size(), 2u);
  V.push_back(2);
  EXPECT_NE(V.data(), InlineData) << "third element must spill to the heap";
  for (uint32_t I = 0; I < 3; ++I)
    EXPECT_EQ(V[I], I);
}

TEST(SmallVector, GrowsToAPhiSizedList) {
  Vec V;
  for (uint32_t I = 0; I < 100; ++I)
    V.push_back(I * 3);
  ASSERT_EQ(V.size(), 100u);
  for (uint32_t I = 0; I < 100; ++I)
    EXPECT_EQ(V[I], I * 3);
  Vec R(V.begin() + 90, V.end());
  EXPECT_EQ(R, (Vec{270, 273, 276, 279, 282, 285, 288, 291, 294, 297}));
}

TEST(SmallVector, PushBackAliasingElement) {
  // push_back(V[0]) while growing: the reference dies with the old buffer,
  // so the value must be captured first, both leaving the inline buffer and
  // leaving a heap block.
  Vec V{7, 8};
  V.push_back(V[0]); // inline -> heap here
  ASSERT_EQ(V.size(), 3u);
  EXPECT_EQ(V[2], 7u);
  V.push_back(V[1]); // fills the 4-slot block
  V.push_back(V[3]); // heap -> larger heap here
  EXPECT_EQ(V, (Vec{7, 8, 7, 8, 8}));
}

TEST(SmallVector, EraseSingleAndRange) {
  // erase(pos) shifts the tail down; a run is erased one element at a time.
  Vec V{0, 1, 2, 3, 4, 5};
  auto It = V.erase(V.begin() + 1);
  EXPECT_EQ(*It, 2u);
  EXPECT_EQ(V, (Vec{0, 2, 3, 4, 5}));
  for (int I = 0; I < 2; ++I)
    V.erase(V.begin() + 1);
  EXPECT_EQ(V, (Vec{0, 4, 5}));
  V.erase(V.end() - 1);
  EXPECT_EQ(V, (Vec{0, 4}));
  Vec Inline{1, 2};
  Inline.erase(Inline.begin());
  EXPECT_EQ(Inline, Vec{2});
}

TEST(SmallVector, MoveStealsHeapBuffer) {
  Vec V;
  for (uint32_t I = 0; I < 8; ++I)
    V.push_back(I);
  const void *HeapData = V.data();
  Vec W = std::move(V);
  EXPECT_EQ(W.data(), HeapData) << "move of a spilled vector steals the heap";
  ASSERT_EQ(W.size(), 8u);
  EXPECT_EQ(W[7], 7u);
  EXPECT_TRUE(V.empty());
  V.push_back(1); // the source is back on its inline buffer
  EXPECT_EQ(V, Vec{1});
}

TEST(SmallVector, MoveOfInlineVectorMovesElements) {
  Vec V{4, 5};
  Vec W = std::move(V);
  EXPECT_EQ(W, (Vec{4, 5}));
  EXPECT_NE(static_cast<const void *>(W.data()),
            static_cast<const void *>(V.data()));
  EXPECT_TRUE(V.empty());
}

/// Heap ownership follows the capacity: every path (grow, move-assign over a
/// vector that holds a heap block, destroy) frees exactly the block it owns,
/// which the ASan job checks.
TEST(SmallVector, MoveAssignGrowAndDestroyKeepOwnership) {
  Vec Source;
  for (uint32_t I = 0; I < 16; ++I)
    Source.push_back(I);
  const void *SourceData = Source.data();
  Vec Target{9, 9, 9, 9, 9};
  Target = std::move(Source); // frees Target's own heap block
  EXPECT_EQ(Target.data(), SourceData);
  EXPECT_EQ(Target.size(), 16u);
  EXPECT_TRUE(Source.empty());

  Vec Inline{1, 2};
  Target = std::move(Inline); // an inline source is copied, the block freed
  EXPECT_EQ(Target, (Vec{1, 2}));
  Target.push_back(3);
  Vec &Self = Target;
  Target = std::move(Self); // self-move keeps the vector
  EXPECT_EQ(Target, (Vec{1, 2, 3}));
}

TEST(SmallVector, CopyAndEquality) {
  Vec Big{1, 2, 3, 4, 5};
  Vec Copy(Big);
  EXPECT_EQ(Copy, Big);
  EXPECT_NE(static_cast<const void *>(Copy.data()),
            static_cast<const void *>(Big.data()));
  Copy[0] = 0;
  EXPECT_FALSE(Copy == Big) << "the copy owns its own block";

  Vec Small{1, 2};
  Copy = Small; // shrinks into the existing heap block
  EXPECT_EQ(Copy, Small);
  Small = Big; // grows out of the inline buffer
  EXPECT_EQ(Small, Big);
  const Vec &Self = Small;
  Small = Self;
  EXPECT_EQ(Small, Big);
  EXPECT_FALSE(Vec{1} == (Vec{1, 2}));
  EXPECT_EQ(Vec{}, Vec{});
}

TEST(SmallVector, ComparisonAndIteration) {
  Vec A{1, 2, 3};
  uint32_t Sum = 0;
  for (uint32_t X : A)
    Sum += X;
  EXPECT_EQ(Sum, 6u);
  const Vec &C = A;
  EXPECT_TRUE(std::equal(C.begin(), C.end(), A.begin(), A.end()));
  EXPECT_EQ(C.end() - C.begin(), 3);
}

} // namespace
