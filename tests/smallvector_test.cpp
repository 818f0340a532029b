//===- tests/smallvector_test.cpp - SmallVector unit tests ----------------===//
///
/// Exercises the inline-storage vector the IR uses for operand and
/// successor lists: the inline/heap transition, aliasing-safe growth,
/// move semantics (heap steal vs element move), and the erase/insert
/// surface the passes rely on.
///
//===----------------------------------------------------------------------===//

#include "support/SmallVector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

using namespace epre;

namespace {

TEST(SmallVector, StaysInlineUpToCapacity) {
  SmallVector<int, 4> V;
  const void *InlineData = V.data();
  for (int I = 0; I < 4; ++I)
    V.push_back(I);
  EXPECT_EQ(V.data(), InlineData) << "no heap allocation within inline cap";
  EXPECT_EQ(V.size(), 4u);
  V.push_back(4);
  EXPECT_NE(V.data(), InlineData) << "fifth element must spill to the heap";
  for (int I = 0; I < 5; ++I)
    EXPECT_EQ(V[unsigned(I)], I);
}

TEST(SmallVector, PushBackAliasingElement) {
  // push_back(V[0]) while growing: the reference dies with the old buffer,
  // so the value must be captured first.
  SmallVector<int, 2> V;
  V.push_back(7);
  V.push_back(8);
  V.push_back(V[0]); // grows exactly here
  ASSERT_EQ(V.size(), 3u);
  EXPECT_EQ(V[2], 7);
}

TEST(SmallVector, InsertAliasingElement) {
  SmallVector<int, 2> V{1, 2};
  V.insert(V.begin(), V[1]); // grows, and the inserted value is inside V
  ASSERT_EQ(V.size(), 3u);
  EXPECT_EQ(V[0], 2);
  EXPECT_EQ(V[1], 1);
  EXPECT_EQ(V[2], 2);
}

TEST(SmallVector, EraseSingleAndRange) {
  SmallVector<int, 4> V{0, 1, 2, 3, 4, 5};
  V.erase(V.begin() + 1);
  EXPECT_EQ(V, (SmallVector<int, 4>{0, 2, 3, 4, 5}));
  V.erase(V.begin() + 1, V.begin() + 3);
  EXPECT_EQ(V, (SmallVector<int, 4>{0, 4, 5}));
}

TEST(SmallVector, MoveStealsHeapBuffer) {
  SmallVector<std::string, 2> V;
  for (int I = 0; I < 8; ++I)
    V.push_back("elem" + std::to_string(I));
  const void *HeapData = V.data();
  SmallVector<std::string, 2> W = std::move(V);
  EXPECT_EQ(W.data(), HeapData) << "move of a spilled vector steals the heap";
  ASSERT_EQ(W.size(), 8u);
  EXPECT_EQ(W[7], "elem7");
}

TEST(SmallVector, MoveOfInlineVectorMovesElements) {
  SmallVector<std::string, 4> V{"a", "b"};
  SmallVector<std::string, 4> W = std::move(V);
  ASSERT_EQ(W.size(), 2u);
  EXPECT_EQ(W[0], "a");
  EXPECT_EQ(W[1], "b");
}

TEST(SmallVector, AssignAcrossDifferentInlineSizes) {
  // Passing through SmallVectorImpl erases the inline size.
  SmallVector<int, 2> A{1, 2, 3};
  SmallVector<int, 8> B;
  SmallVectorImpl<int> &AI = A;
  B.assign(AI.begin(), AI.end());
  EXPECT_EQ(B.size(), 3u);
  EXPECT_EQ(B[2], 3);
}

TEST(SmallVector, ResizeGrowAndShrink) {
  SmallVector<int, 2> V;
  V.resize(5, 9);
  EXPECT_EQ(V.size(), 5u);
  EXPECT_EQ(V[4], 9);
  V.resize(1);
  EXPECT_EQ(V.size(), 1u);
  EXPECT_EQ(V[0], 9);
}

TEST(SmallVector, ComparisonAndIteration) {
  SmallVector<int, 2> A{1, 2, 3};
  SmallVector<int, 4> B{1, 2, 3};
  // Element-wise comparison is independent of inline capacity.
  EXPECT_TRUE(std::equal(A.begin(), A.end(), B.begin(), B.end()));
  int Sum = 0;
  for (int X : A)
    Sum += X;
  EXPECT_EQ(Sum, 6);
}

TEST(SmallVector, NonTrivialElementDestruction) {
  // Shrinking and clearing must run destructors (ASan job watches this).
  auto Probe = std::make_shared<int>(42);
  SmallVector<std::shared_ptr<int>, 2> V;
  for (int I = 0; I < 6; ++I)
    V.push_back(Probe);
  EXPECT_EQ(Probe.use_count(), 7);
  V.resize(2);
  EXPECT_EQ(Probe.use_count(), 3);
  V.clear();
  EXPECT_EQ(Probe.use_count(), 1);
}

/// Heap ownership follows the capacity: a move-assign adopts a heap block
/// only when it is larger than the target's inline buffer, and every path
/// (grow, move-assign over a heap vector, destroy) releases exactly what it
/// owns. The shared_ptr count proves each element is destroyed once.
TEST(SmallVector, MoveAssignGrowAndDestroyKeepOwnership) {
  auto Probe = std::make_shared<int>(7);
  {
    SmallVector<std::shared_ptr<int>, 2> Small;
    for (int I = 0; I < 3; ++I)
      Small.push_back(Probe); // grows to a 4-slot heap block
    EXPECT_GE(Small.capacity(), 3u);
    SmallVectorImpl<std::shared_ptr<int>> &SmallI = Small;

    // A 4-slot heap block fits an 8-slot inline buffer: moved by element.
    SmallVector<std::shared_ptr<int>, 8> Wide;
    Wide = std::move(SmallI);
    EXPECT_EQ(Wide.size(), 3u);
    EXPECT_EQ(Wide.capacity(), 8u);
    EXPECT_TRUE(Small.empty());
    EXPECT_EQ(Probe.use_count(), 4);

    // Grow Wide onto the heap, then steal that block into a heap vector,
    // whose own block is freed.
    for (int I = 0; I < 13; ++I)
      Wide.push_back(Probe);
    const void *WideData = Wide.data();
    SmallVector<std::shared_ptr<int>, 2> Target;
    for (int I = 0; I < 5; ++I)
      Target.push_back(Probe);
    EXPECT_EQ(Probe.use_count(), 22);
    Target = std::move(Wide);
    EXPECT_EQ(Target.data(), WideData);
    EXPECT_EQ(Target.size(), 16u);
    EXPECT_TRUE(Wide.empty());
    EXPECT_EQ(Wide.capacity(), 8u) << "the source is back on its buffer";
    EXPECT_EQ(Probe.use_count(), 17);

    // An inline source is moved by element even when its inline buffer is
    // larger than the target's.
    for (int I = 0; I < 3; ++I)
      Wide.push_back(Probe);
    SmallVector<std::shared_ptr<int>, 2> Narrow;
    Narrow = std::move(static_cast<SmallVectorImpl<std::shared_ptr<int>> &>(Wide));
    EXPECT_EQ(Narrow.size(), 3u);
    EXPECT_NE(static_cast<const void *>(Narrow.data()),
              static_cast<const void *>(Wide.data()));
    EXPECT_TRUE(Wide.empty());
    EXPECT_EQ(Probe.use_count(), 20);
  }
  EXPECT_EQ(Probe.use_count(), 1) << "destroying every vector released all";
}

} // namespace
