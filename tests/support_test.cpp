//===- tests/support_test.cpp - BitVector and string utilities ------------===//

#include "support/BitVector.h"
#include "support/Hash.h"
#include "support/StringUtil.h"

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <set>

using namespace epre;

namespace {

TEST(BitVector, BasicSetResetTest) {
  BitVector V(130);
  EXPECT_EQ(V.size(), 130u);
  EXPECT_TRUE(V.none());
  V.set(0);
  V.set(64);
  V.set(129);
  EXPECT_TRUE(V.test(0));
  EXPECT_TRUE(V.test(64));
  EXPECT_TRUE(V.test(129));
  EXPECT_FALSE(V.test(1));
  EXPECT_EQ(V.count(), 3u);
  V.reset(64);
  EXPECT_FALSE(V.test(64));
  EXPECT_EQ(V.count(), 2u);
}

TEST(BitVector, InitialValueTrue) {
  BitVector V(70, true);
  EXPECT_EQ(V.count(), 70u);
  V.flip();
  EXPECT_TRUE(V.none());
}

TEST(BitVector, SetAllRespectsSize) {
  BitVector V(65);
  V.setAll();
  EXPECT_EQ(V.count(), 65u);
  V.flip();
  EXPECT_EQ(V.count(), 0u);
}

TEST(BitVector, ResizeGrowsWithValue) {
  BitVector V(10, false);
  V.resize(100, true);
  EXPECT_EQ(V.count(), 90u);
  EXPECT_FALSE(V.test(5));
  EXPECT_TRUE(V.test(10));
  EXPECT_TRUE(V.test(99));
}

TEST(BitVector, BooleanAlgebra) {
  BitVector A(100), B(100);
  for (unsigned I = 0; I < 100; I += 2)
    A.set(I);
  for (unsigned I = 0; I < 100; I += 3)
    B.set(I);
  BitVector Or = A;
  Or |= B;
  BitVector And = A;
  And &= B;
  BitVector Diff = A;
  Diff.andNot(B);
  for (unsigned I = 0; I < 100; ++I) {
    EXPECT_EQ(Or.test(I), I % 2 == 0 || I % 3 == 0) << I;
    EXPECT_EQ(And.test(I), I % 2 == 0 && I % 3 == 0) << I;
    EXPECT_EQ(Diff.test(I), I % 2 == 0 && I % 3 != 0) << I;
  }
}

TEST(BitVector, FindFirstNext) {
  BitVector V(200);
  EXPECT_EQ(V.findFirst(), -1);
  std::set<unsigned> Bits = {3, 63, 64, 65, 127, 128, 199};
  for (unsigned B : Bits)
    V.set(B);
  std::set<unsigned> Seen;
  for (int I = V.findFirst(); I != -1; I = V.findNext(unsigned(I)))
    Seen.insert(unsigned(I));
  EXPECT_EQ(Seen, Bits);
}

TEST(BitVector, EqualityIncludesSize) {
  BitVector A(10), B(11);
  EXPECT_NE(A, B);
  BitVector C(10);
  EXPECT_EQ(A, C);
  C.set(9);
  EXPECT_NE(A, C);
}

/// Property sweep: BitVector agrees with std::set over random operations.
class BitVectorRandom : public testing::TestWithParam<unsigned> {};

TEST_P(BitVectorRandom, MatchesReferenceSet) {
  std::mt19937 Rng(GetParam());
  unsigned N = 1 + Rng() % 300;
  BitVector V(N);
  std::set<unsigned> Ref;
  for (unsigned Step = 0; Step < 500; ++Step) {
    unsigned Bit = Rng() % N;
    if (Rng() % 2) {
      V.set(Bit);
      Ref.insert(Bit);
    } else {
      V.reset(Bit);
      Ref.erase(Bit);
    }
  }
  EXPECT_EQ(V.count(), Ref.size());
  std::set<unsigned> Got;
  for (int I = V.findFirst(); I != -1; I = V.findNext(unsigned(I)))
    Got.insert(unsigned(I));
  EXPECT_EQ(Got, Ref);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitVectorRandom,
                         testing::Range(0u, 12u));

/// Universes chosen to exercise the word-level kernels: empty, exactly one
/// word, a partial final word, and multiple words with a partial tail.
class BitVectorKernels : public testing::TestWithParam<unsigned> {};

TEST_P(BitVectorKernels, UnionWithMatchesOrAndReportsChange) {
  unsigned N = GetParam();
  BitVector A(N), B(N);
  for (unsigned I = 0; I < N; I += 2)
    A.set(I);
  for (unsigned I = 0; I < N; I += 3)
    B.set(I);
  BitVector Ref = A;
  Ref |= B;
  BitVector V = A;
  bool Changed = V.unionWith(B);
  EXPECT_EQ(V, Ref);
  // Change iff B had a bit A lacked: any multiple of 3 that is odd (< N).
  EXPECT_EQ(Changed, N > 3);
  // Second application is idempotent and must report no change.
  EXPECT_FALSE(V.unionWith(B));
  // Union with self never changes.
  BitVector C = A;
  EXPECT_FALSE(C.unionWith(A));
}

TEST_P(BitVectorKernels, IntersectWithMatchesAndAndReportsChange) {
  unsigned N = GetParam();
  BitVector A(N), B(N);
  for (unsigned I = 0; I < N; I += 2)
    A.set(I);
  for (unsigned I = 0; I < N; I += 3)
    B.set(I);
  BitVector Ref = A;
  Ref &= B;
  BitVector V = A;
  bool Changed = V.intersectWith(B);
  EXPECT_EQ(V, Ref);
  EXPECT_EQ(Changed, N > 2); // loses bit 2 (and others) once N > 2
  EXPECT_FALSE(V.intersectWith(B));
  BitVector Full(N, true);
  BitVector C = A;
  EXPECT_FALSE(C.intersectWith(Full));
}

TEST_P(BitVectorKernels, IntersectWithComplementMatchesAndNot) {
  unsigned N = GetParam();
  BitVector A(N), B(N);
  for (unsigned I = 0; I < N; I += 2)
    A.set(I);
  for (unsigned I = 0; I < N; I += 3)
    B.set(I);
  BitVector Ref = A;
  Ref.andNot(B);
  BitVector V = A;
  bool Changed = V.intersectWithComplement(B);
  EXPECT_EQ(V, Ref);
  EXPECT_EQ(Changed, N > 0); // bit 0 is in both, so it is always removed
  EXPECT_FALSE(V.intersectWithComplement(B));
  BitVector Empty(N);
  BitVector C = A;
  EXPECT_FALSE(C.intersectWithComplement(Empty));
}

TEST_P(BitVectorKernels, AssignFromCopiesAndReportsChange) {
  unsigned N = GetParam();
  BitVector A(N), B(N);
  for (unsigned I = 0; I < N; I += 2)
    A.set(I);
  for (unsigned I = 0; I < N; I += 5)
    B.set(I);
  BitVector V = A;
  bool Changed = V.assignFrom(B);
  EXPECT_EQ(V, B);
  EXPECT_EQ(Changed, N > 2); // identical universes differ once both non-empty
  EXPECT_FALSE(V.assignFrom(B));
}

TEST_P(BitVectorKernels, AssignMeetPreserveGenFusesAndOr) {
  unsigned N = GetParam();
  BitVector M(N), P(N), G(N);
  for (unsigned I = 0; I < N; I += 2)
    M.set(I);
  for (unsigned I = 0; I < N; I += 3)
    P.set(I);
  for (unsigned I = 0; I < N; I += 7)
    G.set(I);
  BitVector Ref = M;
  Ref &= P;
  Ref |= G;
  BitVector V(N);
  bool Changed = V.assignMeetPreserveGen(M, P, G);
  EXPECT_EQ(V, Ref);
  EXPECT_EQ(Changed, N > 0); // bit 0 always survives the meet
  // Re-applying with the same operands is a fixpoint.
  EXPECT_FALSE(V.assignMeetPreserveGen(M, P, G));
  // Aliasing the meet operand with the destination (self-loop blocks in the
  // PRE fixpoints) must behave like an in-place transfer.
  BitVector W = M;
  W.assignMeetPreserveGen(W, P, G);
  EXPECT_EQ(W, Ref);
}

TEST_P(BitVectorKernels, FullAndEmptyUniverses) {
  unsigned N = GetParam();
  BitVector Full(N, true), Empty(N), V(N);
  EXPECT_EQ(V.unionWith(Full), N > 0);
  EXPECT_EQ(V.count(), N);
  EXPECT_EQ(V.intersectWith(Empty), N > 0);
  EXPECT_TRUE(V.none());
  BitVector W(N, true);
  EXPECT_EQ(W.intersectWithComplement(Full), N > 0);
  EXPECT_TRUE(W.none());
}

INSTANTIATE_TEST_SUITE_P(Universes, BitVectorKernels,
                         testing::Values(0u, 1u, 64u, 100u, 130u));

TEST(StringUtil, Strprintf) {
  EXPECT_EQ(strprintf("x=%d y=%s", 42, "abc"), "x=42 y=abc");
  EXPECT_EQ(strprintf("%s", ""), "");
  std::string Long(500, 'a');
  EXPECT_EQ(strprintf("%s", Long.c_str()), Long);
}

TEST(StringUtil, ParseUnsignedIsStrict) {
  uint64_t V = 99;
  EXPECT_TRUE(parseUnsigned("0", V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(parseUnsigned("4242", V));
  EXPECT_EQ(V, 4242u);
  EXPECT_TRUE(parseUnsigned("18446744073709551615", V));
  EXPECT_EQ(V, UINT64_MAX);

  // Rejected inputs leave the output untouched.
  V = 7;
  for (const char *Bad : {"", "abc", "12abc", "-1", "+1", " 1", "1 ", "0x10",
                          "1.5", "18446744073709551616",
                          "99999999999999999999999"})
    EXPECT_FALSE(parseUnsigned(Bad, V)) << "'" << Bad << "'";
  EXPECT_EQ(V, 7u);

  // An explicit bound: inclusive, and checked before the value wraps.
  EXPECT_TRUE(parseUnsigned("4294967295", V, UINT32_MAX));
  EXPECT_EQ(V, 4294967295u);
  EXPECT_FALSE(parseUnsigned("4294967296", V, UINT32_MAX));
  EXPECT_FALSE(parseUnsigned("7", V, 5));
  EXPECT_TRUE(parseUnsigned("5", V, 5));
}

TEST(StringUtil, HashCombineDistinguishes) {
  EXPECT_NE(hashCombine(0, 1), hashCombine(0, 2));
  EXPECT_NE(hashCombine(1, 0), hashCombine(2, 0));
  EXPECT_NE(hashCombine(hashCombine(0, 1), 2),
            hashCombine(hashCombine(0, 2), 1));
}

TEST(Hash, StringDeterministicAndSensitive) {
  EXPECT_EQ(hashString("abc"), hashString("abc"));
  EXPECT_NE(hashString("abc"), hashString("abd"));
  EXPECT_NE(hashString(""), hashString(std::string(1, '\0')));
  // The size is mixed in before the data, so inputs that differ only by
  // trailing zero bytes (which pad into identical tail words) still differ.
  std::string A = "abcdefgh";
  std::string B = A + std::string(1, '\0');
  EXPECT_NE(hashString(A), hashString(B));
}

TEST(Hash, ChunkBoundaries) {
  // 7/8/9-byte inputs exercise tail-only, exact-word, and word+tail paths;
  // all must be distinct and agree with a byte-identical second call.
  std::string S = "abcdefghi";
  std::set<uint64_t> Digests;
  for (size_t N = 0; N <= S.size(); ++N) {
    uint64_t H = hashString(std::string_view(S).substr(0, N));
    EXPECT_EQ(H, hashBytes(S.data(), N));
    Digests.insert(H);
  }
  EXPECT_EQ(Digests.size(), S.size() + 1);
}

TEST(Hash, BytesMatchesManualFNV1a) {
  // hashBytes is chunked FNV-1a: seed, mix the size, then one step per
  // zero-padded native-endian word. Pin the recipe against a hand rolled
  // computation so the shared helper cannot silently drift.
  const char Data[] = {'x', 'y', 'z'};
  uint64_t W = 0;
  std::memcpy(&W, Data, 3);
  uint64_t Expect = fnv1aStep(fnv1aStep(FNV1aBasis, 3), W);
  EXPECT_EQ(hashBytes(Data, 3), Expect);
}

TEST(Hash, MemoryImageDigestIsTheHashCombineChain) {
  // hashMemoryImage is a pinned cross-run contract (the interpreter's
  // differential-testing digest; tests/eval_interp_test.cpp pins concrete
  // values). Verify the shared chunked traversal reproduces the original
  // formulation: seed combined with the size, then hashCombine per word.
  uint8_t Img[12];
  for (size_t I = 0; I < sizeof(Img); ++I)
    Img[I] = uint8_t(I * 7 + 1);
  uint64_t H = hashCombine(0x243f6a8885a308d3ULL, sizeof(Img));
  uint64_t W0 = 0, W1 = 0;
  std::memcpy(&W0, Img, 8);
  std::memcpy(&W1, Img + 8, 4);
  H = hashCombine(hashCombine(H, W0), W1);
  EXPECT_EQ(hashMemoryImage(Img, sizeof(Img)), H);
  EXPECT_NE(hashMemoryImage(Img, 8), hashMemoryImage(Img, 12));
}

} // namespace
