//===- tests/parser_test.cpp - Textual IR printer/parser ------------------===//

#include "frontend/Lower.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "suite/Suite.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace epre;

namespace {

const char *Sample = R"(
func @f(%a:i64, %b:f64) -> f64 {
^entry:
  %c:i64 = loadi 42
  %d:i64 = add %a, %c
  %e:f64 = i2f %d
  %g:f64 = mul %e, %b
  %h:f64 = call sqrt(%g)
  cbr %d, ^then, ^else
^then:
  %i:f64 = loadf 1.5
  store %i -> %d
  br ^join
^else:
  %j:f64 = load %d
  br ^join
^join:
  %k:f64 = phi [%h, ^then], [%j, ^else]
  ret %k
}
)";

TEST(Parser, ParsesSample) {
  ParseResult R = parseModule(Sample);
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_EQ(R.M->Functions.size(), 1u);
  Function &F = *R.M->Functions[0];
  EXPECT_EQ(F.name(), "f");
  EXPECT_EQ(F.params().size(), 2u);
  ASSERT_TRUE(F.returnType().has_value());
  EXPECT_EQ(*F.returnType(), Type::F64);
  EXPECT_EQ(F.numBlocks(), 4u);
  EXPECT_TRUE(verifyFunction(F).empty());
}

TEST(Parser, RoundTripIsStable) {
  ParseResult R1 = parseModule(Sample);
  ASSERT_TRUE(R1.ok()) << R1.Error;
  std::string P1 = printModule(*R1.M);
  ParseResult R2 = parseModule(P1);
  ASSERT_TRUE(R2.ok()) << R2.Error;
  std::string P2 = printModule(*R2.M);
  // Printing a parse of printed output must be a fixed point.
  EXPECT_EQ(P1, P2);
}

TEST(Parser, FloatRoundTrip) {
  const char *Src = R"(
func @g() -> f64 {
^e:
  %a:f64 = loadf 0.1
  %b:f64 = loadf -1.5e-300
  %c:f64 = loadf 3.0
  %d:f64 = add %a, %b
  %e2:f64 = add %d, %c
  ret %e2
}
)";
  ParseResult R = parseModule(Src);
  ASSERT_TRUE(R.ok()) << R.Error;
  const BasicBlock *B = R.M->Functions[0]->entry();
  EXPECT_EQ(B->Insts[0].FImm, 0.1);
  EXPECT_EQ(B->Insts[1].FImm, -1.5e-300);
  std::string P1 = printModule(*R.M);
  ParseResult R2 = parseModule(P1);
  ASSERT_TRUE(R2.ok()) << R2.Error;
  EXPECT_EQ(R2.M->Functions[0]->entry()->Insts[0].FImm, 0.1);
}

TEST(Parser, ForwardBlockReferences) {
  const char *Src = R"(
func @h(%p:i64) {
^a:
  cbr %p, ^c, ^b
^b:
  br ^c
^c:
  ret
}
)";
  ParseResult R = parseModule(Src);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_TRUE(verifyFunction(*R.M->Functions[0]).empty());
}

TEST(Parser, ErrorUnknownOpcode) {
  ParseResult R = parseModule("func @f() {\n^e:\n  %a:i64 = frob 1\n  ret\n}");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("frob"), std::string::npos);
}

TEST(Parser, ErrorUndefinedRegister) {
  ParseResult R = parseModule("func @f() {\n^e:\n  ret %x\n}");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("never defined"), std::string::npos);
}

TEST(Parser, ErrorUnknownBlock) {
  ParseResult R = parseModule("func @f() {\n^e:\n  br ^nowhere\n}");
  EXPECT_FALSE(R.ok());
}

TEST(Parser, ErrorDuplicateLabel) {
  ParseResult R =
      parseModule("func @f() {\n^e:\n  ret\n^e:\n  ret\n}");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("duplicate"), std::string::npos);
}

TEST(Parser, CommentsAndWhitespace) {
  const char *Src = R"(
; leading comment
func @f() -> i64 {   ; trailing comment
^e:
  %a:i64 = loadi 7   ; the meaning of life, minus 35
  ret %a
}
)";
  ParseResult R = parseModule(Src);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.M->Functions[0]->entry()->Insts[0].IImm, 7);
}

TEST(Parser, MultipleFunctions) {
  const char *Src = R"(
func @a() { ^e: ret }
func @b() { ^e: ret }
)";
  ParseResult R = parseModule(Src);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.M->Functions.size(), 2u);
  EXPECT_NE(R.M->find("a"), nullptr);
  EXPECT_NE(R.M->find("b"), nullptr);
  EXPECT_EQ(R.M->find("c"), nullptr);
}

TEST(Parser, ComparisonTypeInferred) {
  const char *Src = R"(
func @f(%x:f64, %y:f64) -> i64 {
^e:
  %c:i64 = cmplt %x, %y
  ret %c
}
)";
  ParseResult R = parseModule(Src);
  ASSERT_TRUE(R.ok()) << R.Error;
  const Instruction &Cmp = R.M->Functions[0]->entry()->Insts[0];
  EXPECT_EQ(Cmp.Ty, Type::F64); // operand type
  EXPECT_TRUE(verifyFunction(*R.M->Functions[0]).empty());
}

TEST(Parser, FoldsEqualTargetBranchWithAgreeingPhis) {
  // Both edges from ^e carry %a into ^j's phi: the branch becomes br and
  // the phi keeps one entry from ^e.
  const char *Src = R"(
func @f(%p:i64) -> i64 {
^e:
  %a:i64 = loadi 3
  cbr %p, ^j, ^j
^m:
  %b:i64 = loadi 4
  br ^j
^j:
  %c:i64 = phi [%a, ^e], [%b, ^m], [%a, ^e]
  ret %c
}
)";
  ParseResult R = parseModule(Src);
  ASSERT_TRUE(R.ok()) << R.Error;
  const Function &F = *R.M->Functions[0];
  EXPECT_EQ(F.entry()->terminator().Op, Opcode::Br);
  EXPECT_EQ(F.entry()->terminator().Succs[0], 2u);
  const Instruction &Phi = F.block(2)->Insts[0];
  ASSERT_EQ(Phi.PhiBlocks.size(), 2u);
  EXPECT_EQ(Phi.PhiBlocks[0], 0u);
  EXPECT_EQ(Phi.PhiBlocks[1], 1u);
  EXPECT_TRUE(verifyFunction(F, SSAMode::Relaxed).empty());
  EXPECT_EQ(printFunction(F).find("cbr"), std::string::npos);
}

TEST(Parser, ErrorEqualTargetBranchWithDisagreeingPhis) {
  // No single edge from ^e can carry both %a and %b.
  const char *Src = "func @f(%p:i64) -> i64 {\n"
                    "^e:\n"
                    "  %a:i64 = loadi 3\n"
                    "  %b:i64 = loadi 4\n"
                    "  cbr %p, ^j, ^j\n"
                    "^j:\n"
                    "  %c:i64 = phi [%a, ^e], [%b, ^e]\n"
                    "  ret %c\n"
                    "}\n";
  ParseResult R = parseModule(Src);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Error, "line 5: cbr names one block twice, whose phis "
                     "disagree on the value from ^e");
}

/// Parses \p Src, which must fail, and returns the diagnostic.
std::string parseError(const char *Src) {
  ParseResult R = parseModule(Src);
  EXPECT_FALSE(R.ok()) << printModule(*R.M);
  return R.Error;
}

TEST(Parser, ErrorFractionalIntegerImmediate) {
  EXPECT_EQ(parseError("func @f() -> i64 {\n^e:\n  %a:i64 = loadi 1.5\n"
                       "  ret %a\n}\n"),
            "line 3: invalid integer immediate '1.5'");
}

TEST(Parser, ErrorIntegerImmediateOutOfRange) {
  EXPECT_EQ(parseError("func @f() -> i64 {\n^e:\n"
                       "  %a:i64 = loadi 99999999999999999999999\n"
                       "  ret %a\n}\n"),
            "line 3: integer immediate out of range "
            "'99999999999999999999999'");
}

TEST(Parser, ErrorSignWithoutDigits) {
  EXPECT_EQ(parseError("func @f() -> i64 {\n^e:\n  %a:i64 = loadi -\n"
                       "  ret %a\n}\n"),
            "line 3: invalid integer immediate '-'");
}

TEST(Parser, ErrorMalformedFloatImmediate) {
  EXPECT_EQ(parseError("func @f() -> f64 {\n^e:\n  %a:f64 = loadf 1.5.5e\n"
                       "  ret %a\n}\n"),
            "line 3: invalid float immediate '1.5.5e'");
}

TEST(Parser, ErrorStrayCharacterAfterAFunction) {
  // A character no token starts with is an error, not the end of the
  // module: @g is not dropped silently.
  EXPECT_EQ(parseError("func @f() { ^e: ret }\n# x\nfunc @g() { ^e: ret }\n"),
            "line 2: unexpected character '#'");
  EXPECT_EQ(parseError("func @f() { ^e: ret }\n\n$\nfunc @g() { ^e: ret }\n"),
            "line 3: unexpected character '$'");
}

TEST(Parser, ErrorSigilWithoutAName) {
  EXPECT_EQ(parseError("func @f() -> i64 {\n^e:\n  %a:i64 = loadi 1\n"
                       "  %b:i64 = add %a, % a\n  ret %b\n}\n"),
            "line 4: unexpected character '%'");
  EXPECT_EQ(parseError("func @f() {\n^e:\n  br ^\n^:\n  ret\n}\n"),
            "line 3: unexpected character '^'");
}

TEST(Parser, ErrorDuplicateParameter) {
  EXPECT_EQ(parseError("func @f(%x:i64, %x:f64) {\n^e:\n  ret\n}\n"),
            "line 1: duplicate parameter '%x'");
}

TEST(Parser, ErrorDuplicateFunction) {
  EXPECT_EQ(parseError("func @f() { ^e: ret }\nfunc @g() { ^e: ret }\n"
                       "func @f() { ^e: ret }\n"),
            "line 3: duplicate function '@f'");
}

TEST(Parser, ErrorIntrinsicArity) {
  EXPECT_EQ(parseError("func @f(%x:f64) -> f64 {\n^e:\n"
                       "  %a:f64 = call sqrt(%x, %x)\n  ret %a\n}\n"),
            "line 3: intrinsic sqrt expects 1 arguments, has 2");
}

TEST(Parser, AcceptedImmediateForms) {
  const char *Src = R"(
func @f() -> f64 {
^e:
  %a:i64 = loadi +7
  %b:i64 = loadi -9223372036854775808
  %c:f64 = loadf -inf
  %d:f64 = loadf 2
  %e:f64 = loadf 4.9406564584124654e-324
  %g:f64 = loadf +1.5e3
  ret %g
}
)";
  ParseResult R = parseModule(Src);
  ASSERT_TRUE(R.ok()) << R.Error;
  const std::vector<Instruction> &I = R.M->Functions[0]->entry()->Insts;
  EXPECT_EQ(I[0].IImm, 7);
  EXPECT_EQ(I[1].IImm, INT64_MIN);
  EXPECT_EQ(I[2].FImm, -HUGE_VAL);
  EXPECT_EQ(I[3].FImm, 2.0);
  EXPECT_EQ(I[4].FImm, 4.9406564584124654e-324);
  EXPECT_EQ(I[5].FImm, 1500.0);
}

TEST(Parser, NumbersRegistersByFirstAppearanceAndBlocksByDefinition) {
  // Parameters first, then each name where it first appears, use or
  // definition; blocks in the order their labels are defined.
  const char *Src = R"(
func @f(%p:i64) -> i64 {
^z:
  %y:i64 = add %p, %x
  br ^a
^a:
  %x:i64 = loadi 1
  ret %y
}
)";
  ParseResult R = parseModule(Src);
  ASSERT_TRUE(R.ok()) << R.Error;
  const char *Want = "func @f(%r1:i64) -> i64 {\n"
                     "^z:\n"
                     "  %r2:i64 = add %r1, %r3\n"
                     "  br ^a\n"
                     "^a:\n"
                     "  %r3:i64 = loadi 1\n"
                     "  ret %r2\n"
                     "}\n";
  EXPECT_EQ(printFunction(*R.M->Functions[0]), Want);
}

// --- Byte mutation ----------------------------------------------------------

/// The seed texts: every suite routine, lowered and printed, and every
/// tests/corpus program.
std::vector<std::string> mutationSeeds() {
  std::vector<std::string> Seeds;
  for (const Routine &R : benchmarkSuite()) {
    LowerResult LR = compileMiniFortran(R.Source, NamingMode::Naive);
    EXPECT_TRUE(LR.ok()) << R.Name << ": " << LR.Error;
    if (LR.ok())
      Seeds.push_back(printModule(*LR.M));
  }
  std::vector<std::filesystem::path> Files;
  for (const auto &E : std::filesystem::directory_iterator(EPRE_CORPUS_DIR))
    if (E.path().extension() == ".iloc")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  for (const auto &Path : Files) {
    std::ifstream In(Path);
    std::stringstream SS;
    SS << In.rdbuf();
    Seeds.push_back(SS.str());
  }
  return Seeds;
}

/// Applies one to four seeded edits to \p Text: flip a bit of a byte,
/// delete a run, duplicate a run, or insert bytes of the ILOC alphabet.
std::string mutate(std::string Text, uint64_t &State) {
  auto next = [&State](uint64_t Bound) { // splitmix64
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return (Z ^ (Z >> 31)) % Bound;
  };
  static const char Alphabet[] = "%^@(){}[],:=->;+.eE0123456789_ \n"
                                 "abcdefghijklmnopqrstuvwxyz";
  for (uint64_t Edits = 1 + next(4); Edits && !Text.empty(); --Edits) {
    size_t At = next(Text.size());
    size_t Len = 1 + next(std::min<size_t>(8, Text.size() - At));
    switch (next(4)) {
    case 0:
      Text[At] = char(Text[At] ^ (1u << next(8)));
      break;
    case 1:
      Text.erase(At, Len);
      break;
    case 2:
      Text.insert(At, Text.substr(At, Len));
      break;
    default:
      for (size_t I = 0; I < Len; ++I)
        Text.insert(Text.begin() + At, Alphabet[next(sizeof(Alphabet) - 1)]);
      break;
    }
  }
  return Text;
}

TEST(ParserMutation, MutantsParseToVerifiableModulesOrFailWithALine) {
  constexpr unsigned MutantsPerSeed = 150;
  unsigned Parsed = 0, Rejected = 0;
  uint64_t State = 1;
  for (const std::string &Seed : mutationSeeds()) {
    for (unsigned N = 0; N < MutantsPerSeed; ++N) {
      std::string Mutant = mutate(Seed, State);
      ParseResult R = parseModule(Mutant);
      if (!R.ok()) {
        ++Rejected;
        size_t Colon = R.Error.find(": ");
        bool HasLine = R.Error.compare(0, 5, "line ") == 0 && Colon > 5 &&
                       Colon != std::string::npos &&
                       R.Error.find_first_not_of("0123456789", 5) == Colon;
        EXPECT_TRUE(HasLine) << R.Error << "\n" << Mutant;
        continue;
      }
      ++Parsed;
      verifyModule(*R.M); // must return, whatever it finds
    }
  }
  // Both outcomes occur, so neither path goes untested.
  EXPECT_GT(Parsed, 50u);
  EXPECT_GT(Rejected, 50u);
}

} // namespace
