//===- tests/instrument_test.cpp - Pass instrumentation layer -------------===//
///
/// Covers the observability subsystem end to end: callback ordering and
/// nesting, the hierarchical timer tree, the stats registry, remark
/// filtering and the golden remark text on the paper's running example,
/// changed-IR snapshot gating, option validation and the name/parse
/// round-trips, the statsJSON schema, and serial/parallel determinism of
/// the merged instrumentation.
///
//===----------------------------------------------------------------------===//

#include "frontend/Lower.h"
#include "instrument/JSONWriter.h"
#include "instrument/PassInstrumentation.h"
#include "instrument/Profile.h"
#include "ir/IRPrinter.h"
#include "opt/ConstantPropagation.h"
#include "pipeline/Pipeline.h"

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

using namespace epre;

namespace {

const char *FooSource = R"(
function foo(y, z)
  s = 0
  x = y + z
  do i = x, 100
    s = i + s + x
  end do
  return s
end
)";

Function *compileFoo(LowerResult &LR, NamingMode Mode) {
  LR = compileMiniFortran(FooSource, Mode);
  EXPECT_TRUE(LR.ok()) << LR.Error;
  return LR.ok() ? LR.M->find("foo") : nullptr;
}

TEST(Instrument, CallbackOrderingAndNesting) {
  LowerResult LR;
  Function *F = compileFoo(LR, NamingMode::Naive);
  ASSERT_TRUE(F);

  PassInstrumentation PI;
  std::vector<std::string> Events;
  PI.registerBeforePass([&](std::string_view Name, const Function &Fn) {
    Events.push_back("before1 " + std::string(Name) + " @" + Fn.name());
  });
  PI.registerBeforePass([&](std::string_view Name, const Function &) {
    Events.push_back("before2 " + std::string(Name));
  });
  PI.registerAfterPass([&](std::string_view Name, const Function &) {
    Events.push_back("after1 " + std::string(Name));
  });
  PI.registerAfterPass([&](std::string_view Name, const Function &) {
    Events.push_back("after2 " + std::string(Name));
  });

  PipelineOptions PO;
  PO.Level = OptLevel::Distribution;
  PO.Instr = &PI;
  optimizeFunction(*F, PO);
  ASSERT_FALSE(Events.empty());

  // Registration order within one pass boundary: before1 immediately
  // followed by before2 with the same pass name; same for after1/after2.
  for (size_t I = 0; I < Events.size(); ++I) {
    if (Events[I].rfind("before1 ", 0) == 0) {
      ASSERT_LT(I + 1, Events.size());
      std::string Name =
          Events[I].substr(8, Events[I].find(" @") - 8);
      EXPECT_EQ(Events[I + 1], "before2 " + Name);
    }
    if (Events[I].rfind("after1 ", 0) == 0) {
      ASSERT_LT(I + 1, Events.size());
      EXPECT_EQ(Events[I + 1], "after2 " + Events[I].substr(7));
    }
  }

  // Proper nesting: every before pushes, every matching after pops.
  std::vector<std::string> Stack;
  for (const std::string &E : Events) {
    if (E.rfind("before1 ", 0) == 0)
      Stack.push_back(E.substr(8, E.find(" @") - 8));
    else if (E.rfind("after1 ", 0) == 0) {
      ASSERT_FALSE(Stack.empty()) << E;
      EXPECT_EQ(Stack.back(), E.substr(7));
      Stack.pop_back();
    }
  }
  EXPECT_TRUE(Stack.empty());

  // The pipeline root scope brackets everything.
  EXPECT_EQ(Events.front(), "before1 pipeline @foo");
  EXPECT_EQ(Events.back(), "after2 pipeline");

  // Composite passes nest their SSA sandwich: a "before gvn" must be
  // followed by "before ssa.build" before "after gvn" arrives.
  auto Find = [&](const std::string &Needle, size_t From) {
    for (size_t I = From; I < Events.size(); ++I)
      if (Events[I].rfind(Needle, 0) == 0)
        return I;
    return Events.size();
  };
  size_t GvnBefore = Find("before1 gvn", 0);
  ASSERT_LT(GvnBefore, Events.size());
  size_t InnerBuild = Find("before1 ssa.build", GvnBefore);
  size_t GvnAfter = Find("after1 gvn", GvnBefore);
  ASSERT_LT(GvnAfter, Events.size());
  EXPECT_LT(InnerBuild, GvnAfter) << "gvn must run ssa.build inside itself";
}

TEST(Instrument, TimerTreeNestsAndReports) {
  LowerResult LR;
  Function *F = compileFoo(LR, NamingMode::Naive);
  ASSERT_TRUE(F);

  InstrumentationOptions IO;
  IO.TimePasses = true;
  PassInstrumentation PI(IO);
  PipelineOptions PO;
  PO.Level = OptLevel::Distribution;
  PO.Instr = &PI;
  optimizeFunction(*F, PO);

  const std::vector<TimerTree::Slice> &S = PI.timers().slices();
  ASSERT_FALSE(S.empty());

  // Exactly one root: the pipeline scope; every other slice sits under it.
  unsigned Roots = 0;
  int PipelineIdx = -1;
  for (unsigned I = 0; I < S.size(); ++I)
    if (S[I].Parent < 0) {
      ++Roots;
      PipelineIdx = int(I);
    }
  ASSERT_EQ(Roots, 1u);
  EXPECT_EQ(S[PipelineIdx].Name, "pipeline");

  // Children fit inside their parents (time containment), and the SSA
  // sandwich slices hang under their composite pass.
  bool SawNestedBuild = false;
  for (const TimerTree::Slice &C : S) {
    if (C.Parent < 0)
      continue;
    const TimerTree::Slice &P = S[C.Parent];
    EXPECT_GE(C.StartNs, P.StartNs) << C.Name;
    EXPECT_LE(C.StartNs + C.DurNs, P.StartNs + P.DurNs) << C.Name;
    if (C.Name == "ssa.build" && P.Name == "gvn")
      SawNestedBuild = true;
  }
  EXPECT_TRUE(SawNestedBuild);

  std::string Report = PI.timers().report();
  EXPECT_NE(Report.find("pipeline"), std::string::npos);
  EXPECT_NE(Report.find("pre"), std::string::npos);

  // The trace export is one JSON document with one event per slice.
  std::string Trace = PI.timers().toChromeTrace();
  EXPECT_NE(Trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Trace.find("\"ph\":\"X\""), std::string::npos);
}

TEST(Instrument, StatsRegistryBasics) {
  StatsRegistry A;
  A.counter("pre", "inserted") += 3;
  A.counter("pre", "inserted") += 2;
  A.counter("gvn", "classes") += 7;
  EXPECT_EQ(A.get("pre", "inserted"), 5u);
  EXPECT_EQ(A.get("pre.inserted"), 5u);
  EXPECT_EQ(A.get("nonexistent", "counter"), 0u);
  EXPECT_TRUE(A.has("gvn.classes"));
  EXPECT_FALSE(A.has("gvn.nope"));

  StatsRegistry B;
  B.counter("pre", "inserted") += 1;
  B.counter("dce", "removed") += 4;
  A.merge(B);
  EXPECT_EQ(A.get("pre", "inserted"), 6u);
  EXPECT_EQ(A.get("dce", "removed"), 4u);
  EXPECT_EQ(A.toJSON(),
            "{\"dce.removed\":4,\"gvn.classes\":7,\"pre.inserted\":6}");
}

TEST(Instrument, PassContextDisabledIsNoop) {
  // The default context (what deprecated shims use) must swallow
  // everything without crashing.
  PassContext Ctx;
  EXPECT_FALSE(Ctx.remarksEnabled());
  Ctx.addStat("anything", 42); // no registry, no pass scope: dropped
  EXPECT_EQ(Ctx.passName(), "");
}

TEST(Instrument, RemarkFiltering) {
  LowerResult LR;
  Function *F = compileFoo(LR, NamingMode::Naive);
  ASSERT_TRUE(F);

  InstrumentationOptions IO;
  IO.CollectRemarks = true;
  IO.RemarkPasses = {"pre"};
  PassInstrumentation PI(IO);
  PipelineOptions PO;
  PO.Level = OptLevel::Distribution;
  PO.Instr = &PI;
  optimizeFunction(*F, PO);

  ASSERT_FALSE(PI.remarks().empty());
  for (const Remark &R : PI.remarks().remarks())
    EXPECT_EQ(R.Pass, "pre") << R.toText();

  // Without the filter the reassociation and GVN remarks appear too.
  LowerResult LR2;
  Function *F2 = compileFoo(LR2, NamingMode::Naive);
  ASSERT_TRUE(F2);
  InstrumentationOptions IOAll;
  IOAll.CollectRemarks = true;
  PassInstrumentation PIAll(IOAll);
  PO.Instr = &PIAll;
  optimizeFunction(*F2, PO);
  auto Counts = PIAll.remarks().countsByPass();
  EXPECT_GT(Counts["pre"], 0u);
  EXPECT_GT(Counts["gvn"], 0u);
  EXPECT_GT(Counts["reassoc"], 0u);
  EXPECT_GT(PIAll.remarks().size(), PI.remarks().size());
}

TEST(Instrument, ChangedIRSnapshotGating) {
  // SCCP folds the constant the first time (IR changes: one dump) and
  // finds nothing the second time (no dump).
  const char *Src = R"(
function k()
  a = 2
  b = a * 3
  return b
end
)";
  LowerResult LR = compileMiniFortran(Src, NamingMode::Naive);
  ASSERT_TRUE(LR.ok()) << LR.Error;
  Function &F = *LR.M->find("k");

  InstrumentationOptions IO;
  IO.PrintChangedIR = true;
  PassInstrumentation PI(IO);
  std::vector<std::string> Dumps;
  PI.setSnapshotSink([&](const std::string &S) { Dumps.push_back(S); });

  StatsRegistry SR;
  PassContext Ctx(&SR, &PI);
  SCCPPass().run(F, Ctx);
  ASSERT_EQ(Dumps.size(), 1u);
  EXPECT_NE(Dumps[0].find("IR after sccp"), std::string::npos);
  SCCPPass().run(F, Ctx);
  EXPECT_EQ(Dumps.size(), 1u) << "unchanged pass must not dump";
}

TEST(Instrument, JSONEscaping) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(jsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(jsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

// --- A minimal JSON syntax checker for the schema test -------------------

struct JSONCheck {
  const std::string &S;
  size_t P = 0;
  bool Ok = true;

  explicit JSONCheck(const std::string &S) : S(S) {}
  void ws() {
    while (P < S.size() && std::isspace(static_cast<unsigned char>(S[P])))
      ++P;
  }
  bool eat(char C) {
    ws();
    if (P < S.size() && S[P] == C) {
      ++P;
      return true;
    }
    return false;
  }
  void fail() { Ok = false; }
  void value() {
    if (!Ok)
      return;
    ws();
    if (P >= S.size())
      return fail();
    char C = S[P];
    if (C == '{')
      return object();
    if (C == '[')
      return array();
    if (C == '"')
      return string();
    if (C == '-' || std::isdigit(static_cast<unsigned char>(C)))
      return number();
    if (S.compare(P, 4, "true") == 0)
      P += 4;
    else if (S.compare(P, 5, "false") == 0)
      P += 5;
    else if (S.compare(P, 4, "null") == 0)
      P += 4;
    else
      fail();
  }
  void object() {
    if (!eat('{'))
      return fail();
    if (eat('}'))
      return;
    do {
      string();
      if (!eat(':'))
        return fail();
      value();
    } while (Ok && eat(','));
    if (!eat('}'))
      fail();
  }
  void array() {
    if (!eat('['))
      return fail();
    if (eat(']'))
      return;
    do
      value();
    while (Ok && eat(','));
    if (!eat(']'))
      fail();
  }
  void string() {
    ws();
    if (P >= S.size() || S[P] != '"')
      return fail();
    ++P;
    while (P < S.size() && S[P] != '"') {
      if (S[P] == '\\')
        ++P;
      ++P;
    }
    if (P >= S.size())
      return fail();
    ++P;
  }
  void number() {
    if (S[P] == '-')
      ++P;
    while (P < S.size() &&
           (std::isdigit(static_cast<unsigned char>(S[P])) || S[P] == '.' ||
            S[P] == 'e' || S[P] == 'E' || S[P] == '+' || S[P] == '-'))
      ++P;
  }
  bool parse() {
    value();
    ws();
    return Ok && P == S.size();
  }
};

TEST(Instrument, StatsJSONSchema) {
  LowerResult LR;
  Function *F = compileFoo(LR, NamingMode::Naive);
  ASSERT_TRUE(F);

  InstrumentationOptions IO;
  IO.TimePasses = true;
  IO.CollectRemarks = true;
  PassInstrumentation PI(IO);
  PipelineOptions PO;
  PO.Level = OptLevel::Distribution;
  PO.Instr = &PI;
  optimizeFunction(*F, PO);

  std::string Doc = PI.statsJSON();
  JSONCheck C(Doc);
  EXPECT_TRUE(C.parse()) << Doc;

  // Top-level schema: timers (total_ns + passes array), counters, remarks.
  EXPECT_NE(Doc.find("\"timers\":{\"total_ns\":"), std::string::npos);
  EXPECT_NE(Doc.find("\"passes\":[{"), std::string::npos);
  EXPECT_NE(Doc.find("\"pass\":\"pipeline\""), std::string::npos);
  EXPECT_NE(Doc.find("\"wall_ns\":"), std::string::npos);
  EXPECT_NE(Doc.find("\"invocations\":"), std::string::npos);
  EXPECT_NE(Doc.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(Doc.find("\"pipeline.ops_before\":"), std::string::npos);
  EXPECT_NE(Doc.find("\"pre.deleted\":"), std::string::npos);
  EXPECT_NE(Doc.find("\"remarks\":{"), std::string::npos);
}

TEST(Instrument, OptionRoundTripsAndValidation) {
  for (OptLevel L : {OptLevel::None, OptLevel::Baseline, OptLevel::Partial,
                     OptLevel::Reassociation, OptLevel::Distribution}) {
    OptLevel Got;
    EXPECT_TRUE(parseOptLevel(optLevelName(L), Got));
    EXPECT_EQ(Got, L);
  }
  for (PREStrategy S :
       {PREStrategy::LazyCodeMotion, PREStrategy::MorelRenvoise,
        PREStrategy::GlobalCSE, PREStrategy::Speculative}) {
    PREStrategy Got;
    EXPECT_TRUE(parsePREStrategy(preStrategyName(S), Got));
    EXPECT_EQ(Got, S);
  }
  for (GVNEngine E : {GVNEngine::AWZ, GVNEngine::DVNT}) {
    GVNEngine Got;
    EXPECT_TRUE(parseGVNEngine(gvnEngineName(E), Got));
    EXPECT_EQ(Got, E);
  }
  for (InputNaming N : {InputNaming::Hashed, InputNaming::Naive}) {
    InputNaming Got;
    EXPECT_TRUE(parseInputNaming(inputNamingName(N), Got));
    EXPECT_EQ(Got, N);
  }
  PREStrategy S;
  EXPECT_TRUE(parsePREStrategy("lcm", S)); // historical alias
  EXPECT_EQ(S, PREStrategy::LazyCodeMotion);
  EXPECT_TRUE(parsePREStrategy("lospre", S)); // literature alias
  EXPECT_EQ(S, PREStrategy::Speculative);
  OptLevel L;
  EXPECT_FALSE(parseOptLevel("turbo", L));
  GVNEngine E;
  EXPECT_FALSE(parseGVNEngine("hash", E));

  PipelineOptions Good;
  EXPECT_EQ(Good.validate(), "");
  EXPECT_TRUE(PipelineOptions::create(Good).has_value());

  PipelineOptions BadNaming;
  BadNaming.Level = OptLevel::Partial;
  BadNaming.Naming = InputNaming::Naive;
  std::string Err;
  EXPECT_FALSE(PipelineOptions::create(BadNaming, &Err).has_value());
  EXPECT_NE(Err.find("hashed"), std::string::npos);

  PipelineOptions BadFP;
  BadFP.Level = OptLevel::Distribution;
  BadFP.AllowFPReassoc = false;
  EXPECT_FALSE(PipelineOptions::create(BadFP, &Err).has_value());
  EXPECT_NE(Err.find("distribution"), std::string::npos);

  PipelineOptions BadSR;
  BadSR.Level = OptLevel::None;
  BadSR.EnableStrengthReduction = true;
  EXPECT_NE(BadSR.validate(), "");

  // Speculative placement is profile-guided by definition: without a
  // profile attached the combination is rejected, with one it validates.
  PipelineOptions Spec;
  Spec.Level = OptLevel::Partial;
  Spec.Strategy = PREStrategy::Speculative;
  EXPECT_FALSE(PipelineOptions::create(Spec, &Err).has_value());
  EXPECT_NE(Err.find("profile"), std::string::npos);
  ProfileDoc Doc;
  Spec.ProfileIn = &Doc;
  EXPECT_TRUE(PipelineOptions::create(Spec).has_value());
}

TEST(Instrument, ParallelMergeIsDeterministic) {
  std::string Src;
  for (int I = 0; I < 6; ++I) {
    std::string One = FooSource;
    size_t Pos = One.find("function foo");
    One.replace(Pos, 12, "function gen" + std::to_string(I));
    Src += One;
  }
  auto Compile = [&](LowerResult &LR) {
    LR = compileMiniFortran(Src, NamingMode::Naive);
    ASSERT_TRUE(LR.ok()) << LR.Error;
  };
  LowerResult Serial, Par;
  Compile(Serial);
  Compile(Par);

  InstrumentationOptions IO;
  IO.TimePasses = true;
  IO.CollectRemarks = true;
  PassInstrumentation SerialPI(IO), ParPI(IO);

  PipelineOptions PO;
  PO.Level = OptLevel::Distribution;
  PO.Instr = &SerialPI;
  optimizeModule(*Serial.M, PO);
  PO.Instr = &ParPI;
  runPipelineParallel(*Par.M, PO, 4);

  // Counters and the remark stream must be bit-identical to the serial
  // run; timers differ in wall time but cover the same pass executions.
  EXPECT_EQ(SerialPI.stats().toJSON(), ParPI.stats().toJSON());
  EXPECT_EQ(SerialPI.remarks().toText(), ParPI.remarks().toText());
  EXPECT_EQ(SerialPI.timers().slices().size(),
            ParPI.timers().slices().size());
}

TEST(Instrument, GoldenRemarksOnPaperExample) {
  // The paper's running example at the Partial level: hashed naming, name
  // localization, then PRE hoists `y + z`'s recomputations. The remark
  // text is the golden contract of the remark layer.
  LowerResult LR;
  Function *F = compileFoo(LR, NamingMode::Hashed);
  ASSERT_TRUE(F);

  InstrumentationOptions IO;
  IO.CollectRemarks = true;
  IO.RemarkPasses = {"pre"};
  PassInstrumentation PI(IO);
  PipelineOptions PO;
  PO.Level = OptLevel::Partial;
  PO.Instr = &PI;
  optimizeFunction(*F, PO);

  std::string Text = PI.remarks().toText();
  // Every line is attributed to PRE inside foo, and the set of remark
  // kinds is exactly insert+delete (PRE emits nothing else).
  for (const Remark &R : PI.remarks().remarks()) {
    EXPECT_EQ(R.Pass, "pre");
    EXPECT_EQ(R.Function, "foo");
    EXPECT_TRUE(R.Kind == RemarkKind::Insert || R.Kind == RemarkKind::Delete)
        << R.toText();
  }
  // At Partial, hashed naming leaves exactly one partially redundant
  // computation: the loop-invariant constant load feeding the loop bound,
  // deleted from the body and re-inserted on the entry edge.
  EXPECT_EQ(Text,
            "pre: delete: [foo:^b1] loadi — "
            "redundant computation of r16 removed\n"
            "pre: insert: [foo:^b1] loadi — "
            "computation of r16 inserted on edge ^entry -> ^b1\n");
}

} // namespace
