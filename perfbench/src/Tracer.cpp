//===- perfbench/src/Tracer.cpp -------------------------------------------===//

#include "Tracer.h"

#include "instrument/JSONWriter.h"
#include "instrument/PassInstrumentation.h"

#include <chrono>
#include <fstream>

using namespace perfbench;

uint64_t perfbench::nowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

uint32_t Tracer::intern(std::string_view Name) {
  auto It = Ids.find(Name);
  if (It != Ids.end())
    return It->second;
  uint32_t Id = uint32_t(Names.size());
  Names.emplace_back(Name);
  Ids.emplace(std::string(Name), Id);
  return Id;
}

int Tracer::begin(uint32_t NameId) {
  if (!On)
    return -1;
  Span S;
  S.Name = NameId;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Op = CurOp;
  int Idx = int(Spans.size());
  Open.push_back(Idx);
  S.Start = nowNs();
  Spans.push_back(S);
  return Idx;
}

void Tracer::end(int Idx, uint64_t Count) {
  if (Idx < 0)
    return;
  Span &S = Spans[size_t(Idx)];
  S.End = nowNs();
  S.Count = Count;
  if (!Open.empty() && Open.back() == Idx)
    Open.pop_back();
}

std::map<std::string, Tracer::Layer> Tracer::layers() const {
  // Children of one parent run one after another on this thread, so the
  // sum of their durations is exactly the part of the parent they cover.
  std::vector<uint64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[size_t(S.Parent)] += S.End - S.Start;
  std::map<std::string, Layer> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Layer &L = Out[Names[S.Name]];
    uint64_t Dur = S.End - S.Start;
    ++L.Spans;
    L.TotalNs += Dur;
    L.SelfNs += Dur - std::min(Dur, ChildNs[I]);
    L.CountSum += S.Count;
  }
  return Out;
}

void Tracer::append(const Tracer &Other) {
  int32_t Base = int32_t(Spans.size());
  for (Span S : Other.Spans) {
    S.Name = intern(Other.Names[S.Name]);
    if (S.Parent >= 0)
      S.Parent += Base;
    Spans.push_back(S);
  }
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  uint64_t T0 = Spans.empty() ? 0 : Spans.front().Start;
  for (const Span &S : Spans)
    T0 = std::min(T0, S.Start);
  Out << "{\"traceEvents\":[\n";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    epre::JSONWriter W;
    W.beginObject();
    W.key("name").value(Names[S.Name]);
    W.key("ph").value("X");
    W.key("ts").value(double(S.Start - T0) / 1e3);
    W.key("dur").value(double(S.End - S.Start) / 1e3);
    W.key("pid").value(uint64_t(1));
    W.key("tid").value(uint64_t(1));
    W.key("args").beginObject();
    W.key("span").value(uint64_t(I));
    W.key("parent").value(int64_t(S.Parent));
    W.key("op").value(uint64_t(S.Op));
    if (S.Count)
      W.key("count").value(S.Count);
    W.endObject();
    W.endObject();
    Out << W.str() << (I + 1 < Spans.size() ? ",\n" : "\n");
  }
  Out << "]}\n";
  return bool(Out);
}

std::unique_ptr<epre::PassInstrumentation>
perfbench::makePassTracer(Tracer &T) {
  auto PI = std::make_unique<epre::PassInstrumentation>();
  // Pass applications nest (gvn runs its own ssa.build), so the open span
  // indices form a stack mirroring the pipeline's PassScope stack.
  auto Stack = std::make_shared<std::vector<int>>();
  // Pass names are string constants, so their address identifies them and
  // the span name is interned once per pass, not per application.
  auto NameIds = std::make_shared<std::map<const char *, uint32_t>>();
  PI->registerBeforePass([&T, Stack, NameIds](std::string_view Name,
                                              const epre::Function &) {
    auto It = NameIds->find(Name.data());
    if (It == NameIds->end())
      It = NameIds->emplace(Name.data(), T.intern("pass." + std::string(Name)))
               .first;
    Stack->push_back(T.begin(It->second));
  });
  PI->registerAfterPass(
      [&T, Stack](std::string_view, const epre::Function &F) {
        int Idx = Stack->back();
        Stack->pop_back();
        T.end(Idx, F.staticOperationCount());
      });
  return PI;
}
