//===- instrument/PassInstrumentation.cpp ---------------------------------===//

#include "instrument/PassInstrumentation.h"

#include "instrument/JSONWriter.h"
#include "ir/IRPrinter.h"
#include "support/Hash.h"

#include <cstdio>

using namespace epre;

void PassInstrumentation::snapshot(const std::string &Text) {
  if (SnapshotSink)
    SnapshotSink(Text);
  else
    std::fputs(Text.c_str(), stderr);
}

void PassInstrumentation::runBeforePass(std::string_view Name,
                                        const Function &F) {
  for (PassCallback &CB : BeforeCBs)
    CB(Name, F);
  if (Opts.PrintChangedIR)
    HashStack.push_back(hashString(printFunction(F)));
  if (Opts.TimePasses)
    Timers.open(Name);
}

void PassInstrumentation::runAfterPass(std::string_view Name,
                                       const Function &F) {
  if (Opts.TimePasses)
    Timers.close();
  if (Opts.PrintChangedIR) {
    uint64_t Before = HashStack.back();
    HashStack.pop_back();
    std::string IR = printFunction(F);
    if (hashString(IR) != Before) {
      std::string Head = "--- IR after " + std::string(Name) + " (" +
                         F.name() + ") ---\n";
      snapshot(Head + IR);
    }
  }
  for (PassCallback &CB : AfterCBs)
    CB(Name, F);
}

std::string PassInstrumentation::statsJSON() const {
  JSONWriter W;
  W.beginObject();

  W.key("timers").beginObject();
  W.key("total_ns").value(Timers.totalNs());
  W.key("passes").beginArray();
  {
    // Flat per-name aggregation (the full tree lives in the trace export).
    std::map<std::string, std::pair<uint64_t, uint64_t>> ByName;
    for (const TimerTree::Slice &S : Timers.slices()) {
      auto &E = ByName[S.Name];
      E.first += S.DurNs;
      E.second += 1;
    }
    for (const auto &[Name, NsCount] : ByName) {
      W.beginObject();
      W.key("pass").value(Name);
      W.key("wall_ns").value(NsCount.first);
      W.key("invocations").value(NsCount.second);
      W.endObject();
    }
  }
  W.endArray();
  W.endObject();

  W.key("counters").beginObject();
  Stats.forEach([&](const std::string &K, uint64_t V) { W.key(K).value(V); });
  W.endObject();

  W.key("remarks").beginObject();
  for (const auto &[Pass, N] : Remarks.countsByPass())
    W.key(Pass).value(N);
  W.endObject();

  W.endObject();
  return W.take();
}

void PassInstrumentation::merge(PassInstrumentation &&Child) {
  Timers.merge(Child.Timers);
  Stats.merge(Child.Stats);
  Remarks.merge(std::move(Child.Remarks));
  Child.Timers = TimerTree();
  Child.Stats.clear();
}
