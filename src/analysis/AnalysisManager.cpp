//===- analysis/AnalysisManager.cpp - Cached function analyses ------------===//

#include "analysis/AnalysisManager.h"
#include "support/StringUtil.h"

namespace epre {

const char *analysisName(AnalysisID ID) {
  switch (ID) {
  case AnalysisID::CFGAnalysis:
    return "cfg";
  case AnalysisID::DomTreeAnalysis:
    return "domtree";
  case AnalysisID::LoopAnalysis:
    return "loops";
  case AnalysisID::ProfileAnalysis:
    return "profile";
  }
  return "?";
}

std::string formatAnalysisStats(const FunctionAnalysisManager::Stats &S) {
  std::string Out;
  for (unsigned I = 0; I != NumAnalysisIDs; ++I) {
    if (I)
      Out += " ";
    Out += strprintf("%s=%llu/%llu", analysisName(AnalysisID(I)),
                     (unsigned long long)S.Hits[I],
                     (unsigned long long)(S.Hits[I] + S.Computes[I]));
  }
  return Out;
}

} // namespace epre
