//===- bench/table2_code_expansion.cpp - Reproduce the paper's Table 2 ----===//
///
/// Static code expansion caused by forward propagation: for every routine,
/// the static ILOC operation count immediately before and after the
/// forward-propagation step of the reassociation pipeline, and the growth
/// factor. The paper reports a 1.269x total over its suite; worst-case
/// growth is exponential (§4.3) but practice is modest.
///
//===----------------------------------------------------------------------===//

#include "suite/Harness.h"

#include <algorithm>
#include <cstdio>
#include <vector>

using namespace epre;

int main() {
  struct Row {
    std::string Name;
    PipelineStats S;
  };
  std::vector<Row> Rows;
  for (const Routine &R : benchmarkSuite())
    Rows.push_back({R.Name, measureForwardPropExpansion(R)});

  std::sort(Rows.begin(), Rows.end(),
            [](const Row &A, const Row &B) { return A.Name < B.Name; });

  std::printf("Table 2: code expansion from forward propagation\n");
  std::printf("%-10s %8s %8s %10s %8s %8s\n", "routine", "before", "after",
              "expansion", "phis", "clones");
  PipelineStats Total;
  auto Count = [](const PipelineStats &S, const char *Name) {
    return (unsigned long long)S.get("fwdprop", Name);
  };
  for (const Row &R : Rows) {
    std::printf("%-10s %8llu %8llu %9.3f %8llu %8llu\n", R.Name.c_str(),
                Count(R.S, "ops_before"), Count(R.S, "ops_after"),
                R.S.fwdExpansion(), Count(R.S, "phis_removed"),
                Count(R.S, "trees_cloned"));
    Total.merge(R.S);
  }
  std::printf("%-10s %8llu %8llu %9.3f\n", "totals",
              Count(Total, "ops_before"), Count(Total, "ops_after"),
              Total.fwdExpansion());
  return 0;
}
