//===- gvn/DVNT.h - Dominator-tree (hash-based) value numbering --*- C++ -*-===//
///
/// \file
/// The paper lists "hash-based value numbering" among the passes its
/// optimizer was missing and predicts it "should also benefit from
/// reassociation" (§4.1, §5.2). This is that pass: value numbering over
/// the dominator tree with a scoped hash table (the technique later
/// written up by Briggs, Cooper & Simpson as DVNT), usable as an
/// alternative engine for the §3.2 renaming phase.
///
/// Compared to the AWZ partition: hash-based numbering is pessimistic
/// (cannot prove loop phis congruent) but *constructive* — it folds
/// constants, exploits commutativity, and deletes dominated redundancies
/// outright instead of merely renaming them.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_GVN_DVNT_H
#define EPRE_GVN_DVNT_H

#include "gvn/ValueNumbering.h"
#include "instrument/PassInstrumentation.h"
#include "ir/Function.h"

namespace epre {

struct DVNTStats {
  unsigned Redundant = 0;   ///< dominated redundant computations removed
  unsigned MeaninglessPhis = 0;
  unsigned RedundantPhis = 0;
};

/// The full dominator-tree value numbering phase behind the unified
/// pass-entry API, on phi-free code, mirroring GVNPass: builds SSA
/// (copies kept), value-numbers over the dominator tree, leaves SSA, and
/// re-localizes any expression name the deletions left live across a
/// block boundary (§5.1).
///
/// Counters: dvnt.redundant, dvnt.meaningless_phis, dvnt.redundant_phis.
class DVNTPass {
public:
  static constexpr const char *name() { return "dvnt"; }
  void run(Function &F, PassContext &Ctx);

  /// Stats of the most recent run.
  const DVNTStats &lastStats() const { return Last; }

private:
  DVNTStats Last;
};

/// The core: value-numbers a function in SSA form, deleting dominated
/// redundancies. Copies are treated as variable-name barriers (kept).
DVNTStats valueNumberDominatorTreeSSA(Function &F);

} // namespace epre

#endif // EPRE_GVN_DVNT_H
