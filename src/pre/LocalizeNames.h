//===- pre/LocalizeNames.h - §5.1's "alternative approach" -------*- C++ -*-===//
///
/// \file
/// The paper's §5.1 sketches an alternative to forward propagation for
/// keeping expression names out of cross-block liveness: "insert copies to
/// newly created variable names and rewrite later references so that they
/// refer to the variable name rather than the expression name", left there
/// as "a topic for future research". This pass implements it.
///
/// For every expression name d_e that is used in some block without a
/// preceding local definition, it creates a variable v_e, inserts
/// `v_e <- d_e` after each definition of d_e, and rewrites exactly the
/// unsafe (cross-block) uses to v_e. Afterwards no expression name is live
/// across a basic block boundary, so PRE's universe filter never has to
/// drop an expression. Used by the `partial` pipeline, where the hashed
/// front end can otherwise leak names (e.g. a DO-loop bound shared by the
/// guard and the bottom test).
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_PRE_LOCALIZENAMES_H
#define EPRE_PRE_LOCALIZENAMES_H

#include "instrument/PassInstrumentation.h"
#include "ir/Function.h"

namespace epre {

/// Expression-name localization behind the unified pass-entry API.
/// Preserves the CFG shape (adds shadow copies only).
/// Counters: localize.names.
class LocalizeNamesPass {
public:
  static constexpr const char *name() { return "localize"; }
  void run(Function &F, PassContext &Ctx);
};

} // namespace epre

#endif // EPRE_PRE_LOCALIZENAMES_H
