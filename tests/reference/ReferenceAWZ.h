//===- reference/ReferenceAWZ.h - String-keyed AWZ oracle -------*- C++ -*-===//
///
/// \file
/// The test-side reference for the AWZ partition and renaming core: the
/// original formulation over ordered maps, with one printf-built string
/// signature per register per refinement round. gvn_test requires
/// valueNumberSSA() to leave the same printed IR and return the same
/// GVNStats as this reference on every function it compares.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_TESTS_REFERENCE_AWZ_H
#define EPRE_TESTS_REFERENCE_AWZ_H

#include "gvn/ValueNumbering.h"

namespace epre {

/// valueNumberSSA() computed the string-keyed way. Same contract: \p F is in
/// SSA form and stays in SSA-with-shared-names form.
GVNStats valueNumberSSAReference(Function &F);

} // namespace epre

#endif // EPRE_TESTS_REFERENCE_AWZ_H
