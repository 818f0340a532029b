//===- ir/IRParser.h - Textual IR input --------------------------*- C++ -*-===//
///
/// \file
/// Parses the textual ILOC-like syntax produced by IRPrinter. Used by tests
/// and by the examples; the front end builds IR directly.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_IR_IRPARSER_H
#define EPRE_IR_IRPARSER_H

#include "ir/Function.h"

#include <memory>
#include <string>

namespace epre {

/// Result of a parse: a module on success, a diagnostic on failure.
struct ParseResult {
  std::unique_ptr<Module> M;
  std::string Error;

  bool ok() const { return M != nullptr; }
};

/// Parses \p Text into a module. On failure, Error holds a message of the
/// form "line N: ...". A `cbr` naming one block twice becomes `br`
/// (foldEqualTargetBranch); it is an error when that block's phis take two
/// values from the branching block.
ParseResult parseModule(const std::string &Text);

} // namespace epre

#endif // EPRE_IR_IRPARSER_H
