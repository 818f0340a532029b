//===- frontend/Parser.h - Mini-FORTRAN parser -------------------*- C++ -*-===//
///
/// \file
/// Line-oriented recursive-descent parser for Mini-FORTRAN.
///
/// Grammar sketch (case-insensitive keywords, `!` comments, one statement
/// per line):
/// \code
///   function foo(a, b)
///     real x, w(100), m(10,10)
///     integer n
///     x = a + b * 2.0
///     do i = 1, 100, 2
///       w(i) = w(i) + x
///     end do
///     while (x .lt. 10.0)
///       x = x * 2.0
///     end while
///     if (x .ge. 5.0) then
///       x = x - 1.0
///     else
///       x = x + 1.0
///     end if
///     return x
///   end
/// \endcode
/// Comparison operators may be written `.lt.` style or `<` style.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_FRONTEND_PARSER_H
#define EPRE_FRONTEND_PARSER_H

#include "frontend/AST.h"

#include <string>

namespace epre {

/// The deepest nesting a function may have, in levels: one per enclosing
/// IF/DO/WHILE body, pair of parentheses, argument list, unary operator and
/// binary operator above a node. An operator chain builds a left-deep tree,
/// so its length counts. Lowering and AST destruction recurse once per
/// level, so deeper input is a parse error ("line N: nesting deeper than
/// ... levels") instead of a stack overflow.
constexpr unsigned MaxSourceNesting = 1000;

struct FrontendParseResult {
  ast::Program Prog;
  std::string Error; ///< empty on success
  bool ok() const { return Error.empty(); }
};

/// Parses Mini-FORTRAN source text into an AST.
FrontendParseResult parseMiniFortran(const std::string &Source);

} // namespace epre

#endif // EPRE_FRONTEND_PARSER_H
