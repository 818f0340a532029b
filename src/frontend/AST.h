//===- frontend/AST.h - Mini-FORTRAN abstract syntax -------------*- C++ -*-===//
///
/// \file
/// AST for the Mini-FORTRAN input language: a small FORTRAN-like language
/// with scalars, 1-D/2-D arrays, DO/WHILE loops, IF/ELSE, and intrinsic
/// calls. It exists to reproduce the paper's experimental setup, where a
/// FORTRAN front end emits naively-shaped three-address code.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_FRONTEND_AST_H
#define EPRE_FRONTEND_AST_H

#include <cctype>
#include <memory>
#include <string>
#include <vector>

namespace epre::ast {

/// Scalar types of the source language.
enum class SrcType { Integer, Real };

enum class BinOp {
  Add,
  Sub,
  Mul,
  Div,
  Pow,
  Lt,
  Le,
  Gt,
  Ge,
  Eq,
  Ne,
  And,
  Or,
};

enum class UnOp { Neg, Not };

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  enum class Kind { IntLit, RealLit, Var, ArrayRef, Binary, Unary, Call };
  Kind K;
  unsigned Line = 0;

  // IntLit / RealLit
  long long IntValue = 0;
  double RealValue = 0.0;

  // Var / ArrayRef / Call: the identifier.
  std::string Name;

  // Binary / Unary
  BinOp BOp = BinOp::Add;
  UnOp UOp = UnOp::Neg;

  // Children: Binary has 2; Unary has 1; ArrayRef has 1-2 subscripts;
  // Call has its arguments.
  std::vector<ExprPtr> Children;

  /// Nesting levels inside this expression as written: one per operator,
  /// argument list and pair of parentheses on the deepest path. The parser
  /// sets it and caps it (MaxSourceNesting).
  unsigned Height = 0;
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

struct Stmt {
  enum class Kind { Assign, If, Do, While, Return };
  Kind K;
  unsigned Line = 0;

  // Assign: LHS (Var or ArrayRef) and RHS.
  ExprPtr Lhs, Rhs;

  // If: Cond, Then, Else. While: Cond, Body(Then).
  ExprPtr Cond;
  std::vector<StmtPtr> Then, Else;

  // Do: induction variable name, bounds, literal step, body(Then).
  std::string DoVar;
  ExprPtr DoLo, DoHi;
  long long DoStep = 1;

  // Return: optional value in Rhs.
};

/// A declaration: scalars or an array with constant dimensions.
struct Decl {
  SrcType Ty = SrcType::Real;
  std::string Name;
  /// Empty for scalars; 1 or 2 constant extents for arrays.
  std::vector<long long> Dims;
  unsigned Line = 0;
};

struct FunctionDecl {
  std::string Name;
  std::vector<std::string> Params;
  std::vector<Decl> Decls;
  std::vector<StmtPtr> Body;
  unsigned Line = 0;
};

struct Program {
  std::vector<FunctionDecl> Functions;
};

/// FORTRAN implicit typing: names starting with i..n are INTEGER.
inline SrcType implicitType(const std::string &Name) {
  char C = Name.empty() ? 'x' : char(std::tolower(Name[0]));
  return (C >= 'i' && C <= 'n') ? SrcType::Integer : SrcType::Real;
}

} // namespace epre::ast

#endif // EPRE_FRONTEND_AST_H
