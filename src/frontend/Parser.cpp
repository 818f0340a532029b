//===- frontend/Parser.cpp ------------------------------------------------===//

#include "frontend/Parser.h"

#include "support/StringUtil.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <optional>

using namespace epre;
using namespace epre::ast;

namespace {

enum class Tk {
  Eof,
  Eol,     // end of line (statement separator)
  Ident,
  IntLit,
  RealLit,
  LParen,
  RParen,
  Comma,
  Assign,  // =
  Plus,
  Minus,
  Star,
  Slash,
  Power,   // **
  Lt,
  Le,
  Gt,
  Ge,
  Eq,      // ==  or .eq.
  Ne,
  AndOp,
  OrOp,
  NotOp,
};

struct Token {
  Tk K = Tk::Eof;
  std::string Text;
  long long IntVal = 0;
  double RealVal = 0.0;
  unsigned Line = 0;
};

class Lexer {
public:
  explicit Lexer(const std::string &S) : S(S) {}

  Token next() {
    // Skip horizontal whitespace and comments; newlines are tokens.
    while (Pos < S.size()) {
      char C = S[Pos];
      if (C == '!' ) {
        while (Pos < S.size() && S[Pos] != '\n')
          ++Pos;
      } else if (C == ' ' || C == '\t' || C == '\r') {
        ++Pos;
      } else {
        break;
      }
    }
    Token T;
    T.Line = Line;
    if (Pos >= S.size())
      return T;
    char C = S[Pos];
    if (C == '\n' || C == ';') {
      ++Pos;
      if (C == '\n')
        ++Line;
      T.K = Tk::Eol;
      return T;
    }
    if (std::isalpha(uint8_t(C)) || C == '_')
      return lexIdent();
    if (std::isdigit(uint8_t(C)))
      return lexNumber();
    if (C == '.') {
      // Either a dotted operator (.lt.) or a real literal (.5).
      if (Pos + 1 < S.size() && std::isalpha(uint8_t(S[Pos + 1])))
        return lexDottedOp();
      return lexNumber();
    }
    ++Pos;
    switch (C) {
    case '(': T.K = Tk::LParen; return T;
    case ')': T.K = Tk::RParen; return T;
    case ',': T.K = Tk::Comma; return T;
    case '+': T.K = Tk::Plus; return T;
    case '-': T.K = Tk::Minus; return T;
    case '/':
      if (Pos < S.size() && S[Pos] == '=') {
        ++Pos;
        T.K = Tk::Ne; // FORTRAN-90 style /=
      } else {
        T.K = Tk::Slash;
      }
      return T;
    case '*':
      if (Pos < S.size() && S[Pos] == '*') {
        ++Pos;
        T.K = Tk::Power;
      } else {
        T.K = Tk::Star;
      }
      return T;
    case '=':
      if (Pos < S.size() && S[Pos] == '=') {
        ++Pos;
        T.K = Tk::Eq;
      } else {
        T.K = Tk::Assign;
      }
      return T;
    case '<':
      if (Pos < S.size() && S[Pos] == '=') {
        ++Pos;
        T.K = Tk::Le;
      } else {
        T.K = Tk::Lt;
      }
      return T;
    case '>':
      if (Pos < S.size() && S[Pos] == '=') {
        ++Pos;
        T.K = Tk::Ge;
      } else {
        T.K = Tk::Gt;
      }
      return T;
    default:
      T.K = Tk::Eof;
      T.Text = std::string(1, C);
      return T;
    }
  }

private:
  Token lexIdent() {
    Token T;
    T.Line = Line;
    size_t Start = Pos;
    while (Pos < S.size() &&
           (std::isalnum(uint8_t(S[Pos])) || S[Pos] == '_'))
      ++Pos;
    T.K = Tk::Ident;
    T.Text = S.substr(Start, Pos - Start);
    for (char &C : T.Text)
      C = char(std::tolower(uint8_t(C)));
    return T;
  }

  Token lexNumber() {
    Token T;
    T.Line = Line;
    size_t Start = Pos;
    bool IsReal = false;
    while (Pos < S.size() && std::isdigit(uint8_t(S[Pos])))
      ++Pos;
    if (Pos < S.size() && S[Pos] == '.' &&
        !(Pos + 1 < S.size() && std::isalpha(uint8_t(S[Pos + 1])))) {
      IsReal = true;
      ++Pos;
      while (Pos < S.size() && std::isdigit(uint8_t(S[Pos])))
        ++Pos;
    }
    if (Pos < S.size() && (S[Pos] == 'e' || S[Pos] == 'E' ||
                           S[Pos] == 'd' || S[Pos] == 'D')) {
      size_t Save = Pos;
      ++Pos;
      if (Pos < S.size() && (S[Pos] == '+' || S[Pos] == '-'))
        ++Pos;
      if (Pos < S.size() && std::isdigit(uint8_t(S[Pos]))) {
        IsReal = true;
        while (Pos < S.size() && std::isdigit(uint8_t(S[Pos])))
          ++Pos;
      } else {
        Pos = Save; // not an exponent
      }
    }
    std::string Text = S.substr(Start, Pos - Start);
    for (char &C : Text)
      if (C == 'd' || C == 'D')
        C = 'e'; // FORTRAN double-precision exponent marker
    if (IsReal) {
      T.K = Tk::RealLit;
      T.RealVal = std::strtod(Text.c_str(), nullptr);
    } else {
      T.K = Tk::IntLit;
      T.IntVal = std::strtoll(Text.c_str(), nullptr, 10);
    }
    return T;
  }

  Token lexDottedOp() {
    Token T;
    T.Line = Line;
    size_t Start = Pos;
    ++Pos; // leading dot
    while (Pos < S.size() && std::isalpha(uint8_t(S[Pos])))
      ++Pos;
    if (Pos < S.size() && S[Pos] == '.')
      ++Pos;
    std::string W = S.substr(Start, Pos - Start);
    for (char &C : W)
      C = char(std::tolower(uint8_t(C)));
    if (W == ".lt.") T.K = Tk::Lt;
    else if (W == ".le.") T.K = Tk::Le;
    else if (W == ".gt.") T.K = Tk::Gt;
    else if (W == ".ge.") T.K = Tk::Ge;
    else if (W == ".eq.") T.K = Tk::Eq;
    else if (W == ".ne.") T.K = Tk::Ne;
    else if (W == ".and.") T.K = Tk::AndOp;
    else if (W == ".or.") T.K = Tk::OrOp;
    else if (W == ".not.") T.K = Tk::NotOp;
    else {
      T.K = Tk::Eof;
      T.Text = W;
    }
    return T;
  }

  const std::string &S;
  size_t Pos = 0;
  unsigned Line = 1;
};

class Parser {
public:
  explicit Parser(const std::string &Src) : Lex(Src) { advance(); }

  FrontendParseResult run() {
    FrontendParseResult R;
    skipEols();
    while (Tok.K != Tk::Eof && Err.empty()) {
      parseFunction(R.Prog);
      skipEols();
    }
    R.Error = Err;
    if (!Err.empty())
      R.Prog.Functions.clear();
    return R;
  }

private:
  void advance() { Tok = Lex.next(); }

  void skipEols() {
    while (Tok.K == Tk::Eol)
      advance();
  }

  void fail(const std::string &Msg) {
    if (Err.empty())
      Err = strprintf("line %u: %s", Tok.Line, Msg.c_str());
  }

  /// Fails unless \p Levels more levels fit under MaxSourceNesting.
  bool fits(unsigned Levels) {
    if (Depth + Levels <= MaxSourceNesting)
      return true;
    fail(strprintf("nesting deeper than %u levels", MaxSourceNesting));
    return false;
  }

  /// Opens one nesting level, or fails past the cap; leave() closes it.
  bool enter() {
    if (!fits(1))
      return false;
    ++Depth;
    return true;
  }
  void leave() { --Depth; }

  /// Sets \p E's height from its children's.
  static void measure(Expr &E) {
    E.Height = 1;
    for (const ExprPtr &C : E.Children)
      if (C)
        E.Height = std::max(E.Height, C->Height + 1);
  }

  /// Parses statements into \p Body, one level deeper, until \p Done.
  template <typename DoneFn>
  void parseBody(std::vector<StmtPtr> &Body, DoneFn Done) {
    if (!enter())
      return;
    skipEols();
    while (!Done() && Tok.K != Tk::Eof && Err.empty()) {
      if (StmtPtr T = parseStatement())
        Body.push_back(std::move(T));
      skipEols();
    }
    leave();
  }

  bool expect(Tk K, const char *What) {
    if (Tok.K != K) {
      fail(std::string("expected ") + What);
      return false;
    }
    advance();
    return true;
  }

  bool isIdent(const char *W) const {
    return Tok.K == Tk::Ident && Tok.Text == W;
  }

  bool eatIdent(const char *W) {
    if (!isIdent(W))
      return false;
    advance();
    return true;
  }

  /// Consumes "end <what>" or "end<what>"; \p What is "do", "if", "while".
  bool eatEnd(const char *What) {
    if (eatIdent((std::string("end") + What).c_str()))
      return true;
    if (isIdent("end")) {
      advance();
      if (eatIdent(What))
        return true;
      fail(std::string("expected 'end ") + What + "'");
    }
    return false;
  }

  void parseFunction(Program &P) {
    if (!eatIdent("function")) {
      fail("expected 'function'");
      return;
    }
    FunctionDecl F;
    F.Line = Tok.Line;
    if (Tok.K != Tk::Ident) {
      fail("expected function name");
      return;
    }
    F.Name = Tok.Text;
    advance();
    if (!expect(Tk::LParen, "'('"))
      return;
    while (Tok.K == Tk::Ident) {
      F.Params.push_back(Tok.Text);
      advance();
      if (Tok.K == Tk::Comma)
        advance();
    }
    if (!expect(Tk::RParen, "')'"))
      return;
    if (!expect(Tk::Eol, "end of line"))
      return;
    skipEols();

    // Declarations.
    while (isIdent("real") || isIdent("integer") || isIdent("dimension")) {
      parseDeclLine(F);
      skipEols();
      if (!Err.empty())
        return;
    }

    // Body until 'end'.
    while (!isIdent("end") && Tok.K != Tk::Eof && Err.empty()) {
      StmtPtr S = parseStatement();
      if (S)
        F.Body.push_back(std::move(S));
      skipEols();
    }
    if (!eatIdent("end"))
      fail("expected 'end'");
    P.Functions.push_back(std::move(F));
  }

  void parseDeclLine(FunctionDecl &F) {
    SrcType Ty = SrcType::Real;
    bool UseImplicit = false;
    if (eatIdent("real")) {
      Ty = SrcType::Real;
    } else if (eatIdent("integer")) {
      Ty = SrcType::Integer;
    } else if (eatIdent("dimension")) {
      UseImplicit = true; // DIMENSION keeps the implicit scalar type
    }
    do {
      if (Tok.K != Tk::Ident) {
        fail("expected identifier in declaration");
        return;
      }
      Decl D;
      D.Line = Tok.Line;
      D.Name = Tok.Text;
      D.Ty = UseImplicit ? implicitType(D.Name) : Ty;
      advance();
      if (Tok.K == Tk::LParen) {
        advance();
        while (Tok.K == Tk::IntLit) {
          D.Dims.push_back(Tok.IntVal);
          advance();
          if (Tok.K == Tk::Comma)
            advance();
        }
        if (D.Dims.empty() || D.Dims.size() > 2) {
          fail("array must have 1 or 2 constant dimensions");
          return;
        }
        if (!expect(Tk::RParen, "')'"))
          return;
      }
      F.Decls.push_back(std::move(D));
      if (Tok.K != Tk::Comma)
        break;
      advance();
    } while (true);
  }

  StmtPtr parseStatement() {
    unsigned Line = Tok.Line;
    if (isIdent("if"))
      return parseIf();
    if (isIdent("do"))
      return parseDo();
    if (isIdent("while"))
      return parseWhile();
    if (isIdent("return")) {
      advance();
      auto S = std::make_unique<Stmt>();
      S->K = Stmt::Kind::Return;
      S->Line = Line;
      if (Tok.K != Tk::Eol && Tok.K != Tk::Eof)
        S->Rhs = parseExpr();
      return S;
    }
    // Assignment.
    if (Tok.K != Tk::Ident) {
      fail("expected statement");
      return nullptr;
    }
    ExprPtr Lhs = parsePrimary();
    if (!Lhs)
      return nullptr;
    // parsePrimary classifies `a(i)` as a Call; on the left of `=` it can
    // only be an array element.
    if (Lhs->K == Expr::Kind::Call)
      Lhs->K = Expr::Kind::ArrayRef;
    if (Lhs->K != Expr::Kind::Var && Lhs->K != Expr::Kind::ArrayRef) {
      fail("assignment target must be a variable or array element");
      return nullptr;
    }
    if (!expect(Tk::Assign, "'='"))
      return nullptr;
    auto S = std::make_unique<Stmt>();
    S->K = Stmt::Kind::Assign;
    S->Line = Line;
    S->Lhs = std::move(Lhs);
    S->Rhs = parseExpr();
    return S;
  }

  StmtPtr parseIf() {
    auto S = std::make_unique<Stmt>();
    S->K = Stmt::Kind::If;
    S->Line = Tok.Line;
    advance(); // if
    if (!expect(Tk::LParen, "'('"))
      return nullptr;
    S->Cond = parseExpr();
    if (!expect(Tk::RParen, "')'"))
      return nullptr;
    if (!eatIdent("then")) {
      fail("expected 'then'");
      return nullptr;
    }
    parseBody(S->Then, [&] {
      return isIdent("else") || isIdent("endif") || isIdent("end");
    });
    if (eatIdent("else"))
      parseBody(S->Else, [&] { return isIdent("endif") || isIdent("end"); });
    if (!eatEnd("if"))
      fail("expected 'end if'");
    return S;
  }

  StmtPtr parseDo() {
    auto S = std::make_unique<Stmt>();
    S->K = Stmt::Kind::Do;
    S->Line = Tok.Line;
    advance(); // do
    if (Tok.K != Tk::Ident) {
      fail("expected DO variable");
      return nullptr;
    }
    S->DoVar = Tok.Text;
    advance();
    if (!expect(Tk::Assign, "'='"))
      return nullptr;
    S->DoLo = parseExpr();
    if (!expect(Tk::Comma, "','"))
      return nullptr;
    S->DoHi = parseExpr();
    if (Tok.K == Tk::Comma) {
      advance();
      bool Negative = false;
      if (Tok.K == Tk::Minus) {
        Negative = true;
        advance();
      }
      if (Tok.K != Tk::IntLit || Tok.IntVal == 0) {
        fail("DO step must be a nonzero integer literal");
        return nullptr;
      }
      S->DoStep = Negative ? -Tok.IntVal : Tok.IntVal;
      advance();
    }
    if (!expect(Tk::Eol, "end of line"))
      return nullptr;
    parseBody(S->Then, [&] { return isIdent("enddo") || isIdent("end"); });
    if (!eatEnd("do"))
      fail("expected 'end do'");
    return S;
  }

  StmtPtr parseWhile() {
    auto S = std::make_unique<Stmt>();
    S->K = Stmt::Kind::While;
    S->Line = Tok.Line;
    advance(); // while
    if (!expect(Tk::LParen, "'('"))
      return nullptr;
    S->Cond = parseExpr();
    if (!expect(Tk::RParen, "')'"))
      return nullptr;
    parseBody(S->Then, [&] { return isIdent("endwhile") || isIdent("end"); });
    if (!eatEnd("while"))
      fail("expected 'end while'");
    return S;
  }

  // Expression precedence (low to high):
  //   .or. | .and. | .not. | comparisons | add/sub | mul/div | ** | unary
  ExprPtr parseExpr() { return parseOr(); }

  /// The operands were parsed at this depth, so the node is checked
  /// against the cap: null past it, which ends the operator chain.
  ExprPtr makeBin(BinOp Op, ExprPtr L, ExprPtr R, unsigned Line) {
    auto E = std::make_unique<Expr>();
    E->K = Expr::Kind::Binary;
    E->BOp = Op;
    E->Line = Line;
    E->Children.push_back(std::move(L));
    E->Children.push_back(std::move(R));
    measure(*E);
    if (!fits(E->Height))
      return nullptr;
    return E;
  }

  /// A unary operator's node; the operand is parsed one level deeper.
  ExprPtr makeUnary(UnOp Op, unsigned Line, ExprPtr (Parser::*Operand)()) {
    if (!enter())
      return nullptr;
    auto E = std::make_unique<Expr>();
    E->K = Expr::Kind::Unary;
    E->UOp = Op;
    E->Line = Line;
    E->Children.push_back((this->*Operand)());
    leave();
    measure(*E);
    return E;
  }

  ExprPtr parseOr() {
    ExprPtr L = parseAnd();
    while (Tok.K == Tk::OrOp && L) {
      unsigned Line = Tok.Line;
      advance();
      L = makeBin(BinOp::Or, std::move(L), parseAnd(), Line);
    }
    return L;
  }

  ExprPtr parseAnd() {
    ExprPtr L = parseNot();
    while (Tok.K == Tk::AndOp && L) {
      unsigned Line = Tok.Line;
      advance();
      L = makeBin(BinOp::And, std::move(L), parseNot(), Line);
    }
    return L;
  }

  ExprPtr parseNot() {
    if (Tok.K == Tk::NotOp) {
      unsigned Line = Tok.Line;
      advance();
      return makeUnary(UnOp::Not, Line, &Parser::parseNot);
    }
    return parseCompare();
  }

  ExprPtr parseCompare() {
    ExprPtr L = parseAddSub();
    while (L) {
      BinOp Op;
      switch (Tok.K) {
      case Tk::Lt: Op = BinOp::Lt; break;
      case Tk::Le: Op = BinOp::Le; break;
      case Tk::Gt: Op = BinOp::Gt; break;
      case Tk::Ge: Op = BinOp::Ge; break;
      case Tk::Eq: Op = BinOp::Eq; break;
      case Tk::Ne: Op = BinOp::Ne; break;
      default:
        return L;
      }
      unsigned Line = Tok.Line;
      advance();
      L = makeBin(Op, std::move(L), parseAddSub(), Line);
    }
    return L;
  }

  ExprPtr parseAddSub() {
    ExprPtr L = parseMulDiv();
    while (L && (Tok.K == Tk::Plus || Tok.K == Tk::Minus)) {
      BinOp Op = Tok.K == Tk::Plus ? BinOp::Add : BinOp::Sub;
      unsigned Line = Tok.Line;
      advance();
      L = makeBin(Op, std::move(L), parseMulDiv(), Line);
    }
    return L;
  }

  ExprPtr parseMulDiv() {
    ExprPtr L = parseUnary();
    while (L && (Tok.K == Tk::Star || Tok.K == Tk::Slash)) {
      BinOp Op = Tok.K == Tk::Star ? BinOp::Mul : BinOp::Div;
      unsigned Line = Tok.Line;
      advance();
      L = makeBin(Op, std::move(L), parseUnary(), Line);
    }
    return L;
  }

  ExprPtr parseUnary() {
    while (Tok.K == Tk::Plus) // unary plus builds nothing
      advance();
    if (Tok.K == Tk::Minus) {
      unsigned Line = Tok.Line;
      advance();
      return makeUnary(UnOp::Neg, Line, &Parser::parseUnary);
    }
    return parsePower();
  }

  ExprPtr parsePower() {
    ExprPtr L = parsePrimary();
    // ** is right associative: the right operand is one level deeper.
    if (L && Tok.K == Tk::Power) {
      unsigned Line = Tok.Line;
      advance();
      if (!enter())
        return nullptr;
      ExprPtr R = parseUnary();
      leave();
      L = makeBin(BinOp::Pow, std::move(L), std::move(R), Line);
    }
    return L;
  }

  ExprPtr parsePrimary() {
    unsigned Line = Tok.Line;
    if (Tok.K == Tk::IntLit) {
      auto E = std::make_unique<Expr>();
      E->K = Expr::Kind::IntLit;
      E->IntValue = Tok.IntVal;
      E->Line = Line;
      advance();
      return E;
    }
    if (Tok.K == Tk::RealLit) {
      auto E = std::make_unique<Expr>();
      E->K = Expr::Kind::RealLit;
      E->RealValue = Tok.RealVal;
      E->Line = Line;
      advance();
      return E;
    }
    if (Tok.K == Tk::LParen) {
      advance();
      if (!enter())
        return nullptr;
      ExprPtr E = parseExpr();
      leave();
      expect(Tk::RParen, "')'");
      if (E)
        ++E->Height; // the parentheses are a level
      return E;
    }
    if (Tok.K != Tk::Ident) {
      fail("expected expression");
      return nullptr;
    }
    std::string Name = Tok.Text;
    advance();
    if (Tok.K != Tk::LParen) {
      auto E = std::make_unique<Expr>();
      E->K = Expr::Kind::Var;
      E->Name = Name;
      E->Line = Line;
      return E;
    }
    // Either an array reference or an intrinsic call; the lowerer decides
    // by consulting the symbol table. Parse as Call.
    advance();
    if (!enter())
      return nullptr;
    auto E = std::make_unique<Expr>();
    E->K = Expr::Kind::Call;
    E->Name = Name;
    E->Line = Line;
    if (Tok.K != Tk::RParen) {
      while (true) {
        E->Children.push_back(parseExpr());
        if (Tok.K != Tk::Comma)
          break;
        advance();
      }
    }
    leave();
    expect(Tk::RParen, "')'");
    measure(*E);
    return E;
  }

  Lexer Lex;
  Token Tok;
  std::string Err;
  unsigned Depth = 0; ///< levels open around the current token
};

} // namespace

FrontendParseResult epre::parseMiniFortran(const std::string &Source) {
  return Parser(Source).run();
}
