//===- ir/IRParser.cpp ----------------------------------------------------===//

#include "ir/IRParser.h"

#include "support/StringUtil.h"

#include <cctype>
#include <cstdlib>
#include <map>
#include <optional>

using namespace epre;

namespace {

enum class TokKind {
  Eof,
  Ident,   // bare identifier (opcodes, labels, func names)
  Reg,     // %ident
  BlockRef, // ^ident
  At,      // @
  Number,  // integer or float literal text
  LParen,
  RParen,
  LBrace,
  RBrace,
  LBracket,
  RBracket,
  Comma,
  Colon,
  Equal,
  Arrow,   // ->
  StoreArrow, // also '->' context; reuse Arrow
};

struct Token {
  TokKind Kind = TokKind::Eof;
  std::string Text;
  unsigned Line = 0;
};

class Lexer {
public:
  explicit Lexer(const std::string &Src) : Src(Src) {}

  Token next() {
    skip();
    Token T;
    T.Line = Line;
    if (Pos >= Src.size()) {
      T.Kind = TokKind::Eof;
      return T;
    }
    char C = Src[Pos];
    if (C == '%' || C == '^') {
      ++Pos;
      T.Kind = C == '%' ? TokKind::Reg : TokKind::BlockRef;
      T.Text = lexIdent();
      return T;
    }
    switch (C) {
    case '@':
      ++Pos;
      T.Kind = TokKind::At;
      return T;
    case '(':
      ++Pos;
      T.Kind = TokKind::LParen;
      return T;
    case ')':
      ++Pos;
      T.Kind = TokKind::RParen;
      return T;
    case '{':
      ++Pos;
      T.Kind = TokKind::LBrace;
      return T;
    case '}':
      ++Pos;
      T.Kind = TokKind::RBrace;
      return T;
    case '[':
      ++Pos;
      T.Kind = TokKind::LBracket;
      return T;
    case ']':
      ++Pos;
      T.Kind = TokKind::RBracket;
      return T;
    case ',':
      ++Pos;
      T.Kind = TokKind::Comma;
      return T;
    case ':':
      ++Pos;
      T.Kind = TokKind::Colon;
      return T;
    case '=':
      ++Pos;
      T.Kind = TokKind::Equal;
      return T;
    default:
      break;
    }
    if (C == '-' && Pos + 1 < Src.size() && Src[Pos + 1] == '>') {
      Pos += 2;
      T.Kind = TokKind::Arrow;
      return T;
    }
    if (std::isdigit(uint8_t(C)) || C == '-' || C == '+') {
      T.Kind = TokKind::Number;
      T.Text = lexNumber();
      return T;
    }
    if (std::isalpha(uint8_t(C)) || C == '_') {
      T.Kind = TokKind::Ident;
      T.Text = lexIdent();
      return T;
    }
    T.Kind = TokKind::Eof;
    T.Text = std::string(1, C);
    return T;
  }

  unsigned line() const { return Line; }

private:
  void skip() {
    while (Pos < Src.size()) {
      char C = Src[Pos];
      if (C == '\n') {
        ++Line;
        ++Pos;
      } else if (std::isspace(uint8_t(C))) {
        ++Pos;
      } else if (C == ';') {
        while (Pos < Src.size() && Src[Pos] != '\n')
          ++Pos;
      } else {
        break;
      }
    }
  }

  std::string lexIdent() {
    size_t Start = Pos;
    while (Pos < Src.size() &&
           (std::isalnum(uint8_t(Src[Pos])) || Src[Pos] == '_'))
      ++Pos;
    return Src.substr(Start, Pos - Start);
  }

  std::string lexNumber() {
    size_t Start = Pos;
    if (Src[Pos] == '-' || Src[Pos] == '+')
      ++Pos;
    // Accept "inf"/"nan" after a sign.
    if (Pos < Src.size() && std::isalpha(uint8_t(Src[Pos]))) {
      while (Pos < Src.size() && std::isalpha(uint8_t(Src[Pos])))
        ++Pos;
      return Src.substr(Start, Pos - Start);
    }
    while (Pos < Src.size() &&
           (std::isdigit(uint8_t(Src[Pos])) || Src[Pos] == '.' ||
            Src[Pos] == 'e' || Src[Pos] == 'E' ||
            ((Src[Pos] == '-' || Src[Pos] == '+') &&
             (Src[Pos - 1] == 'e' || Src[Pos - 1] == 'E'))))
      ++Pos;
    // Bare "inf"/"nan" handled by ident path; "1.5e-3" handled above.
    return Src.substr(Start, Pos - Start);
  }

  const std::string &Src;
  size_t Pos = 0;
  unsigned Line = 1;
};

class Parser {
public:
  explicit Parser(const std::string &Src) : Lex(Src) { advance(); }

  ParseResult run() {
    auto M = std::make_unique<Module>();
    while (Tok.Kind != TokKind::Eof) {
      if (!parseFunction(*M))
        return {nullptr, Err};
    }
    return {std::move(M), ""};
  }

private:
  void advance() { Tok = Lex.next(); }

  bool fail(const std::string &Msg) {
    if (Err.empty())
      Err = strprintf("line %u: %s", Tok.Line, Msg.c_str());
    return false;
  }

  bool expect(TokKind K, const char *What) {
    if (Tok.Kind != K)
      return fail(std::string("expected ") + What);
    advance();
    return true;
  }

  bool parseType(Type &Ty) {
    if (Tok.Kind != TokKind::Ident)
      return fail("expected type");
    if (Tok.Text == "i64")
      Ty = Type::I64;
    else if (Tok.Text == "f64")
      Ty = Type::F64;
    else
      return fail("unknown type '" + Tok.Text + "'");
    advance();
    return true;
  }

  /// Returns the register for source name \p Name, creating it (with a
  /// provisional type) on first sight.
  Reg getReg(Function &F, const std::string &Name) {
    auto It = RegMap.find(Name);
    if (It != RegMap.end())
      return It->second;
    Reg R = F.makeReg(Type::I64);
    RegMap.emplace(Name, R);
    TypeKnown[R] = false;
    return R;
  }

  bool parseRegUse(Function &F, Reg &R) {
    if (Tok.Kind != TokKind::Reg)
      return fail("expected register");
    R = getReg(F, Tok.Text);
    advance();
    return true;
  }

  bool parseBlockRef(Function &F, BlockId &Id) {
    (void)F;
    if (Tok.Kind != TokKind::BlockRef)
      return fail("expected block reference");
    auto It = BlockMap.find(Tok.Text);
    if (It == BlockMap.end())
      return fail("unknown block '^" + Tok.Text + "'");
    Id = It->second;
    advance();
    return true;
  }

  bool parseFunction(Module &M) {
    RegMap.clear();
    TypeKnown.clear();
    BlockMap.clear();
    EqualTargetCbrs.clear();

    if (Tok.Kind != TokKind::Ident || Tok.Text != "func")
      return fail("expected 'func'");
    advance();
    if (!expect(TokKind::At, "'@'"))
      return false;
    if (Tok.Kind != TokKind::Ident)
      return fail("expected function name");
    Function *F = M.addFunction(Tok.Text);
    advance();
    if (!expect(TokKind::LParen, "'('"))
      return false;
    while (Tok.Kind == TokKind::Reg) {
      std::string Name = Tok.Text;
      advance();
      if (!expect(TokKind::Colon, "':'"))
        return false;
      Type Ty;
      if (!parseType(Ty))
        return false;
      Reg R = F->addParam(Ty);
      RegMap.emplace(Name, R);
      TypeKnown[R] = true;
      if (Tok.Kind == TokKind::Comma)
        advance();
    }
    if (!expect(TokKind::RParen, "')'"))
      return false;
    if (Tok.Kind == TokKind::Arrow) {
      advance();
      Type Ty;
      if (!parseType(Ty))
        return false;
      F->setReturnType(Ty);
    }
    if (!expect(TokKind::LBrace, "'{'"))
      return false;

    // The body is parsed in two passes over token triples: first collect the
    // labels (so forward branch references resolve), then the instructions.
    // Rather than re-lexing, we buffer the body's tokens.
    std::vector<Token> Body;
    unsigned Depth = 1;
    while (Tok.Kind != TokKind::Eof) {
      if (Tok.Kind == TokKind::LBrace)
        ++Depth;
      if (Tok.Kind == TokKind::RBrace && --Depth == 0)
        break;
      Body.push_back(Tok);
      advance();
    }
    if (!expect(TokKind::RBrace, "'}'"))
      return false;

    // Pass 1: create blocks in definition order.
    for (size_t I = 0; I + 1 < Body.size(); ++I) {
      if (Body[I].Kind == TokKind::BlockRef &&
          Body[I + 1].Kind == TokKind::Colon) {
        if (BlockMap.count(Body[I].Text))
          return fail("duplicate block label '^" + Body[I].Text + "'");
        BasicBlock *B = F->addBlock(Body[I].Text);
        BlockMap.emplace(Body[I].Text, B->id());
      }
    }
    if (BlockMap.empty())
      return fail("function body has no blocks");

    // Pass 2: parse instructions from the buffered tokens.
    BodyToks = std::move(Body);
    BodyPos = 0;
    if (!parseBody(*F))
      return false;
    // Equal-target branches fold once every phi is known.
    for (auto [Id, Line] : EqualTargetCbrs)
      if (!foldEqualTargetBranch(*F, *F->block(Id))) {
        Err = strprintf("line %u: cbr names one block twice, whose phis "
                        "disagree on the value from ^%s",
                        Line, F->block(Id)->label().c_str());
        return false;
      }

    for (const auto &[Name, R] : RegMap)
      if (!TypeKnown[R])
        return fail("register '%" + Name + "' is used but never defined");

    // Fixup: a comparison's instruction type is its operand type, which may
    // not have been known when the comparison was parsed (forward refs).
    F->forEachBlock([&](BasicBlock &B) {
      for (Instruction &I : B.Insts)
        if (isComparison(I.Op))
          I.Ty = F->regType(I.Operands[0]);
    });
    return true;
  }

  // --- Body token cursor ---------------------------------------------------

  const Token &btok() const {
    static Token EofTok;
    return BodyPos < BodyToks.size() ? BodyToks[BodyPos] : EofTok;
  }
  void badvance() { ++BodyPos; }
  bool bfail(const std::string &Msg) {
    if (Err.empty())
      Err = strprintf("line %u: %s", btok().Line ? btok().Line : Lex.line(),
                      Msg.c_str());
    return false;
  }
  bool bexpect(TokKind K, const char *What) {
    if (btok().Kind != K)
      return bfail(std::string("expected ") + What);
    badvance();
    return true;
  }

  bool bparseReg(Function &F, Reg &R) {
    if (btok().Kind != TokKind::Reg)
      return bfail("expected register");
    R = getReg(F, btok().Text);
    badvance();
    return true;
  }

  bool bparseBlockRef(BlockId &Id) {
    if (btok().Kind != TokKind::BlockRef)
      return bfail("expected block reference");
    auto It = BlockMap.find(btok().Text);
    if (It == BlockMap.end())
      return bfail("unknown block '^" + btok().Text + "'");
    Id = It->second;
    badvance();
    return true;
  }

  bool bparseType(Type &Ty) {
    if (btok().Kind != TokKind::Ident)
      return bfail("expected type");
    if (btok().Text == "i64")
      Ty = Type::I64;
    else if (btok().Text == "f64")
      Ty = Type::F64;
    else
      return bfail("unknown type '" + btok().Text + "'");
    badvance();
    return true;
  }

  static std::optional<Opcode> opcodeByName(const std::string &N) {
    static const std::map<std::string, Opcode> Map = {
        {"loadi", Opcode::LoadI}, {"loadf", Opcode::LoadF},
        {"add", Opcode::Add},     {"sub", Opcode::Sub},
        {"mul", Opcode::Mul},     {"div", Opcode::Div},
        {"min", Opcode::Min},     {"max", Opcode::Max},
        {"neg", Opcode::Neg},     {"mod", Opcode::Mod},
        {"and", Opcode::And},     {"or", Opcode::Or},
        {"xor", Opcode::Xor},     {"not", Opcode::Not},
        {"shl", Opcode::Shl},     {"shr", Opcode::Shr},
        {"cmpeq", Opcode::CmpEq}, {"cmpne", Opcode::CmpNe},
        {"cmplt", Opcode::CmpLt}, {"cmple", Opcode::CmpLe},
        {"cmpgt", Opcode::CmpGt}, {"cmpge", Opcode::CmpGe},
        {"i2f", Opcode::I2F},     {"f2i", Opcode::F2I},
        {"copy", Opcode::Copy},   {"load", Opcode::Load},
        {"store", Opcode::Store}, {"call", Opcode::Call},
        {"br", Opcode::Br},       {"cbr", Opcode::Cbr},
        {"ret", Opcode::Ret},     {"phi", Opcode::Phi},
    };
    auto It = Map.find(N);
    if (It == Map.end())
      return std::nullopt;
    return It->second;
  }

  static std::optional<Intrinsic> intrinsicByName(const std::string &N) {
    static const std::map<std::string, Intrinsic> Map = {
        {"sqrt", Intrinsic::Sqrt},   {"abs", Intrinsic::Abs},
        {"sin", Intrinsic::Sin},     {"cos", Intrinsic::Cos},
        {"exp", Intrinsic::Exp},     {"log", Intrinsic::Log},
        {"pow", Intrinsic::Pow},     {"floor", Intrinsic::Floor},
        {"sign", Intrinsic::Sign},
    };
    auto It = Map.find(N);
    if (It == Map.end())
      return std::nullopt;
    return It->second;
  }

  bool parseBody(Function &F) {
    BasicBlock *Cur = nullptr;
    while (btok().Kind != TokKind::Eof) {
      if (btok().Kind == TokKind::BlockRef &&
          BodyPos + 1 < BodyToks.size() &&
          BodyToks[BodyPos + 1].Kind == TokKind::Colon) {
        Cur = F.block(BlockMap[btok().Text]);
        badvance();
        badvance();
        continue;
      }
      if (!Cur)
        return bfail("instruction before first block label");
      if (!parseInstruction(F, *Cur))
        return false;
    }
    return true;
  }

  bool parseInstruction(Function &F, BasicBlock &B) {
    // Register-defining form: %reg : type = rhs
    if (btok().Kind == TokKind::Reg) {
      std::string DstName = btok().Text;
      badvance();
      if (!bexpect(TokKind::Colon, "':'"))
        return false;
      Type DstTy;
      if (!bparseType(DstTy))
        return false;
      Reg Dst = getReg(F, DstName);
      F.setRegType(Dst, DstTy);
      TypeKnown[Dst] = true;
      if (!bexpect(TokKind::Equal, "'='"))
        return false;
      return parseRhs(F, B, Dst, DstTy);
    }
    // Non-defining forms: store / br / cbr / ret.
    if (btok().Kind != TokKind::Ident)
      return bfail("expected instruction");
    std::string Name = btok().Text;
    badvance();
    if (Name == "store") {
      Reg Val, Addr;
      if (!bparseReg(F, Val))
        return false;
      if (!bexpect(TokKind::Arrow, "'->'"))
        return false;
      if (!bparseReg(F, Addr))
        return false;
      Instruction I = Instruction::makeStore(F.regType(Val), Addr, Val);
      B.Insts.push_back(std::move(I));
      return true;
    }
    if (Name == "br") {
      BlockId T;
      if (!bparseBlockRef(T))
        return false;
      B.Insts.push_back(Instruction::makeBr(T));
      return true;
    }
    if (Name == "cbr") {
      unsigned Line = btok().Line;
      Reg C;
      BlockId T1, T2;
      if (!bparseReg(F, C))
        return false;
      if (!bexpect(TokKind::Comma, "','"))
        return false;
      if (!bparseBlockRef(T1))
        return false;
      if (!bexpect(TokKind::Comma, "','"))
        return false;
      if (!bparseBlockRef(T2))
        return false;
      B.Insts.push_back(Instruction::makeCbr(C, T1, T2));
      if (T1 == T2)
        EqualTargetCbrs.push_back({B.id(), Line});
      return true;
    }
    if (Name == "ret") {
      if (btok().Kind == TokKind::Reg) {
        Reg V;
        if (!bparseReg(F, V))
          return false;
        B.Insts.push_back(Instruction::makeRet(F.regType(V), V));
      } else {
        B.Insts.push_back(Instruction::makeRet());
      }
      return true;
    }
    return bfail("unknown instruction '" + Name + "'");
  }

  bool parseRhs(Function &F, BasicBlock &B, Reg Dst, Type DstTy) {
    if (btok().Kind != TokKind::Ident)
      return bfail("expected opcode");
    std::string Name = btok().Text;
    badvance();
    auto OpOpt = opcodeByName(Name);
    if (!OpOpt)
      return bfail("unknown opcode '" + Name + "'");
    Opcode Op = *OpOpt;

    switch (Op) {
    case Opcode::LoadI: {
      if (btok().Kind != TokKind::Number)
        return bfail("expected integer immediate");
      Instruction I = Instruction::makeLoadI(Dst, strtoll(btok().Text.c_str(),
                                                          nullptr, 10));
      badvance();
      B.Insts.push_back(std::move(I));
      return true;
    }
    case Opcode::LoadF: {
      double V;
      if (btok().Kind == TokKind::Number) {
        V = strtod(btok().Text.c_str(), nullptr);
      } else if (btok().Kind == TokKind::Ident &&
                 (btok().Text == "nan" || btok().Text == "inf")) {
        V = strtod(btok().Text.c_str(), nullptr);
      } else {
        return bfail("expected float immediate");
      }
      badvance();
      B.Insts.push_back(Instruction::makeLoadF(Dst, V));
      return true;
    }
    case Opcode::Call: {
      if (btok().Kind != TokKind::Ident)
        return bfail("expected intrinsic name");
      auto Intr = intrinsicByName(btok().Text);
      if (!Intr)
        return bfail("unknown intrinsic '" + btok().Text + "'");
      badvance();
      if (!bexpect(TokKind::LParen, "'('"))
        return false;
      SmallVector<Reg, 2> Args;
      while (btok().Kind == TokKind::Reg) {
        Reg A;
        if (!bparseReg(F, A))
          return false;
        Args.push_back(A);
        if (btok().Kind == TokKind::Comma)
          badvance();
      }
      if (!bexpect(TokKind::RParen, "')'"))
        return false;
      B.Insts.push_back(
          Instruction::makeCall(*Intr, DstTy, Dst, std::move(Args)));
      return true;
    }
    case Opcode::Phi: {
      Instruction I = Instruction::makePhi(DstTy, Dst);
      while (btok().Kind == TokKind::LBracket) {
        badvance();
        Reg V;
        BlockId Pred;
        if (!bparseReg(F, V))
          return false;
        if (!bexpect(TokKind::Comma, "','"))
          return false;
        if (!bparseBlockRef(Pred))
          return false;
        if (!bexpect(TokKind::RBracket, "']'"))
          return false;
        I.addPhiIncoming(V, Pred);
        if (btok().Kind == TokKind::Comma)
          badvance();
      }
      B.Insts.push_back(std::move(I));
      return true;
    }
    default:
      break;
    }

    int N = fixedOperandCount(Op);
    if (N < 0 || Op == Opcode::Store || isTerminator(Op))
      return bfail("opcode '" + Name + "' cannot define a register here");
    SmallVector<Reg, 2> Ops;
    for (int I = 0; I < N; ++I) {
      if (I && !bexpect(TokKind::Comma, "','"))
        return false;
      Reg R;
      if (!bparseReg(F, R))
        return false;
      Ops.push_back(R);
    }
    Instruction I;
    I.Op = Op;
    I.Dst = Dst;
    I.Operands = std::move(Ops);
    // The instruction type is the operand type for comparisons/conversions,
    // else the destination type. Operand types may not be known yet at parse
    // time (forward refs), so approximate from the destination and fix up
    // comparisons/conversions from their first operand later if known.
    if (isComparison(Op) || Op == Opcode::F2I)
      I.Ty = Type::F64; // provisional; patched below when operand known
    else if (Op == Opcode::I2F)
      I.Ty = Type::I64;
    else
      I.Ty = DstTy;
    B.Insts.push_back(std::move(I));
    return true;
  }

  Lexer Lex;
  Token Tok;
  std::string Err;
  std::map<std::string, Reg> RegMap;
  std::map<Reg, bool> TypeKnown;
  std::map<std::string, BlockId> BlockMap;
  /// (block, line) of each `cbr c, ^X, ^X`, folded after the body parses.
  std::vector<std::pair<BlockId, unsigned>> EqualTargetCbrs;
  std::vector<Token> BodyToks;
  size_t BodyPos = 0;
};

} // namespace

ParseResult epre::parseModule(const std::string &Text) {
  Parser P(Text);
  return P.run();
}
