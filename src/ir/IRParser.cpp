//===- ir/IRParser.cpp ----------------------------------------------------===//

#include "ir/IRParser.h"

#include "support/StringUtil.h"

#include <charconv>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

using namespace epre;

namespace {

// ASCII character classes: the syntax is ASCII, and the <cctype> forms
// consult the locale.
bool isDigit(char C) { return C >= '0' && C <= '9'; }
bool isAlpha(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z');
}
bool isIdentChar(char C) { return isAlpha(C) || isDigit(C) || C == '_'; }

enum class TokKind {
  Eof,
  Ident,    // bare identifier (opcodes, labels, func names)
  Reg,      // %ident
  BlockRef, // ^ident
  At,       // @
  Number,   // integer or float literal text
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
  Invalid, // a character no token starts with
};

/// A token; Text views the source, which outlives the parse.
struct Token {
  TokKind Kind = TokKind::Eof;
  std::string_view Text;
  unsigned Line = 0;
};

class Lexer {
public:
  explicit Lexer(std::string_view Src) : Src(Src) {}

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
      if (T.Text.empty()) { // a sigil names nothing by itself
        T.Kind = TokKind::Invalid;
        T.Text = Src.substr(Pos - 1, 1);
      }
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
    if (isDigit(C) || C == '-' || C == '+') {
      T.Kind = TokKind::Number;
      T.Text = lexNumber();
      return T;
    }
    if (isAlpha(C) || C == '_') {
      T.Kind = TokKind::Ident;
      T.Text = lexIdent();
      return T;
    }
    T.Kind = TokKind::Invalid;
    T.Text = Src.substr(Pos++, 1);
    return T;
  }

private:
  void skip() {
    while (Pos < Src.size()) {
      char C = Src[Pos];
      if (C == '\n') {
        ++Line;
        ++Pos;
      } else if (C == ' ' || C == '\t' || C == '\r' || C == '\v' || C == '\f') {
        ++Pos;
      } else if (C == ';') {
        while (Pos < Src.size() && Src[Pos] != '\n')
          ++Pos;
      } else {
        break;
      }
    }
  }

  std::string_view lexIdent() {
    size_t Start = Pos;
    while (Pos < Src.size() && isIdentChar(Src[Pos]))
      ++Pos;
    return Src.substr(Start, Pos - Start);
  }

  std::string_view lexNumber() {
    size_t Start = Pos;
    if (Src[Pos] == '-' || Src[Pos] == '+')
      ++Pos;
    // Accept "inf"/"nan" after a sign.
    if (Pos < Src.size() && isAlpha(Src[Pos])) {
      while (Pos < Src.size() && isAlpha(Src[Pos]))
        ++Pos;
      return Src.substr(Start, Pos - Start);
    }
    while (Pos < Src.size() &&
           (isDigit(Src[Pos]) || Src[Pos] == '.' ||
            Src[Pos] == 'e' || Src[Pos] == 'E' ||
            ((Src[Pos] == '-' || Src[Pos] == '+') &&
             (Src[Pos - 1] == 'e' || Src[Pos - 1] == 'E'))))
      ++Pos;
    // Bare "inf"/"nan" handled by ident path; "1.5e-3" handled above.
    return Src.substr(Start, Pos - Start);
  }

  std::string_view Src;
  size_t Pos = 0;
  unsigned Line = 1;
};

/// The enumerator among the first \p Count of \p EnumT that \p NameOf
/// names \p N.
template <typename EnumT, unsigned Count>
std::optional<EnumT> byName(std::string_view N, const char *(*NameOf)(EnumT)) {
  static const auto Names = [NameOf] {
    std::unordered_map<std::string_view, EnumT> M;
    for (unsigned E = 0; E < Count; ++E)
      M.emplace(NameOf(EnumT(E)), EnumT(E));
    return M;
  }();
  auto It = Names.find(N);
  if (It == Names.end())
    return std::nullopt;
  return It->second;
}

std::optional<Opcode> opcodeByName(std::string_view N) {
  return byName<Opcode, unsigned(Opcode::Phi) + 1>(N, opcodeName);
}

std::optional<Intrinsic> intrinsicByName(std::string_view N) {
  return byName<Intrinsic, unsigned(Intrinsic::Sign) + 1>(N, intrinsicName);
}

/// Parses the whole of \p Text, after an optional '+', as \p V with
/// std::from_chars: decimal integers, or the general floating-point form
/// with "inf", "infinity" and "nan".
template <typename T>
std::errc parseNumber(std::string_view Text, T &V) {
  if (Text.size() > 1 && Text[0] == '+')
    Text.remove_prefix(1);
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, V);
  if (Ec == std::errc() && Ptr != End)
    return std::errc::invalid_argument;
  return Ec;
}

std::string quoted(std::string_view S) {
  std::string Q = "'";
  Q += S;
  Q += '\'';
  return Q;
}

class Parser {
public:
  /// Lexes all of \p Src up front, through its end or first invalid
  /// character: the parse reads the tokens of a function body twice.
  explicit Parser(std::string_view Src) {
    Lexer Lex(Src);
    Toks.reserve(Src.size() / 3 + 2); // printed ILOC: 3.5 bytes a token
    do
      Toks.push_back(Lex.next());
    while (Toks.back().Kind != TokKind::Eof &&
           Toks.back().Kind != TokKind::Invalid);
  }

  ParseResult run() {
    auto M = std::make_unique<Module>();
    while (tok().Kind != TokKind::Eof) {
      if (!parseFunction(*M))
        return {nullptr, Err};
    }
    return {std::move(M), ""};
  }

private:
  const Token &tok() const { return Toks[Pos]; }
  void advance() {
    if (Pos + 1 < Toks.size())
      ++Pos;
  }

  bool fail(const std::string &Msg) {
    if (Err.empty())
      Err = strprintf("line %u: %s", tok().Line, Msg.c_str());
    return false;
  }

  /// The diagnostic for a character no token starts with.
  static std::string unexpected(std::string_view C) {
    if (C[0] > ' ' && C[0] < 0x7f)
      return "unexpected character " + quoted(C);
    return strprintf("unexpected byte 0x%02x", unsigned(uint8_t(C[0])));
  }

  /// The diagnostic for the current token, an immediate of \p Kind that
  /// parseNumber rejected with \p Ec.
  std::string badImmediate(const char *Kind, std::errc Ec) const {
    std::string What = std::string(Kind) + " immediate";
    if (Ec == std::errc::result_out_of_range)
      return What + " out of range " + quoted(tok().Text);
    return "invalid " + What + " " + quoted(tok().Text);
  }

  bool expect(TokKind K, const char *What) {
    if (tok().Kind != K)
      return fail(std::string("expected ") + What);
    advance();
    return true;
  }

  bool parseType(Type &Ty) {
    if (tok().Kind != TokKind::Ident)
      return fail("expected type");
    if (tok().Text == "i64")
      Ty = Type::I64;
    else if (tok().Text == "f64")
      Ty = Type::F64;
    else
      return fail("unknown type " + quoted(tok().Text));
    advance();
    return true;
  }

  /// Returns the register for source name \p Name, creating it (with a
  /// provisional type) on first sight. Registers are numbered in order of
  /// first appearance.
  Reg getReg(Function &F, std::string_view Name) {
    Reg R = RegMap.try_emplace(Name, F.numRegs()).first->second;
    if (R == F.numRegs()) {
      F.makeReg(Type::I64);
      TypeKnown.push_back(false);
    }
    return R;
  }

  bool parseFunction(Module &M) {
    RegMap.clear();
    TypeKnown.assign(1, false); // NoReg
    BlockMap.clear();
    EqualTargetCbrs.clear();

    if (tok().Kind == TokKind::Invalid)
      return fail(unexpected(tok().Text));
    if (tok().Kind != TokKind::Ident || tok().Text != "func")
      return fail("expected 'func'");
    advance();
    if (!expect(TokKind::At, "'@'"))
      return false;
    if (tok().Kind != TokKind::Ident)
      return fail("expected function name");
    if (!FunctionNames.insert(tok().Text).second)
      return fail("duplicate function '@" + std::string(tok().Text) + "'");
    Function *F = M.addFunction(std::string(tok().Text));
    advance();
    if (!expect(TokKind::LParen, "'('"))
      return false;
    while (tok().Kind == TokKind::Reg) {
      std::string_view Name = tok().Text;
      if (!RegMap.try_emplace(Name, F->numRegs()).second)
        return fail("duplicate parameter '%" + std::string(Name) + "'");
      advance();
      if (!expect(TokKind::Colon, "':'"))
        return false;
      Type Ty;
      if (!parseType(Ty))
        return false;
      F->addParam(Ty);
      TypeKnown.push_back(true);
      if (tok().Kind == TokKind::Comma)
        advance();
    }
    if (!expect(TokKind::RParen, "')'"))
      return false;
    if (tok().Kind == TokKind::Arrow) {
      advance();
      Type Ty;
      if (!parseType(Ty))
        return false;
      F->setReturnType(Ty);
    }
    if (!expect(TokKind::LBrace, "'{'"))
      return false;

    // The body is parsed in two passes: the first creates the blocks in
    // definition order (so forward branch references resolve), the second
    // parses the instructions.
    const size_t BodyPos = Pos;
    for (; tok().Kind != TokKind::RBrace; advance()) {
      if (tok().Kind == TokKind::Eof)
        return fail("expected '}'");
      if (tok().Kind == TokKind::Invalid)
        return fail(unexpected(tok().Text));
      if (tok().Kind == TokKind::Colon && Pos > BodyPos &&
          Toks[Pos - 1].Kind == TokKind::BlockRef) {
        std::string_view Label = Toks[Pos - 1].Text;
        if (!BlockMap.try_emplace(Label, F->numBlocks()).second)
          return fail("duplicate block label '^" + std::string(Label) + "'");
        F->addBlock(std::string(Label));
      }
    }
    if (BlockMap.empty())
      return fail("function body has no blocks");
    Pos = BodyPos;
    if (!parseBody(*F))
      return false;
    advance(); // the closing '}'
    // Equal-target branches fold once every phi is known.
    for (auto [Id, Line] : EqualTargetCbrs)
      if (!foldEqualTargetBranch(*F, *F->block(Id))) {
        Err = strprintf("line %u: cbr names one block twice, whose phis "
                        "disagree on the value from ^%s",
                        Line, F->block(Id)->label().c_str());
        return false;
      }

    // Of the registers used but never defined, name the first by name.
    std::optional<std::string_view> Undefined;
    for (auto [Name, R] : RegMap)
      if (!TypeKnown[R] && (!Undefined || Name < *Undefined))
        Undefined = Name;
    if (Undefined)
      return fail("register '%" + std::string(*Undefined) +
                  "' is used but never defined");

    // Fixup: a comparison's instruction type is its operand type, which may
    // not have been known when the comparison was parsed (forward refs).
    F->forEachBlock([&](BasicBlock &B) {
      for (Instruction &I : B.Insts)
        if (isComparison(I.Op))
          I.Ty = F->regType(I.Operands[0]);
    });
    return true;
  }

  bool parseReg(Function &F, Reg &R) {
    if (tok().Kind != TokKind::Reg)
      return fail("expected register");
    R = getReg(F, tok().Text);
    advance();
    return true;
  }

  bool parseBlockRef(BlockId &Id) {
    if (tok().Kind != TokKind::BlockRef)
      return fail("expected block reference");
    auto It = BlockMap.find(tok().Text);
    if (It == BlockMap.end())
      return fail("unknown block '^" + std::string(tok().Text) + "'");
    Id = It->second;
    advance();
    return true;
  }

  /// Parses labels and instructions up to the body's closing brace.
  bool parseBody(Function &F) {
    BasicBlock *Cur = nullptr;
    while (tok().Kind != TokKind::RBrace) {
      if (tok().Kind == TokKind::BlockRef) {
        // Every label is known from the first pass.
        auto It = BlockMap.find(tok().Text);
        if (It == BlockMap.end())
          return fail("expected instruction");
        Cur = F.block(It->second);
        advance();
        if (!expect(TokKind::Colon, "':'"))
          return false;
        continue;
      }
      if (!Cur)
        return fail("instruction before first block label");
      if (!parseInstruction(F, *Cur))
        return false;
    }
    return true;
  }

  bool parseInstruction(Function &F, BasicBlock &B) {
    // Register-defining form: %reg : type = rhs
    if (tok().Kind == TokKind::Reg) {
      std::string_view DstName = tok().Text;
      advance();
      if (!expect(TokKind::Colon, "':'"))
        return false;
      Type DstTy;
      if (!parseType(DstTy))
        return false;
      Reg Dst = getReg(F, DstName);
      F.setRegType(Dst, DstTy);
      TypeKnown[Dst] = true;
      if (!expect(TokKind::Equal, "'='"))
        return false;
      return parseRhs(F, B, Dst, DstTy);
    }
    // Non-defining forms: store / br / cbr / ret.
    if (tok().Kind != TokKind::Ident)
      return fail("expected instruction");
    std::string_view Name = tok().Text;
    advance();
    if (Name == "store") {
      Reg Val, Addr;
      if (!parseReg(F, Val))
        return false;
      if (!expect(TokKind::Arrow, "'->'"))
        return false;
      if (!parseReg(F, Addr))
        return false;
      Instruction I = Instruction::makeStore(F.regType(Val), Addr, Val);
      B.Insts.push_back(std::move(I));
      return true;
    }
    if (Name == "br") {
      BlockId T;
      if (!parseBlockRef(T))
        return false;
      B.Insts.push_back(Instruction::makeBr(T));
      return true;
    }
    if (Name == "cbr") {
      unsigned Line = tok().Line;
      Reg C;
      BlockId T1, T2;
      if (!parseReg(F, C))
        return false;
      if (!expect(TokKind::Comma, "','"))
        return false;
      if (!parseBlockRef(T1))
        return false;
      if (!expect(TokKind::Comma, "','"))
        return false;
      if (!parseBlockRef(T2))
        return false;
      B.Insts.push_back(Instruction::makeCbr(C, T1, T2));
      if (T1 == T2)
        EqualTargetCbrs.push_back({B.id(), Line});
      return true;
    }
    if (Name == "ret") {
      if (tok().Kind == TokKind::Reg) {
        Reg V;
        if (!parseReg(F, V))
          return false;
        B.Insts.push_back(Instruction::makeRet(F.regType(V), V));
      } else {
        B.Insts.push_back(Instruction::makeRet());
      }
      return true;
    }
    return fail("unknown instruction " + quoted(Name));
  }

  bool parseRhs(Function &F, BasicBlock &B, Reg Dst, Type DstTy) {
    if (tok().Kind != TokKind::Ident)
      return fail("expected opcode");
    std::string_view Name = tok().Text;
    advance();
    auto OpOpt = opcodeByName(Name);
    if (!OpOpt)
      return fail("unknown opcode " + quoted(Name));
    Opcode Op = *OpOpt;

    switch (Op) {
    case Opcode::LoadI: {
      if (tok().Kind != TokKind::Number)
        return fail("expected integer immediate");
      int64_t V;
      if (std::errc Ec = parseNumber(tok().Text, V); Ec != std::errc())
        return fail(badImmediate("integer", Ec));
      advance();
      B.Insts.push_back(Instruction::makeLoadI(Dst, V));
      return true;
    }
    case Opcode::LoadF: {
      bool Word = tok().Kind == TokKind::Ident &&
                  (tok().Text == "nan" || tok().Text == "inf");
      if (tok().Kind != TokKind::Number && !Word)
        return fail("expected float immediate");
      double V;
      if (std::errc Ec = parseNumber(tok().Text, V); Ec != std::errc())
        return fail(badImmediate("float", Ec));
      advance();
      B.Insts.push_back(Instruction::makeLoadF(Dst, V));
      return true;
    }
    case Opcode::Call: {
      if (tok().Kind != TokKind::Ident)
        return fail("expected intrinsic name");
      auto Intr = intrinsicByName(tok().Text);
      if (!Intr)
        return fail("unknown intrinsic " + quoted(tok().Text));
      advance();
      if (!expect(TokKind::LParen, "'('"))
        return false;
      SmallVector<Reg, 2> Args;
      while (tok().Kind == TokKind::Reg) {
        Reg A;
        if (!parseReg(F, A))
          return false;
        Args.push_back(A);
        if (tok().Kind == TokKind::Comma)
          advance();
      }
      if (Args.size() != intrinsicArity(*Intr))
        return fail(strprintf("intrinsic %s expects %u arguments, has %zu",
                               intrinsicName(*Intr), intrinsicArity(*Intr),
                               Args.size()));
      if (!expect(TokKind::RParen, "')'"))
        return false;
      B.Insts.push_back(
          Instruction::makeCall(*Intr, DstTy, Dst, std::move(Args)));
      return true;
    }
    case Opcode::Phi: {
      Instruction I = Instruction::makePhi(DstTy, Dst);
      while (tok().Kind == TokKind::LBracket) {
        advance();
        Reg V;
        BlockId Pred;
        if (!parseReg(F, V))
          return false;
        if (!expect(TokKind::Comma, "','"))
          return false;
        if (!parseBlockRef(Pred))
          return false;
        if (!expect(TokKind::RBracket, "']'"))
          return false;
        I.addPhiIncoming(V, Pred);
        if (tok().Kind == TokKind::Comma)
          advance();
      }
      B.Insts.push_back(std::move(I));
      return true;
    }
    default:
      break;
    }

    int N = fixedOperandCount(Op);
    if (N < 0 || Op == Opcode::Store || isTerminator(Op))
      return fail("opcode " + quoted(Name) + " cannot define a register here");
    SmallVector<Reg, 2> Ops;
    for (int I = 0; I < N; ++I) {
      if (I && !expect(TokKind::Comma, "','"))
        return false;
      Reg R;
      if (!parseReg(F, R))
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

  std::vector<Token> Toks; // ends in Eof or Invalid
  size_t Pos = 0;
  std::string Err;
  std::unordered_set<std::string_view> FunctionNames;
  /// Per function: source names to registers and blocks, and by Reg
  /// whether a definition or parameter gave it a type.
  std::unordered_map<std::string_view, Reg> RegMap;
  std::vector<bool> TypeKnown;
  std::unordered_map<std::string_view, BlockId> BlockMap;
  /// (block, line) of each `cbr c, ^X, ^X`, folded after the body parses.
  std::vector<std::pair<BlockId, unsigned>> EqualTargetCbrs;
};

} // namespace

ParseResult epre::parseModule(const std::string &Text) {
  Parser P(Text);
  return P.run();
}
