//===- ir/IRPrinter.cpp ---------------------------------------------------===//

#include "ir/IRPrinter.h"

#include "support/StringUtil.h"

#include <cmath>

using namespace epre;

namespace {

std::string regName(Reg R) { return "%r" + std::to_string(R); }

std::string blockRef(const Function &F, BlockId Id) {
  const BasicBlock *B = F.block(Id);
  assert(B && "branch to erased block");
  return "^" + B->label();
}

/// Prints a double so that it round-trips exactly through the parser.
std::string fmtDouble(double V) {
  if (std::isnan(V))
    return "nan";
  if (std::isinf(V))
    return V > 0 ? "inf" : "-inf";
  std::string S = strprintf("%.17g", V);
  // Ensure the token is recognizably floating point.
  if (S.find_first_of(".eEni") == std::string::npos)
    S += ".0";
  return S;
}

} // namespace

std::string epre::printInstruction(const Function &F, const Instruction &I) {
  std::string S;
  auto dst = [&] {
    return regName(I.Dst) + ":" + typeName(F.regType(I.Dst)) + " = ";
  };
  switch (I.Op) {
  case Opcode::LoadI:
    return dst() + "loadi " + std::to_string(I.IImm);
  case Opcode::LoadF:
    return dst() + "loadf " + fmtDouble(I.FImm);
  case Opcode::Br:
    return std::string("br ") + blockRef(F, I.Succs[0]);
  case Opcode::Cbr:
    return "cbr " + regName(I.Operands[0]) + ", " + blockRef(F, I.Succs[0]) +
           ", " + blockRef(F, I.Succs[1]);
  case Opcode::Ret:
    return I.Operands.empty() ? "ret" : "ret " + regName(I.Operands[0]);
  case Opcode::Store:
    return "store " + regName(I.Operands[1]) + " -> " +
           regName(I.Operands[0]);
  case Opcode::Call: {
    S = dst() + "call " + intrinsicName(I.Intr) + "(";
    for (unsigned J = 0; J < I.Operands.size(); ++J) {
      if (J)
        S += ", ";
      S += regName(I.Operands[J]);
    }
    return S + ")";
  }
  case Opcode::Phi: {
    S = dst() + "phi ";
    for (unsigned J = 0; J < I.Operands.size(); ++J) {
      if (J)
        S += ", ";
      S += "[";
      S += regName(I.Operands[J]);
      S += ", ";
      S += blockRef(F, I.PhiBlocks[J]);
      S += "]";
    }
    return S;
  }
  default: {
    S = dst() + opcodeName(I.Op);
    for (unsigned J = 0; J < I.Operands.size(); ++J) {
      S += J ? ", " : " ";
      S += regName(I.Operands[J]);
    }
    return S;
  }
  }
}

std::string epre::printFunction(const Function &F) {
  std::string S = "func @" + F.name() + "(";
  for (unsigned I = 0; I < F.params().size(); ++I) {
    if (I)
      S += ", ";
    Reg P = F.params()[I];
    S += regName(P) + ":" + typeName(F.regType(P));
  }
  S += ")";
  if (F.returnType())
    S += std::string(" -> ") + typeName(*F.returnType());
  S += " {\n";
  F.forEachBlock([&](const BasicBlock &B) {
    S += "^" + B.label() + ":\n";
    for (const Instruction &I : B.Insts)
      S += "  " + printInstruction(F, I) + "\n";
  });
  S += "}\n";
  return S;
}

std::string epre::printModule(const Module &M) {
  std::string S;
  for (const auto &F : M.Functions)
    S += printFunction(*F) + "\n";
  return S;
}
