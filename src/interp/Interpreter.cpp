//===- interp/Interpreter.cpp ---------------------------------------------===//

#include "interp/Interpreter.h"

#include "instrument/Profile.h"
#include "interp/Predecode.h"

#include <cassert>
#include <cstring>

using namespace epre;

int64_t MemoryImage::allocate(size_t N) {
  size_t Off = (Bytes.size() + 7) & ~size_t(7);
  Bytes.resize(Off + N, 0);
  return int64_t(Off);
}

void MemoryImage::storeF64(int64_t Addr, double V) {
  assert(inBounds(Addr, 8));
  std::memcpy(Bytes.data() + Addr, &V, 8);
}

void MemoryImage::storeI64(int64_t Addr, int64_t V) {
  assert(inBounds(Addr, 8));
  std::memcpy(Bytes.data() + Addr, &V, 8);
}

double MemoryImage::loadF64(int64_t Addr) const {
  assert(inBounds(Addr, 8));
  double V;
  std::memcpy(&V, Bytes.data() + Addr, 8);
  return V;
}

int64_t MemoryImage::loadI64(int64_t Addr) const {
  assert(inBounds(Addr, 8));
  int64_t V;
  std::memcpy(&V, Bytes.data() + Addr, 8);
  return V;
}

// Fully covered on purpose: with -Werror=switch (set project-wide), adding
// a TrapKind without naming it here is a compile error, not a wrong name.
const char *epre::trapKindName(TrapKind K) {
  switch (K) {
  case TrapKind::None:
    return "none";
  case TrapKind::ArgumentMismatch:
    return "argument-mismatch";
  case TrapKind::ErasedBlock:
    return "erased-block";
  case TrapKind::MissingPhiEntry:
    return "missing-phi-entry";
  case TrapKind::FuelExhausted:
    return "fuel-exhausted";
  case TrapKind::MemoryOutOfBounds:
    return "memory-out-of-bounds";
  case TrapKind::ArithmeticTrap:
    return "arithmetic-trap";
  case TrapKind::Malformed:
    return "malformed-function";
  }
  assert(false && "unknown trap kind");
  return "?";
}

// Fully covered on purpose (see trapKindName): a new Opcode must pick its
// latency class here explicitly instead of silently costing 1.
unsigned epre::opcodeCost(Opcode Op) {
  switch (Op) {
  case Opcode::Mul:
    return 3;
  case Opcode::Div:
  case Opcode::Mod:
    return 12;
  case Opcode::Call:
    return 20;
  case Opcode::Load:
  case Opcode::Store:
    return 2;
  case Opcode::Phi:
    return 0;
  case Opcode::LoadI:
  case Opcode::LoadF:
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Min:
  case Opcode::Max:
  case Opcode::Neg:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Not:
  case Opcode::Shl:
  case Opcode::Shr:
  case Opcode::CmpEq:
  case Opcode::CmpNe:
  case Opcode::CmpLt:
  case Opcode::CmpLe:
  case Opcode::CmpGt:
  case Opcode::CmpGe:
  case Opcode::I2F:
  case Opcode::F2I:
  case Opcode::Copy:
  case Opcode::Br:
  case Opcode::Cbr:
  case Opcode::Ret:
    return 1;
  }
  assert(false && "unknown opcode");
  return 1;
}

ExecResult epre::interpret(const Function &F,
                           const std::vector<RtValue> &Args, MemoryImage &Mem,
                           const ExecLimits &Limits, ProfileCollector *Prof) {
  // Per-thread predecode/execute state: after warm-up, repeated calls (the
  // suite's measurement loops, the fuzz campaign's thousands of programs)
  // run entirely out of the reused arena instead of the general heap.
  thread_local Predecoder PD;
  thread_local Arena CodeArena;
  thread_local Arena ScratchArena;
  thread_local BytecodeFunction BF;
  CodeArena.reset();
  if (PD.predecode(F, CodeArena, BF))
    return executeBytecode(BF, Args, Mem, Limits, Prof, ScratchArena);

  // Every shape predecode() refuses is one the verifier rejects: report it
  // without running anything. The reset collector finalizes to an empty
  // profile of F.
  ExecResult R;
  R.OpCounts.assign(unsigned(Opcode::Phi) + 1, 0);
  R.TrapFunction = F.name();
  R.Trapped = true;
  R.Kind = TrapKind::Malformed;
  R.TrapReason = strprintf("malformed function (in @%s)", F.name().c_str());
  if (Prof)
    Prof->reset(F);
  return R;
}
