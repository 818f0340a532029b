//===- ssa/ParallelCopy.h - Sequencing parallel copies -----------*- C++ -*-===//
///
/// \file
/// Turns a set of semantically-parallel register copies (as arise at a CFG
/// edge when eliminating phi nodes) into an equivalent *sequence* of copies,
/// using temporaries to break cycles (the classic "swap problem") and
/// ordering to avoid overwrites (the "lost copy problem"). Header-only and
/// allocation-free, so the interpreter's predecoder sequences its phi moves
/// with it too.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_SSA_PARALLELCOPY_H
#define EPRE_SSA_PARALLELCOPY_H

#include "ir/Function.h"

#include <cassert>
#include <span>

namespace epre {

/// One pending parallel copy Dst <- Src.
struct PendingCopy {
  Reg Dst;
  Reg Src;
};

/// Calls \p Emit(Dst, Src) once per copy, in an order equivalent to
/// executing all of \p Copies simultaneously. When the remaining copies form
/// a cycle, the first one's destination is saved to \p NewTemp(Dst), a
/// register no copy names, and the copies reading it read the temporary.
/// Destinations must be pairwise distinct. \p Copies is the work list: its
/// contents are consumed.
template <typename EmitFn, typename TempFn>
void sequenceParallelCopies(std::span<PendingCopy> Copies, EmitFn Emit,
                            TempFn NewTemp) {
  // Self copies are no-ops under parallel semantics.
  size_t N = 0;
  for (const PendingCopy &C : Copies)
    if (C.Dst != C.Src)
      Copies[N++] = C;

#ifndef NDEBUG
  for (size_t I = 0; I < N; ++I)
    for (size_t J = I + 1; J < N; ++J)
      assert(Copies[I].Dst != Copies[J].Dst && "duplicate destination");
#endif

  // From here on a pending copy's Src is the register currently holding the
  // value it reads. Each sweep emits, in order, every copy whose destination
  // no other pending copy reads, and keeps the rest, in order, at the front.
  while (N > 0) {
    size_t Kept = 0;
    for (size_t I = 0; I < N; ++I) {
      Reg D = Copies[I].Dst;
      bool Needed = false;
      for (size_t J = 0; J < Kept && !Needed; ++J)
        Needed = Copies[J].Src == D;
      for (size_t J = I + 1; J < N && !Needed; ++J)
        Needed = Copies[J].Src == D;
      if (Needed)
        Copies[Kept++] = Copies[I];
      else
        Emit(D, Copies[I].Src);
    }
    if (Kept < N) {
      N = Kept;
      continue;
    }
    // Every pending destination is still needed as a source: a cycle.
    // Evacuate one destination to a temporary to break it.
    Reg D = Copies[0].Dst;
    Reg Tmp = NewTemp(D);
    Emit(Tmp, D);
    for (size_t J = 0; J < N; ++J)
      if (Copies[J].Src == D)
        Copies[J].Src = Tmp;
  }
}

/// sequenceParallelCopies over the registers of \p F: hands each copy to
/// \p Emit as a copy instruction, and breaks cycles with new registers of
/// \p F.
template <typename EmitFn>
void sequenceCopyInstructions(Function &F, std::span<PendingCopy> Copies,
                              EmitFn Emit) {
  sequenceParallelCopies(
      Copies,
      [&](Reg Dst, Reg Src) {
        Emit(Instruction::makeCopy(F.regType(Src), Dst, Src));
      },
      [&](Reg Saved) { return F.makeReg(F.regType(Saved)); });
}

} // namespace epre

#endif // EPRE_SSA_PARALLELCOPY_H
