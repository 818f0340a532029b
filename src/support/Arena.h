//===- support/Arena.h - Bump-pointer arena allocator ------------*- C++ -*-===//
///
/// \file
/// A chunked bump allocator for trivially-destructible objects. Allocation
/// is a pointer bump; deallocation only happens wholesale via reset(),
/// which rewinds every chunk but keeps the memory, so steady-state reuse
/// (the fuzz campaign's predecode-execute inner loop, the interpreter's
/// per-run scratch) never touches the general heap after warm-up.
///
/// No destructors are run: allocArray static_asserts trivial
/// destructibility. Memory is returned uninitialized.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_SUPPORT_ARENA_H
#define EPRE_SUPPORT_ARENA_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace epre {

class Arena {
public:
  explicit Arena(size_t FirstChunkBytes = 64 * 1024)
      : NextChunkBytes(FirstChunkBytes) {}

  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  /// Returns \p Bytes of uninitialized storage aligned to \p Align.
  void *allocate(size_t Bytes, size_t Align) {
    assert(Align != 0 && (Align & (Align - 1)) == 0 && "non-power-of-2 align");
    while (CurChunk < Chunks.size()) {
      Chunk &C = Chunks[CurChunk];
      size_t Off = (C.Used + Align - 1) & ~(Align - 1);
      if (Off + Bytes <= C.Size) {
        C.Used = Off + Bytes;
        return C.Mem.get() + Off;
      }
      ++CurChunk; // chunk full for this request; spill to the next
    }
    size_t Size = NextChunkBytes;
    while (Size < Bytes + Align)
      Size *= 2;
    NextChunkBytes = Size * 2;
    Chunks.push_back({std::make_unique<char[]>(Size), Size, 0});
    CurChunk = Chunks.size() - 1;
    return allocate(Bytes, Align);
  }

  /// Allocates an uninitialized array of \p N objects of \p T. The arena
  /// never runs destructors, so T must not need one.
  template <typename T> T *allocArray(size_t N) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is reclaimed without running destructors");
    if (N == 0)
      return nullptr;
    return static_cast<T *>(allocate(N * sizeof(T), alignof(T)));
  }

  /// Rewinds every chunk but keeps the memory mapped for reuse.
  void reset() {
    for (Chunk &C : Chunks)
      C.Used = 0;
    CurChunk = 0;
  }

  /// Bytes held across all chunks (high-water footprint).
  size_t bytesReserved() const {
    size_t N = 0;
    for (const Chunk &C : Chunks)
      N += C.Size;
    return N;
  }

private:
  struct Chunk {
    std::unique_ptr<char[]> Mem;
    size_t Size = 0;
    size_t Used = 0;
  };
  std::vector<Chunk> Chunks;
  size_t CurChunk = 0;
  size_t NextChunkBytes;
};

} // namespace epre

#endif // EPRE_SUPPORT_ARENA_H
