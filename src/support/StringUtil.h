//===- support/StringUtil.h - Small string helpers -------------*- C++ -*-===//
///
/// \file
/// printf-style std::string formatting, a strict decimal parser for
/// numeric command-line flags, and a deterministic 64-bit hash combiner
/// used for value-numbering keys and memory-image digests.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_SUPPORT_STRINGUTIL_H
#define EPRE_SUPPORT_STRINGUTIL_H

#include <cstdarg>
#include <cstdint>
#include <string>
#include <string_view>

namespace epre {

/// Formats like printf into a std::string.
std::string strprintf(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Parses \p S as a decimal unsigned integer no larger than \p Max: one or
/// more ASCII digits and nothing else (no sign, no whitespace). Returns
/// false, leaving \p Out untouched, on any other input or on overflow.
bool parseUnsigned(std::string_view S, uint64_t &Out,
                   uint64_t Max = UINT64_MAX);

/// Deterministic 64-bit hash combiner (a splitmix64-style mix).
inline uint64_t hashCombine(uint64_t Seed, uint64_t V) {
  V += 0x9e3779b97f4a7c15ULL + (Seed << 6) + (Seed >> 2);
  V = (V ^ (V >> 30)) * 0xbf58476d1ce4e5b9ULL;
  V = (V ^ (V >> 27)) * 0x94d049bb133111ebULL;
  return Seed ^ (V ^ (V >> 31));
}

} // namespace epre

#endif // EPRE_SUPPORT_STRINGUTIL_H
