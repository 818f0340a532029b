//===- support/StringUtil.cpp ---------------------------------------------===//

#include "support/StringUtil.h"

#include <cstdio>
#include <vector>

using namespace epre;

std::string epre::strprintf(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Len = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  std::string Out;
  if (Len > 0) {
    std::vector<char> Buf(Len + 1);
    std::vsnprintf(Buf.data(), Buf.size(), Fmt, ArgsCopy);
    Out.assign(Buf.data(), Len);
  }
  va_end(ArgsCopy);
  return Out;
}

bool epre::parseUnsigned(std::string_view S, uint64_t &Out, uint64_t Max) {
  if (S.empty())
    return false;
  uint64_t V = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return false;
    unsigned D = unsigned(C - '0');
    if (D > Max || V > (Max - D) / 10)
      return false;
    V = V * 10 + D;
  }
  Out = V;
  return true;
}
