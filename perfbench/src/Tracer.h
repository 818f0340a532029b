//===- perfbench/src/Tracer.h - Benchmark-owned span recorder ----*- C++ -*-===//
///
/// \file
/// Spans recorded by the benchmark around its calls into the optimizer's
/// public entry points (and, through a PassInstrumentation, around every
/// pass application). One Tracer per thread; spans stay in memory and are
/// written out when the run ends. Each span carries its name, start, end,
/// parent span, the id of the operation it belongs to (one compile, one
/// execution or one request) and an optional count recorded at the same
/// boundary (instructions after a pass).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACER_H
#define PERFBENCH_TRACER_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace epre {
class PassInstrumentation;
}

namespace perfbench {

uint64_t nowNs();

class Tracer {
public:
  struct Span {
    uint32_t Name = 0;
    int32_t Parent = -1;
    uint32_t Op = 0;
    uint64_t Start = 0, End = 0;
    uint64_t Count = 0;
  };

  /// Aggregate of every span with one name.
  struct Layer {
    uint64_t Spans = 0;
    uint64_t TotalNs = 0;
    uint64_t SelfNs = 0;
    uint64_t CountSum = 0;
  };

  bool on() const { return On; }
  void setOn(bool Enable) { On = Enable; }

  /// The operation new spans are attributed to.
  void setOp(uint32_t Op) { CurOp = Op; }

  /// Opens a span nested in the innermost open one; -1 when tracing is off.
  int begin(std::string_view Name) { return On ? begin(intern(Name)) : -1; }
  int begin(uint32_t NameId);
  uint32_t intern(std::string_view Name);
  void end(int Idx, uint64_t Count = 0);

  const std::vector<Span> &spans() const { return Spans; }

  /// Per-name totals, self time being a span's duration minus the time its
  /// child spans cover.
  std::map<std::string, Layer> layers() const;

  /// Adds \p Other's spans (renumbering names and parents) after ours.
  void append(const Tracer &Other);

  /// Writes every span as a Chrome trace_event document (one "X" event per
  /// span, with op and parent in args). Returns false if the file cannot be
  /// written.
  bool writeChromeTrace(const std::string &Path) const;

private:
  bool On = false;
  uint32_t CurOp = 0;
  std::vector<Span> Spans;
  std::vector<int> Open;
  std::vector<std::string> Names;
  std::map<std::string, uint32_t, std::less<>> Ids;
};

/// RAII span; a no-op when the tracer is off.
class ScopedSpan {
public:
  ScopedSpan(Tracer &T, std::string_view Name) : T(T), Idx(T.begin(Name)) {}
  ~ScopedSpan() { T.end(Idx); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Tracer &T;
  int Idx;
};

/// A PassInstrumentation whose before/after callbacks open and close a
/// "pass.<name>" span around every pass application, recording the
/// function's static instruction count after the pass.
std::unique_ptr<epre::PassInstrumentation> makePassTracer(Tracer &T);

} // namespace perfbench

#endif // PERFBENCH_TRACER_H
