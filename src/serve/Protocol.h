//===- serve/Protocol.h - Framing and request schema -------------*- C++ -*-===//
///
/// \file
/// The wire protocol of the compile server (schema in docs/serving.md):
/// every message is one length-prefixed JSON document — a 4-byte big-endian
/// payload length followed by that many bytes of UTF-8 JSON — in both
/// directions over a Unix-domain stream socket. Framing is transport code
/// only; the documents themselves are produced by JSONWriter and consumed
/// by JSONReader, the same pair the instrumentation layer already uses.
///
/// A request document:
/// \code
///   {"v":1, "cmd":"compile",
///    "options":{"level":"distribution","strategy":"lcm","gvn":"awz",
///               "naming":"hashed","fp-reassoc":true,
///               "strength-reduction":false,
///               "profile":{...epre-dynamic-profile-v1 document...}},
///    "requests":[{"id":"r0","lang":"iloc","source":"func @f() ..."},
///                {"id":"r1","lang":"fortran","source":"function g(x)..."}]}
/// \endcode
/// cmd is one of "compile", "stats", "metrics", "ping", "shutdown";
/// "options" and its
/// members are optional and default to PipelineOptions defaults at the
/// Distribution level. "profile" embeds a dynamic profile document as the
/// pipeline's profile-guided input (required by "strategy":"speculative");
/// its content is part of the result-cache options fingerprint, so results
/// compiled under different profiles never alias. Responses are built by
/// CompileService (Service.h).
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_SERVE_PROTOCOL_H
#define EPRE_SERVE_PROTOCOL_H

#include "pipeline/Pipeline.h"

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace epre {

/// Frames larger than this are a protocol error, not an allocation attempt.
inline constexpr size_t MaxFrameBytes = 64u << 20;

enum class FrameStatus {
  Ok,     ///< one complete frame read
  Closed, ///< orderly EOF at a frame boundary
  Error,  ///< short read/write, oversized frame, or errno failure
};

/// Reads one length-prefixed frame from \p Fd into \p Payload. EOF before
/// any prefix byte is Closed; EOF mid-frame is Error. Retries EINTR.
FrameStatus readFrame(int Fd, std::string &Payload, std::string *Err = nullptr,
                      size_t MaxBytes = MaxFrameBytes);

/// Writes the 4-byte length prefix and \p Payload, looping over partial
/// writes. Returns false (with \p Err set) on failure or oversized payload.
bool writeFrame(int Fd, std::string_view Payload, std::string *Err = nullptr);

/// One source unit to compile.
struct CompileRequest {
  std::string Id;            ///< echoed back verbatim in the response
  enum class Language { ILOC, MiniFortran } Lang = Language::ILOC;
  std::string Source;
};

/// One parsed request document.
struct ServeRequest {
  enum class Command {
    Compile,
    Stats,
    Metrics,
    Ping,
    Shutdown
  } Cmd = Command::Ping;
  /// Validated pipeline options for Compile (server-side Verify is always
  /// off: input is verified up front instead, so bad input cannot abort
  /// the daemon).
  PipelineOptions Options;
  /// Owns the request's embedded profile document when one was sent;
  /// Options.ProfileIn points into it. Shared so copies of the request
  /// keep the pointer valid for the whole compile.
  std::shared_ptr<ProfileDoc> Profile;
  std::vector<CompileRequest> Requests;
};

/// The options defaults a request starts from: the Distribution level with
/// hashed naming (the paper's strongest pipeline, valid for both input
/// languages).
PipelineOptions serveDefaultOptions();

/// Parses and validates one request document. On failure returns false with
/// a diagnostic in \p Err.
bool parseServeRequest(const std::string &JSON, ServeRequest &Out,
                       std::string *Err);

} // namespace epre

#endif // EPRE_SERVE_PROTOCOL_H
