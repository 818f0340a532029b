//===- serve/Protocol.cpp -------------------------------------------------===//

#include "serve/Protocol.h"

#include "instrument/JSONReader.h"
#include "instrument/Profile.h"
#include "support/StringUtil.h"

#include <cerrno>
#include <cstring>
#include <unistd.h>

using namespace epre;

namespace {

bool readAll(int Fd, void *Buf, size_t N, bool &SawEOF) {
  unsigned char *P = static_cast<unsigned char *>(Buf);
  size_t Done = 0;
  SawEOF = false;
  while (Done < N) {
    ssize_t R = ::read(Fd, P + Done, N - Done);
    if (R == 0) {
      SawEOF = true;
      return Done == 0;
    }
    if (R < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Done += size_t(R);
  }
  return true;
}

void setErr(std::string *Err, std::string Msg) {
  if (Err)
    *Err = std::move(Msg);
}

} // namespace

FrameStatus epre::readFrame(int Fd, std::string &Payload, std::string *Err,
                            size_t MaxBytes) {
  unsigned char Prefix[4];
  bool SawEOF = false;
  if (!readAll(Fd, Prefix, 4, SawEOF)) {
    setErr(Err, SawEOF ? "EOF inside frame prefix"
                       : strprintf("read: %s", std::strerror(errno)));
    return FrameStatus::Error;
  }
  if (SawEOF)
    return FrameStatus::Closed;
  size_t Len = (size_t(Prefix[0]) << 24) | (size_t(Prefix[1]) << 16) |
               (size_t(Prefix[2]) << 8) | size_t(Prefix[3]);
  if (Len > MaxBytes) {
    setErr(Err, strprintf("frame of %zu bytes exceeds the %zu-byte limit",
                          Len, MaxBytes));
    return FrameStatus::Error;
  }
  Payload.resize(Len);
  if (Len == 0)
    return FrameStatus::Ok;
  if (!readAll(Fd, Payload.data(), Len, SawEOF) || SawEOF) {
    setErr(Err, SawEOF ? "EOF inside frame payload"
                       : strprintf("read: %s", std::strerror(errno)));
    return FrameStatus::Error;
  }
  return FrameStatus::Ok;
}

bool epre::writeFrame(int Fd, std::string_view Payload, std::string *Err) {
  if (Payload.size() > MaxFrameBytes) {
    setErr(Err, strprintf("refusing to send a %zu-byte frame (limit %zu)",
                          Payload.size(), MaxFrameBytes));
    return false;
  }
  unsigned char Prefix[4] = {
      (unsigned char)(Payload.size() >> 24),
      (unsigned char)(Payload.size() >> 16),
      (unsigned char)(Payload.size() >> 8),
      (unsigned char)(Payload.size()),
  };
  struct Span {
    const unsigned char *P;
    size_t N;
  } Spans[2] = {{Prefix, 4},
                {reinterpret_cast<const unsigned char *>(Payload.data()),
                 Payload.size()}};
  for (const Span &S : Spans) {
    size_t Done = 0;
    while (Done < S.N) {
      ssize_t W = ::write(Fd, S.P + Done, S.N - Done);
      if (W < 0) {
        if (errno == EINTR)
          continue;
        setErr(Err, strprintf("write: %s", std::strerror(errno)));
        return false;
      }
      Done += size_t(W);
    }
  }
  return true;
}

PipelineOptions epre::serveDefaultOptions() {
  PipelineOptions O;
  O.Level = OptLevel::Distribution;
  O.Naming = InputNaming::Hashed;
  // Input is verified explicitly by the service; the in-pipeline verifier
  // aborts the process on violation, which a daemon must never do.
  O.Verify = false;
  return O;
}

bool epre::parseServeRequest(const std::string &JSON, ServeRequest &Out,
                             std::string *Err) {
  JSONValue Doc;
  std::string ParseErr;
  if (!parseJSON(JSON, Doc, &ParseErr)) {
    setErr(Err, "malformed request: " + ParseErr);
    return false;
  }
  if (!Doc.isObject()) {
    setErr(Err, "request must be a JSON object");
    return false;
  }

  std::string Cmd = Doc.getString("cmd", "compile");
  if (Cmd == "compile")
    Out.Cmd = ServeRequest::Command::Compile;
  else if (Cmd == "stats")
    Out.Cmd = ServeRequest::Command::Stats;
  else if (Cmd == "metrics")
    Out.Cmd = ServeRequest::Command::Metrics;
  else if (Cmd == "ping")
    Out.Cmd = ServeRequest::Command::Ping;
  else if (Cmd == "shutdown")
    Out.Cmd = ServeRequest::Command::Shutdown;
  else {
    setErr(Err, "unknown cmd '" + Cmd + "'");
    return false;
  }

  Out.Options = serveDefaultOptions();
  Out.Profile.reset();
  Out.Requests.clear();
  if (Out.Cmd != ServeRequest::Command::Compile)
    return true;

  if (const JSONValue *O = Doc.get("options")) {
    if (!O->isObject()) {
      setErr(Err, "'options' must be an object");
      return false;
    }
    std::string V;
    if (!(V = O->getString("level")).empty() &&
        !parseOptLevel(V, Out.Options.Level)) {
      setErr(Err, "unknown opt level '" + V + "'");
      return false;
    }
    if (!(V = O->getString("strategy")).empty() &&
        !parsePREStrategy(V, Out.Options.Strategy)) {
      setErr(Err, "unknown PRE strategy '" + V + "'");
      return false;
    }
    if (!(V = O->getString("gvn")).empty() &&
        !parseGVNEngine(V, Out.Options.Engine)) {
      setErr(Err, "unknown GVN engine '" + V + "' (valid: " +
                      gvnEngineNames() + ")");
      return false;
    }
    if (!(V = O->getString("naming")).empty() &&
        !parseInputNaming(V, Out.Options.Naming)) {
      setErr(Err, "unknown naming discipline '" + V + "'");
      return false;
    }
    if (const JSONValue *B = O->get("fp-reassoc"); B && B->K == JSONValue::Bool)
      Out.Options.AllowFPReassoc = B->B;
    if (const JSONValue *B = O->get("strength-reduction");
        B && B->K == JSONValue::Bool)
      Out.Options.EnableStrengthReduction = B->B;
    if (const JSONValue *P = O->get("profile")) {
      auto Doc = std::make_shared<ProfileDoc>();
      std::string ProfErr;
      if (!ProfileDoc::fromJSONValue(*P, *Doc, &ProfErr)) {
        setErr(Err, "invalid profile: " + ProfErr);
        return false;
      }
      Out.Profile = std::move(Doc);
      Out.Options.ProfileIn = Out.Profile.get();
    }
    std::string OptErr;
    std::optional<PipelineOptions> Valid =
        PipelineOptions::create(Out.Options, &OptErr);
    if (!Valid) {
      setErr(Err, "invalid options: " + OptErr);
      return false;
    }
    Out.Options = *Valid;
    Out.Options.Verify = false; // see serveDefaultOptions()
  }

  const JSONValue *Reqs = Doc.get("requests");
  if (!Reqs || !Reqs->isArray()) {
    setErr(Err, "compile request needs a 'requests' array");
    return false;
  }
  for (size_t I = 0; I < Reqs->Arr.size(); ++I) {
    const JSONValue &R = Reqs->Arr[I];
    if (!R.isObject()) {
      setErr(Err, strprintf("requests[%zu] must be an object", I));
      return false;
    }
    CompileRequest CR;
    CR.Id = R.getString("id", strprintf("r%zu", I));
    std::string Lang = R.getString("lang", "iloc");
    if (Lang == "iloc")
      CR.Lang = CompileRequest::Language::ILOC;
    else if (Lang == "fortran")
      CR.Lang = CompileRequest::Language::MiniFortran;
    else {
      setErr(Err, strprintf("requests[%zu]: unknown lang '%s'", I,
                            Lang.c_str()));
      return false;
    }
    const JSONValue *Src = R.get("source");
    if (!Src || !Src->isString()) {
      setErr(Err, strprintf("requests[%zu] needs a string 'source'", I));
      return false;
    }
    CR.Source = Src->Str;
    Out.Requests.push_back(std::move(CR));
  }
  return true;
}
