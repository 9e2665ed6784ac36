// Wire schema for the placement service (src/serve) — version 1.
//
// The service speaks a line-delimited text protocol over stdin/stdout and
// over a Unix-domain socket; the same request grammar is reused for the
// mutation journal's record payloads (journal v2 wraps each request line in
// a checksummed `seq crc len payload` frame — see src/serve/journal.h), so
// one grammar covers every byte the daemon reads or writes.
//
// Request (one line):
//
//   request = VERB *( " " key "=" value )
//   VERB    = 1*( "A".."Z" | "-" )
//   key     = 1*( "a".."z" | "0".."9" | "." | "_" | "-" )
//   value   = escaped string (see EscapeValue); may be empty
//
// The grammar is verb-agnostic; the service (src/serve) defines the v1 verb
// set: ADMIT, DEPART, REBALANCE, COMPACT, STATUS, METRICS, TELEMETRY,
// RECORDER, and SHUTDOWN (COMPACT and the HELLO handshake — protocol
// version + capability list — are post-v1 extensions; the protocol version
// only moves on incompatible changes). Unknown verbs parse fine and earn a
// structured err response.
//
// Values are escaped so arbitrary text — including the multi-line workload
// description documents carried by ADMIT — fits in one space-separated
// token: backslash-escapes "\\", "\n", "\r", "\t", and "\s" (space).
// Duplicate keys are rejected, matching the strict description parser.
//
// Response (a block of lines):
//
//   response   = status-line *( payload-line ) "."
//   status-line = "ok " VERB            on success
//               | "err " code " " escaped-message
//   code        = "invalid-argument" | "not-found" | "failed-precondition"
//               | "data-loss" | "unavailable" | "internal"
//
// Payload lines are free-form text (typically `key = value` rows) but never
// the single character "."; the lone "." line terminates the block, so
// clients can frame responses without knowing any verb's payload shape.
//
// Parsing is strict and never aborts: malformed requests surface as a
// Status that the service turns into an `err` response — a bad byte on the
// wire must never take the daemon down.
#ifndef PANDIA_SRC_SERIALIZE_WIRE_H_
#define PANDIA_SRC_SERIALIZE_WIRE_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/topology/placement.h"
#include "src/util/status.h"

namespace pandia {
namespace wire {

inline constexpr int kProtocolVersion = 1;

// The canonical verb inventory — the single source of truth that
// pandia_lint's cross-file rule `wire-verb-drift` checks against the
// daemon's front door (serve/fleet_service.cc) and against the documented
// protocol in DESIGN.md. Adding a verb means adding it here, dispatching it
// in the front door, and documenting it, or the linter fails CI. Sorted;
// uppercase per the VERB grammar above.
inline constexpr std::string_view kVerbs[] = {
    "ADMIT",    "COMPACT",  "DEPART",   "HELLO",    "METRICS",
    "RECORDER", "REBALANCE", "SHUTDOWN", "STATUS",   "TELEMETRY",
};

// Journal-record verbs: the request grammar reused for mutation-journal
// payloads (see src/serve/journal.h). Replayed by PlacementService only —
// never dispatched by the front door, never sent by clients. JOB is the
// sub-record a SNAPSHOT embeds, one per resident job.
inline constexpr std::string_view kJournalRecordVerbs[] = {
    "ADMITTED", "DEPARTED", "JOB", "MOVED", "NOTE", "SNAPSHOT",
};

// Escapes backslash, newline, carriage return, tab, and space so any text
// travels as one token on a request line. Round-trips exactly.
std::string EscapeValue(std::string_view raw);
StatusOr<std::string> UnescapeValue(std::string_view escaped);

struct Request {
  std::string verb;  // uppercase, e.g. "ADMIT"
  // Decoded key/value pairs in wire order (keys are unique).
  std::vector<std::pair<std::string, std::string>> params;

  // Value for `key`, or null when absent.
  const std::string* Find(std::string_view key) const;
};

// Formats a request as one line (no trailing newline). Escapes values;
// PANDIA_CHECKs verb/key charsets (programmer-constructed requests).
std::string FormatRequest(const Request& request);

// Parses one request line. Errors name the offending token.
StatusOr<Request> ParseRequest(std::string_view line);

struct Response {
  bool ok = true;
  std::string verb;                      // echoed verb (ok responses)
  StatusCode code = StatusCode::kOk;     // error code (err responses)
  std::string error;                     // error message (err responses)
  std::vector<std::string> payload;      // lines between status and "."

  static Response Success(std::string verb) {
    Response response;
    response.ok = true;
    response.verb = std::move(verb);
    return response;
  }
  static Response Failure(const Status& status) {
    Response response;
    response.ok = false;
    response.code = status.code();
    response.error = status.message();
    return response;
  }
};

// Lowercase wire token for a status code, e.g. "invalid-argument".
std::string WireCodeName(StatusCode code);
StatusOr<StatusCode> WireCodeFromName(std::string_view name);

// Formats the full response block: status line, payload lines, and the "."
// terminator, each newline-terminated. PANDIA_CHECKs that no payload line
// is the bare terminator (responses are programmer-constructed).
std::string FormatResponse(const Response& response);

// Parses a complete response block (the lines of one response, including
// the final "."). The client side of the protocol.
StatusOr<Response> ParseResponse(const std::vector<std::string>& lines);

// Per-core thread counts as a compact comma list, e.g. "2,1,0,0". The wire
// form of a placement; machine topology comes from context (the request's
// machine index), so the CSV alone is enough to reconstruct it.
std::string PlacementToCsv(const Placement& placement);
StatusOr<Placement> PlacementFromCsv(const MachineTopology& topo,
                                     std::string_view csv);

}  // namespace wire
}  // namespace pandia

#endif  // PANDIA_SRC_SERIALIZE_WIRE_H_
