#include "src/serialize/wire.h"

#include <cctype>

#include "src/util/check.h"
#include "src/util/strings.h"

namespace pandia {
namespace wire {
namespace {

bool IsVerbChar(char c) { return (c >= 'A' && c <= 'Z') || c == '-'; }

bool IsKeyChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '.' ||
         c == '_' || c == '-';
}

bool ValidVerb(std::string_view verb) {
  if (verb.empty()) {
    return false;
  }
  for (char c : verb) {
    if (!IsVerbChar(c)) {
      return false;
    }
  }
  return true;
}

bool ValidKey(std::string_view key) {
  if (key.empty()) {
    return false;
  }
  for (char c : key) {
    if (!IsKeyChar(c)) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string EscapeValue(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  AppendEscapedValue(out, raw);
  return out;
}

StatusOr<std::string> UnescapeValue(std::string_view escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (size_t i = 0; i < escaped.size(); ++i) {
    const char c = escaped[i];
    if (c != '\\') {
      out += c;
      continue;
    }
    if (i + 1 == escaped.size()) {
      return Status::InvalidArgument("value ends with a dangling backslash");
    }
    const char next = escaped[++i];
    switch (next) {
      case '\\':
        out += '\\';
        break;
      case 'n':
        out += '\n';
        break;
      case 'r':
        out += '\r';
        break;
      case 't':
        out += '\t';
        break;
      case 's':
        out += ' ';
        break;
      default:
        return Status::InvalidArgument(
            StrFormat("unknown escape '\\%c' in value", next));
    }
  }
  return out;
}

const std::string* Request::Find(std::string_view key) const {
  for (const auto& [k, v] : params) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

std::string FormatRequest(const Request& request) {
  PANDIA_CHECK_MSG(ValidVerb(request.verb), "request verb must be [A-Z-]+");
  std::string line = request.verb;
  for (const auto& [key, value] : request.params) {
    PANDIA_CHECK_MSG(ValidKey(key), "request key must be [a-z0-9._-]+");
    line += ' ';
    line += key;
    line += '=';
    AppendEscapedValue(line, value);
  }
  return line;
}

StatusOr<Request> ParseRequest(std::string_view line) {
  if (line.empty()) {
    return Status::InvalidArgument("empty request line");
  }
  Request request;
  size_t pos = 0;
  while (pos <= line.size()) {
    const size_t space = line.find(' ', pos);
    const std::string_view token =
        line.substr(pos, space == std::string_view::npos ? space : space - pos);
    pos = space == std::string_view::npos ? line.size() + 1 : space + 1;
    if (token.empty()) {
      return Status::InvalidArgument("empty token (doubled or trailing space?)");
    }
    if (request.verb.empty()) {
      if (!ValidVerb(token)) {
        return Status::InvalidArgument(
            StrFormat("request verb '%.*s' must be uppercase [A-Z-]+",
                      static_cast<int>(token.size()), token.data()));
      }
      request.verb = std::string(token);
      continue;
    }
    const size_t eq = token.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument(
          StrFormat("parameter '%.*s' is missing '='",
                    static_cast<int>(token.size()), token.data()));
    }
    const std::string_view key = token.substr(0, eq);
    if (!ValidKey(key)) {
      return Status::InvalidArgument(
          StrFormat("parameter key '%.*s' must be [a-z0-9._-]+",
                    static_cast<int>(key.size()), key.data()));
    }
    if (request.Find(key) != nullptr) {
      return Status::InvalidArgument(
          StrFormat("duplicate parameter key '%.*s'", static_cast<int>(key.size()),
                    key.data()));
    }
    StatusOr<std::string> value = UnescapeValue(token.substr(eq + 1));
    if (!value.ok()) {
      return Status::InvalidArgument(StrFormat("parameter '%.*s': %s",
                                               static_cast<int>(key.size()),
                                               key.data(),
                                               value.status().message().c_str()));
    }
    request.params.emplace_back(std::string(key), *std::move(value));
  }
  return request;
}

std::string WireCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid-argument";
    case StatusCode::kNotFound:
      return "not-found";
    case StatusCode::kFailedPrecondition:
      return "failed-precondition";
    case StatusCode::kDataLoss:
      return "data-loss";
    case StatusCode::kUnavailable:
      return "unavailable";
    case StatusCode::kInternal:
      return "internal";
  }
  return "internal";
}

StatusOr<StatusCode> WireCodeFromName(std::string_view name) {
  for (const StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kFailedPrecondition, StatusCode::kDataLoss,
        StatusCode::kUnavailable, StatusCode::kInternal}) {
    if (WireCodeName(code) == name) {
      return code;
    }
  }
  return Status::InvalidArgument(StrFormat("unknown wire status code '%.*s'",
                                           static_cast<int>(name.size()),
                                           name.data()));
}

std::string FormatResponse(const Response& response) {
  std::string out;
  if (response.ok) {
    PANDIA_CHECK_MSG(ValidVerb(response.verb), "response verb must be [A-Z-]+");
    out = "ok " + response.verb + "\n";
  } else {
    PANDIA_CHECK_MSG(response.code != StatusCode::kOk,
                     "err response needs a non-OK code");
    out = "err " + WireCodeName(response.code) + " " + EscapeValue(response.error) +
          "\n";
  }
  for (const std::string& line : response.payload) {
    PANDIA_CHECK_MSG(line != ".", "payload line collides with the terminator");
    out += line;
    out += '\n';
  }
  out += ".\n";
  return out;
}

StatusOr<Response> ParseResponse(const std::vector<std::string>& lines) {
  if (lines.size() < 2) {
    return Status::DataLoss("response block needs a status line and a terminator");
  }
  if (lines.back() != ".") {
    return Status::DataLoss("response block does not end with '.'");
  }
  const std::string& status_line = lines.front();
  Response response;
  if (status_line.rfind("ok ", 0) == 0) {
    response.ok = true;
    response.verb = status_line.substr(3);
    if (!ValidVerb(response.verb)) {
      return Status::DataLoss(
          StrFormat("malformed ok status line '%s'", status_line.c_str()));
    }
  } else if (status_line.rfind("err ", 0) == 0) {
    response.ok = false;
    const std::string rest = status_line.substr(4);
    const size_t space = rest.find(' ');
    if (space == std::string::npos) {
      return Status::DataLoss(
          StrFormat("malformed err status line '%s'", status_line.c_str()));
    }
    StatusOr<StatusCode> code = WireCodeFromName(rest.substr(0, space));
    if (!code.ok()) {
      return Status::DataLoss(code.status().message());
    }
    response.code = *code;
    StatusOr<std::string> message = UnescapeValue(rest.substr(space + 1));
    if (!message.ok()) {
      return Status::DataLoss(message.status().message());
    }
    response.error = *std::move(message);
  } else {
    return Status::DataLoss(
        StrFormat("response status line '%s' starts with neither 'ok' nor 'err'",
                  status_line.c_str()));
  }
  response.payload.assign(lines.begin() + 1, lines.end() - 1);
  return response;
}

std::string PlacementToCsv(const Placement& placement) {
  std::string out;
  const std::vector<uint8_t>& per_core = placement.PerCore();
  for (size_t c = 0; c < per_core.size(); ++c) {
    if (c > 0) {
      out += ',';
    }
    out += StrFormat("%d", static_cast<int>(per_core[c]));
  }
  return out;
}

StatusOr<Placement> PlacementFromCsv(const MachineTopology& topo,
                                     std::string_view csv) {
  std::vector<uint8_t> per_core;
  per_core.reserve(static_cast<size_t>(topo.NumCores()));
  size_t pos = 0;
  while (pos <= csv.size()) {
    const size_t comma = csv.find(',', pos);
    const std::string_view token =
        csv.substr(pos, comma == std::string_view::npos ? comma : comma - pos);
    pos = comma == std::string_view::npos ? csv.size() + 1 : comma + 1;
    if (token.empty() || token.size() > 1 || token[0] < '0' || token[0] > '9') {
      return Status::InvalidArgument(
          StrFormat("placement entry '%.*s' is not a digit",
                    static_cast<int>(token.size()), token.data()));
    }
    const int count = token[0] - '0';
    if (count > topo.threads_per_core) {
      return Status::InvalidArgument(
          StrFormat("placement entry %d exceeds threads_per_core=%d", count,
                    topo.threads_per_core));
    }
    per_core.push_back(static_cast<uint8_t>(count));
  }
  if (static_cast<int>(per_core.size()) != topo.NumCores()) {
    return Status::InvalidArgument(
        StrFormat("placement lists %zu cores but machine type '%s' has %d",
                  per_core.size(), topo.name.c_str(), topo.NumCores()));
  }
  int total = 0;
  for (uint8_t count : per_core) {
    total += count;
  }
  if (total == 0) {
    return Status::InvalidArgument("placement has no threads");
  }
  return Placement(topo, std::move(per_core));
}

}  // namespace wire
}  // namespace pandia
