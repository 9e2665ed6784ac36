#include "src/util/strings.h"

#include <cstdarg>
#include <cstdio>

#include "src/util/check.h"

namespace pandia {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  PANDIA_CHECK_MSG(needed >= 0, "vsnprintf failed");
  std::string out(static_cast<size_t>(needed), '\0');
  // +1: vsnprintf writes the NUL terminator into the buffer; std::string
  // guarantees data()[size()] is writable as '\0' since C++11.
  std::vsnprintf(out.data(), static_cast<size_t>(needed) + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

std::vector<std::string> StrSplit(const std::string& text, char sep) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (true) {
    const size_t pos = text.find(sep, start);
    if (pos == std::string::npos) {
      fields.push_back(text.substr(start));
      return fields;
    }
    fields.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

void AppendEscapedValue(std::string& out, std::string_view raw) {
  // Runs of bytes that need no escape are appended whole.
  size_t run = 0;
  for (size_t i = 0; i < raw.size(); ++i) {
    const char* escape = nullptr;
    switch (raw[i]) {
      case '\\':
        escape = "\\\\";
        break;
      case '\n':
        escape = "\\n";
        break;
      case '\r':
        escape = "\\r";
        break;
      case '\t':
        escape = "\\t";
        break;
      case ' ':
        escape = "\\s";
        break;
      default:
        continue;
    }
    out.append(raw.data() + run, i - run);
    out.append(escape, 2);
    run = i + 1;
  }
  out.append(raw.data() + run, raw.size() - run);
}

}  // namespace pandia
