// printf-style std::string formatting (GCC 12 lacks <format>).
#ifndef PANDIA_SRC_UTIL_STRINGS_H_
#define PANDIA_SRC_UTIL_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace pandia {

// Returns the printf-formatted string. The format string must be a valid
// printf format for the supplied arguments; mismatches are undefined
// behaviour exactly as with printf.
[[gnu::format(printf, 1, 2)]] std::string StrFormat(const char* fmt, ...);

// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> StrSplit(const std::string& text, char sep);

// Appends `raw` to `out` with backslash, newline, carriage return, tab and
// space escaped as "\\", "\n", "\r", "\t" and "\s", so any text travels
// as one space-free token: the value escaping of the wire grammar
// (src/serialize/wire.h) and of log lines (src/obs/log.h).
void AppendEscapedValue(std::string& out, std::string_view raw);

}  // namespace pandia

#endif  // PANDIA_SRC_UTIL_STRINGS_H_
