// Append-to-string helpers shared by the JSON exporters in src/obs
// (MetricsRegistry::ToJson, HealthMonitor::ToJson).
//
// Integers go through std::to_chars: the same bytes as printf's %llu / %lld
// without a format-string parse per number, which dominates an export of
// hundreds of thousands of snapshot values. Doubles stay on AppendF, so
// their %.6g bytes are printf's by construction.
#ifndef SRC_OBS_JSON_APPEND_H_
#define SRC_OBS_JSON_APPEND_H_

#include <charconv>
#include <cstdarg>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace gms {

// Longest decimal form of a 64-bit integer: 20 digits, or '-' plus 19.
inline constexpr size_t kMaxJsonIntChars = 20;

// printf-style append; output past 255 bytes is truncated.
[[gnu::format(printf, 2, 3)]] inline void AppendF(std::string* out,
                                                  const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) {
    out->append(buf, static_cast<size_t>(n) < sizeof(buf)
                         ? static_cast<size_t>(n)
                         : sizeof(buf) - 1);
  }
}

template <typename Int>
inline void AppendInt(std::string* out, Int v) {
  static_assert(sizeof(Int) <= 8);
  char buf[kMaxJsonIntChars];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, static_cast<size_t>(res.ptr - buf));
}

inline bool JsonNeedsEscape(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

// Bytes AppendJsonString(s) appends, quotes included.
inline size_t JsonStringSize(std::string_view s) {
  size_t n = 2 + s.size();
  for (char c : s) {
    if (JsonNeedsEscape(c)) {
      n += static_cast<unsigned char>(c) < 0x20 ? 5 : 1;  // \u00XX or \X
    }
  }
  return n;
}

// Proper JSON string escaping, without the quotes: quotes, backslashes,
// and control characters round-trip losslessly instead of being squashed to
// '_'. Unescaped runs are appended whole. Escaping is per character, so a
// name spelled in pieces escapes piece by piece.
inline void AppendJsonChars(std::string* out, std::string_view s) {
  size_t run = 0;
  for (size_t i = 0; i < s.size(); i++) {
    const char c = s[i];
    if (!JsonNeedsEscape(c)) {
      continue;
    }
    out->append(s.data() + run, i - run);
    run = i + 1;
    if (c == '"') {
      *out += "\\\"";
    } else if (c == '\\') {
      *out += "\\\\";
    } else {
      AppendF(out, "\\u%04x", static_cast<unsigned char>(c));
    }
  }
  out->append(s.data() + run, s.size() - run);
}

inline void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  AppendJsonChars(out, s);
  out->push_back('"');
}

}  // namespace gms

#endif  // SRC_OBS_JSON_APPEND_H_
