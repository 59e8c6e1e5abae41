#ifndef CSJ_UTIL_FORMAT_H_
#define CSJ_UTIL_FORMAT_H_

#include <cstdint>
#include <string>
#include <vector>

/// \file
/// Small string-formatting helpers shared by sinks, benches and examples.

namespace csj {

/// Number of decimal digits needed to print `max_value` (at least 1).
/// Used to compute the zero-padded id width of the paper's output format.
int DecimalWidth(uint64_t max_value);

/// Zero-pads `value` to `width` decimal digits, e.g. ZeroPad(7, 4) == "0007".
/// Values wider than `width` are printed in full.
std::string ZeroPad(uint64_t value, int width);

/// Appends `value` zero-padded to `width` decimal digits, then `terminator`
/// (a separator or newline), to `out`: one field of the paper's text output
/// format, e.g. AppendPaddedId(7, 4, ' ', &s) appends "0007 ". Values wider
/// than `width` are written in full. The one id encoder behind every text
/// stream the engine writes (FileSink, served range results).
inline void AppendPaddedId(uint64_t value, int width, char terminator,
                           std::string* out) {
  char buf[24];
  char* const end = buf + sizeof(buf);
  char* pos = end;
  *--pos = terminator;
  do {
    *--pos = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  const int digits = static_cast<int>(end - pos) - 1;
  if (digits < width) out->append(static_cast<size_t>(width - digits), '0');
  out->append(pos, end);
}

/// "1.21 GB", "532 B", ... (powers of 1024).
std::string HumanBytes(uint64_t bytes);

/// "1.2 s", "34.5 ms", "120 us", ...
std::string HumanDuration(double seconds);

/// "12,345,678" — thousands separators for readability in reports.
std::string WithThousands(uint64_t value);

/// Joins string pieces with a separator.
std::string StrJoin(const std::vector<std::string>& pieces,
                    const std::string& separator);

/// printf-style into std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace csj

#endif  // CSJ_UTIL_FORMAT_H_
