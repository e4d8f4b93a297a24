#ifndef ATUNE_COMMON_STRING_UTIL_H_
#define ATUNE_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace atune {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Splits on a single-character delimiter; empty tokens are kept.
std::vector<std::string> Split(std::string_view s, char delim);

/// Joins with a separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Strips leading/trailing ASCII whitespace.
std::string Trim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);

/// Renders a double compactly (trims trailing zeros, max 6 significant
/// decimals) — used for configuration printing.
std::string DoubleToString(double v);

/// Parses all of `s` as a number: base-10 digits only for the unsigned
/// form (no sign, no blanks, at most 2^64 - 1), and a finite strtod value
/// with no leading blank and nothing after it for the double form. On any
/// other input returns false and leaves *out as it was. Both CLIs read
/// every numeric flag through these, so a typo is a usage error, not a
/// silent 0.
bool ParseNumber(const std::string& s, uint64_t* out);
bool ParseNumber(const std::string& s, double* out);

/// True iff `id` is a safe session id: nonempty, <= 128 bytes, only
/// [A-Za-z0-9._-], and neither "." nor "..". Ids become file names (the
/// daemon's journal/meta/result files, knowledge shards), so atuned
/// admission and knowledge ingest both check them with this one rule.
bool ValidSessionId(const std::string& id);

}  // namespace atune

#endif  // ATUNE_COMMON_STRING_UTIL_H_
