#ifndef ATUNE_TESTS_HEX_UTIL_H_
#define ATUNE_TESTS_HEX_UTIL_H_

#include <string>

namespace atune {
namespace testing_util {

/// Lower-case hex of `bytes`, two digits per byte: the golden-bytes cases
/// compare encoder output against a literal so a failure prints both.
inline std::string HexOf(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(2 * bytes.size());
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

}  // namespace testing_util
}  // namespace atune

#endif  // ATUNE_TESTS_HEX_UTIL_H_
