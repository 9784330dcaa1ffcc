// Strict numeric flag values for the command-line tools.
//
// std::atoi and its relatives turn "--threads=abc" into 0 and
// "--trials=10k" into 10 without a word. ParseFlag<T>(program, flag, text)
// accepts only a whole value of type T: a decimal number (or, for integers,
// a hexadecimal one after "0x"), with nothing before or after it, inside
// T's range, and finite for floating point. Anything else prints
// "<program>: bad <flag> value '<text>': <reason>" to stderr and exits with
// status 2. Parsing goes through std::from_chars, so it does not depend on
// the locale.

#ifndef LONGSTORE_TOOLS_CLI_FLAGS_H_
#define LONGSTORE_TOOLS_CLI_FLAGS_H_

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>
#include <type_traits>

namespace longstore {

template <typename T>
T ParseFlag(const char* program, const char* flag, const char* text) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  const char* first = text;
  const char* const last = text + std::strlen(text);
  T value{};
  std::from_chars_result parsed{};
  if constexpr (std::is_floating_point_v<T>) {
    parsed = std::from_chars(first, last, value);
  } else {
    int base = 10;
    if (last - first > 2 && first[0] == '0' && (first[1] == 'x' || first[1] == 'X')) {
      first += 2;
      base = 16;
    }
    parsed = std::from_chars(first, last, value, base);
  }
  const char* reason = nullptr;
  if (first == last) {
    reason = "empty";
  } else if (parsed.ec == std::errc::result_out_of_range) {
    reason = "out of range";
  } else if (parsed.ec != std::errc()) {
    reason = "not a number";
  } else if (parsed.ptr != last) {
    reason = "trailing characters";
  } else if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) {
      reason = "not finite";
    }
  }
  if (reason != nullptr) {
    std::fprintf(stderr, "%s: bad %s value '%s': %s\n", program, flag, text, reason);
    std::exit(2);
  }
  return value;
}

}  // namespace longstore

#endif  // LONGSTORE_TOOLS_CLI_FLAGS_H_
