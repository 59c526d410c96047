#ifndef ORDLOG_BASE_STRINGS_H_
#define ORDLOG_BASE_STRINGS_H_

#include <charconv>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace ordlog {

namespace internal_strings {

inline void AppendPieces(std::ostringstream&) {}

template <typename T, typename... Rest>
void AppendPieces(std::ostringstream& os, const T& first,
                  const Rest&... rest) {
  os << first;
  AppendPieces(os, rest...);
}

}  // namespace internal_strings

// Concatenates the streamable arguments into one string.
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream os;
  internal_strings::AppendPieces(os, args...);
  return os.str();
}

// Joins `pieces` with `separator`, rendering each element with operator<<.
template <typename Container>
std::string StrJoin(const Container& pieces, std::string_view separator) {
  std::ostringstream os;
  bool first = true;
  for (const auto& piece : pieces) {
    if (!first) os << separator;
    first = false;
    os << piece;
  }
  return os.str();
}

// Joins `pieces` with `separator`, rendering each element via `formatter`,
// a callable taking (std::ostringstream&, const Element&).
template <typename Container, typename Formatter>
std::string StrJoin(const Container& pieces, std::string_view separator,
                    Formatter&& formatter) {
  std::ostringstream os;
  bool first = true;
  for (const auto& piece : pieces) {
    if (!first) os << separator;
    first = false;
    formatter(os, piece);
  }
  return os.str();
}

// Splits `text` at every occurrence of `delimiter`, keeping empty pieces.
std::vector<std::string> StrSplit(std::string_view text, char delimiter);

// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

// True when `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

// Parses all of `text` as a T with std::from_chars (base-10 integers, or
// decimal/scientific floating point). nullopt when `text` is empty, has
// anything left over (trailing characters, whitespace, a '+', a '-' on an
// unsigned T), or does not fit in T.
template <typename T>
std::optional<T> ParseNumber(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const std::from_chars_result result =
      std::from_chars(text.data(), end, value);
  if (result.ec != std::errc() || result.ptr != end) return std::nullopt;
  return value;
}

}  // namespace ordlog

#endif  // ORDLOG_BASE_STRINGS_H_
