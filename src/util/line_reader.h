// One strict line reader for the topology, trace and events files, and the
// whole-token parsers the CLI's numeric flags share (grammar: graph/io.h).
#pragma once

#include <charconv>
#include <iosfwd>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace wanplace {

/// `token`, whole, as a T; nullopt if it is not an integer that fits T.
template <class T>
std::optional<T> parse_integer(std::string_view token) {
  T value{};
  const char* last = token.data() + token.size();
  const auto [end, ec] = std::from_chars(token.data(), last, value);
  if (ec != std::errc() || end != last) return std::nullopt;
  return value;
}

/// `token`, whole, as a finite double; nullopt otherwise (nan or inf would
/// poison every demand and latency computation downstream).
std::optional<double> parse_number(std::string_view token);

/// Reads a stream's non-blank lines ('#' comments stripped) token by
/// token; a rejection throws Error("<source>:<line>: <message> '<token>'").
class LineReader {
 public:
  LineReader(std::istream& in, std::string source);

  /// Advance to the next line with a token on it; false at end of stream.
  bool next();
  bool more() const { return !rest_.empty(); }
  void end();  // fails if the line has tokens left
  /// Read the "<magic> v1" line that opens the stream.
  void header(std::string_view magic, std::string_view stream_kind);

  /// The next token; `what` names it in the error if it is missing.
  std::string_view word(std::string_view what);
  template <class T>
  T integer(std::string_view what, T lo = std::numeric_limits<T>::min(),
            T hi = std::numeric_limits<T>::max()) {
    return to_integer(word(what), what, lo, hi);
  }
  double number(std::string_view what) { return to_number(word(what), what); }

  /// `token`, from the current line, as an integer in [lo, hi] or a number.
  template <class T>
  T to_integer(std::string_view token, std::string_view what,
               T lo = std::numeric_limits<T>::min(),
               T hi = std::numeric_limits<T>::max()) const {
    const auto value = parse_integer<T>(token);
    if (!value || *value < lo || *value > hi)
      fail(std::string(what) + " is not an integer in [" +
               std::to_string(lo) + ", " + std::to_string(hi) + "]:",
           token);
    return *value;
  }
  double to_number(std::string_view token, std::string_view what) const;

  /// Fails naming the last token read unless `ok`.
  void check(bool ok, std::string_view message) const {
    if (!ok) fail(message, token_);
  }
  std::size_t line() const { return line_; }
  /// Throws the Error for `token` at `line`, by default the current one.
  [[noreturn]] void fail(std::string_view message, std::string_view token,
                         std::optional<std::size_t> line = {}) const;

 private:
  std::istream& in_;
  std::string source_;
  std::string text_;
  std::string_view content_;  // the current line, comment stripped
  std::string_view rest_;     // its unread tokens
  std::string_view token_;    // the last token read
  std::size_t line_ = 0;
};

}  // namespace wanplace
