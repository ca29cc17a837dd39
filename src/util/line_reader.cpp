#include "util/line_reader.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <utility>

#include "util/check.h"

namespace wanplace {
namespace {

constexpr std::string_view kSpace = " \t\r\v\f";

std::string_view trim(std::string_view text) {
  const auto first = std::min(text.find_first_not_of(kSpace), text.size());
  return text.substr(first, text.find_last_not_of(kSpace) + 1 - first);
}

}  // namespace

std::optional<double> parse_number(std::string_view token) {
  double value = 0;
  const char* last = token.data() + token.size();
  const auto [end, ec] = std::from_chars(token.data(), last, value);
  if (ec != std::errc() || end != last || !std::isfinite(value))
    return std::nullopt;
  return value;
}

LineReader::LineReader(std::istream& in, std::string source)
    : in_(in), source_(std::move(source)) {}

bool LineReader::next() {
  while (std::getline(in_, text_)) {
    ++line_;
    content_ = rest_ = trim(std::string_view(text_).substr(0, text_.find('#')));
    if (more()) return true;
  }
  content_ = rest_ = {};
  return false;
}

void LineReader::end() {
  if (more()) fail("unexpected trailing token", word("trailing"));
}

std::string_view LineReader::word(std::string_view what) {
  if (!more()) fail("missing its " + std::string(what) + " field in", content_);
  const auto stop = std::min(rest_.find_first_of(kSpace), rest_.size());
  token_ = rest_.substr(0, stop);
  rest_ = trim(rest_.substr(stop));
  return token_;
}

double LineReader::to_number(std::string_view token,
                             std::string_view what) const {
  const auto value = parse_number(token);
  if (!value) fail(std::string(what) + " is not a finite number:", token);
  return *value;
}

void LineReader::header(std::string_view magic, std::string_view stream_kind) {
  if (next() && word("magic") == magic && more() && word("version") == "v1")
    return;
  fail("not a " + std::string(stream_kind) + " (expected a \"" +
           std::string(magic) + " v1\" header):",
       content_);
}

void LineReader::fail(std::string_view message, std::string_view token,
                      std::optional<std::size_t> line) const {
  // An empty stream has no line 0: its errors point at line 1.
  const auto at = std::max<std::size_t>(line.value_or(line_), 1);
  throw Error(source_ + ":" + std::to_string(at) + ": " +
              std::string(message) + " '" + std::string(token) + "'");
}

}  // namespace wanplace
