#include "gen/spec.hpp"

#include <cctype>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace cobra::gen {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::invalid_argument("GraphSpec: " + message);
}

bool is_identifier(std::string_view text) {
  if (text.empty()) return false;
  if (std::isalpha(static_cast<unsigned char>(text[0])) == 0 && text[0] != '_') {
    return false;
  }
  for (const char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '_') {
      return false;
    }
  }
  return true;
}

}  // namespace

GraphSpec GraphSpec::parse(std::string_view text) {
  GraphSpec spec;
  const auto colon = text.find(':');
  const std::string_view family =
      colon == std::string_view::npos ? text : text.substr(0, colon);
  if (!is_identifier(family)) {
    fail("bad family name '" + std::string(family) + "' in '" +
         std::string(text) + "'");
  }
  spec.family_ = std::string(family);
  if (colon == std::string_view::npos) return spec;

  std::string_view rest = text.substr(colon + 1);
  if (rest.empty()) fail("trailing ':' with no parameters in '" +
                         std::string(text) + "'");
  while (!rest.empty()) {
    const auto comma = rest.find(',');
    const std::string_view pair =
        comma == std::string_view::npos ? rest : rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    const auto eq = pair.find('=');
    if (eq == std::string_view::npos) {
      fail("parameter '" + std::string(pair) + "' is not key=value");
    }
    const std::string_view key = pair.substr(0, eq);
    const std::string_view value = pair.substr(eq + 1);
    if (!is_identifier(key)) fail("bad key '" + std::string(key) + "'");
    if (value.empty()) fail("empty value for key '" + std::string(key) + "'");
    if (spec.has(key)) fail("duplicate key '" + std::string(key) + "'");
    spec.params_.emplace_back(std::string(key), std::string(value));
  }
  return spec;
}

const std::string* GraphSpec::find(std::string_view key) const noexcept {
  for (const auto& [k, v] : params_) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool GraphSpec::has(std::string_view key) const noexcept {
  return find(key) != nullptr;
}

std::uint64_t GraphSpec::parse_uint(std::string_view value,
                                    std::string_view context) {
  const std::string text(value);
  const std::string where = "value '" + text + "' for '" +
                            std::string(context) + "'";
  // 2^k power form.
  const auto caret = text.find('^');
  if (caret != std::string::npos) {
    if (text.substr(0, caret) != "2") fail(where + ": only 2^k powers");
    std::size_t used = 0;
    unsigned long exp = 0;
    try {
      exp = std::stoul(text.substr(caret + 1), &used);
    } catch (const std::exception&) {
      fail(where + ": bad exponent");
    }
    if (used != text.size() - caret - 1) fail(where + ": bad exponent");
    if (exp > 63) fail(where + ": exponent too large");
    return 1ULL << exp;
  }
  // Scientific / decimal form: accepted when it is an exact integer.
  if (text.find_first_of("eE.") != std::string::npos) {
    const double d = parse_double(value, context);
    if (d < 0.0 || d > 9.007199254740992e15 || std::floor(d) != d) {
      fail(where + ": not a non-negative integer");
    }
    return static_cast<std::uint64_t>(d);
  }
  std::size_t used = 0;
  unsigned long long parsed = 0;
  try {
    parsed = std::stoull(text, &used);
  } catch (const std::exception&) {
    fail(where + ": not an integer");
  }
  if (used != text.size()) fail(where + ": trailing junk");
  if (!text.empty() && text[0] == '-') fail(where + ": must be non-negative");
  return parsed;
}

double GraphSpec::parse_double(std::string_view value,
                               std::string_view context) {
  const std::string text(value);
  const std::string where = "value '" + text + "' for '" +
                            std::string(context) + "'";
  if (text.find('^') != std::string::npos) {
    return static_cast<double>(parse_uint(value, context));
  }
  std::size_t used = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(text, &used);
  } catch (const std::exception&) {
    fail(where + ": not a number");
  }
  if (used != text.size()) fail(where + ": trailing junk");
  if (!std::isfinite(parsed)) fail(where + ": not finite");
  return parsed;
}

std::uint64_t GraphSpec::get_uint(std::string_view key,
                                  std::uint64_t fallback) const {
  const std::string* value = find(key);
  return value == nullptr ? fallback : parse_uint(*value, key);
}

std::uint64_t GraphSpec::require_uint(std::string_view key) const {
  const std::string* value = find(key);
  if (value == nullptr) {
    fail("family '" + family_ + "' requires key '" + std::string(key) + "'");
  }
  return parse_uint(*value, key);
}

double GraphSpec::get_double(std::string_view key, double fallback) const {
  const std::string* value = find(key);
  return value == nullptr ? fallback : parse_double(*value, key);
}

double GraphSpec::require_double(std::string_view key) const {
  const std::string* value = find(key);
  if (value == nullptr) {
    fail("family '" + family_ + "' requires key '" + std::string(key) + "'");
  }
  return parse_double(*value, key);
}

bool GraphSpec::get_bool(std::string_view key, bool fallback) const {
  const std::string* value = find(key);
  if (value == nullptr) return fallback;
  if (*value == "1" || *value == "true" || *value == "yes") return true;
  if (*value == "0" || *value == "false" || *value == "no") return false;
  fail("value '" + *value + "' for '" + std::string(key) +
       "': not a boolean");
}

}  // namespace cobra::gen
