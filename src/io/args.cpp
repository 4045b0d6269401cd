#include "io/args.hpp"

#include <algorithm>
#include <stdexcept>

namespace cobra::io {

namespace {

bool parse_bool(const std::string& text) {
  if (text == "1" || text == "true" || text == "yes" || text == "on") return true;
  if (text == "0" || text == "false" || text == "no" || text == "off") return false;
  throw std::invalid_argument("Args: not a boolean: " + text);
}

}  // namespace

Args::Args(int argc, const char* const* argv,
           const std::vector<std::string>& allowed) {
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      positional_.push_back(token);
      continue;
    }
    std::string name = token.substr(2);
    std::string value;
    const auto eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    } else {
      value = "true";  // bare flag
    }
    if (name.empty()) throw std::invalid_argument("Args: empty flag name");
    if (!allowed.empty() &&
        std::find(allowed.begin(), allowed.end(), name) == allowed.end()) {
      throw std::invalid_argument("Args: unknown flag --" + name);
    }
    flags_[name] = value;
  }
}

bool Args::has(const std::string& name) const { return flags_.contains(name); }

std::string Args::get(const std::string& name, const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::uint64_t Args::get_uint(const std::string& name, std::uint64_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  // stoull would wrap "-1" to 2^64 - 1: reject a sign before parsing.
  const std::size_t first = it->second.find_first_not_of(" \t");
  if (first != std::string::npos && it->second[first] == '-') {
    throw std::invalid_argument("Args: --" + name + " must be non-negative");
  }
  try {
    std::size_t used = 0;
    const std::uint64_t value = std::stoull(it->second, &used);
    if (used != it->second.size()) throw std::invalid_argument("trailing junk");
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("Args: --" + name + " is not an integer: " +
                                it->second);
  }
}

double Args::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  try {
    std::size_t used = 0;
    const double value = std::stod(it->second, &used);
    if (used != it->second.size()) throw std::invalid_argument("trailing junk");
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("Args: --" + name + " is not a number: " +
                                it->second);
  }
}

bool Args::get_bool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : parse_bool(it->second);
}

}  // namespace cobra::io
