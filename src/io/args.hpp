#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// \file args.hpp
/// A tiny `--flag=value` / `--flag value` command-line parser for the
/// examples and benches. Deliberately minimal: flags are strings, values
/// are parsed on demand with typed getters and defaults, unknown flags are
/// an error (catches typos in experiment scripts).

namespace cobra::io {

class Args {
 public:
  /// Parse argv. `allowed` lists the permitted flag names (without the
  /// leading dashes); an empty list disables the check. Throws
  /// std::invalid_argument on malformed or unknown flags.
  Args(int argc, const char* const* argv,
       const std::vector<std::string>& allowed = {});

  [[nodiscard]] bool has(const std::string& name) const;

  /// Typed getters with defaults. Throw std::invalid_argument when the
  /// value cannot be parsed as the requested type.
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] std::uint64_t get_uint(const std::string& name,
                                       std::uint64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non-flag) arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace cobra::io
