#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// \file spec.hpp
/// The GraphSpec grammar — one string names one graph:
///
///   spec   := family [ ":" pair ( "," pair )* ]
///   pair   := key "=" value
///   family := [A-Za-z_][A-Za-z0-9_]*          (same charset for keys)
///   value  := any characters up to the next "," (never empty)
///
/// Numeric values accept three spellings, so specs read like the paper's
/// parameterizations: plain integers ("1048576"), power-of-two exponents
/// ("2^20"), and scientific notation ("1e6", accepted for integer keys only
/// when integral). Examples:
///
///   "rmat:n=2^20,deg=16,seed=7"
///   "gnp:n=1e6,avg_deg=8"
///   "ws:n=4096,k=6,beta=0.1"
///
/// GraphSpec is the *syntax* layer only: it parses and offers typed
/// getters. Which families exist and which keys each accepts is the
/// registry's job (registry.hpp) — that split keeps "is this a well-formed
/// spec" testable without dragging in every generator.

namespace cobra::gen {

class GraphSpec {
 public:
  /// Parse `text`. Throws std::invalid_argument on an empty family, a pair
  /// without "=", an empty key/value, a bad identifier, or a duplicate key.
  [[nodiscard]] static GraphSpec parse(std::string_view text);

  [[nodiscard]] const std::string& family() const noexcept { return family_; }

  [[nodiscard]] bool has(std::string_view key) const noexcept;

  /// Typed getters. The `get_*` forms return `fallback` when the key is
  /// absent; the `require_*` forms throw std::invalid_argument instead.
  /// All throw std::invalid_argument when the value does not parse.
  [[nodiscard]] std::uint64_t get_uint(std::string_view key,
                                       std::uint64_t fallback) const;
  [[nodiscard]] std::uint64_t require_uint(std::string_view key) const;
  [[nodiscard]] double get_double(std::string_view key, double fallback) const;
  [[nodiscard]] double require_double(std::string_view key) const;
  [[nodiscard]] bool get_bool(std::string_view key, bool fallback) const;

  /// Raw key/value pairs in spec order (registry validation, tests).
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& params()
      const noexcept {
    return params_;
  }

  /// Parse one numeric value under the spec number grammar (exposed so the
  /// grammar itself is unit-testable): "123", "2^20", "1e6", "0.25".
  /// `context` names the key in error messages.
  [[nodiscard]] static std::uint64_t parse_uint(std::string_view value,
                                                std::string_view context);
  [[nodiscard]] static double parse_double(std::string_view value,
                                           std::string_view context);

 private:
  [[nodiscard]] const std::string* find(std::string_view key) const noexcept;

  std::string family_;
  std::vector<std::pair<std::string, std::string>> params_;
};

}  // namespace cobra::gen
