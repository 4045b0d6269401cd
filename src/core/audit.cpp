#include "core/audit.hpp"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace cobra::core::audit {

namespace detail {
std::atomic<int> armed_level{0};
std::atomic<bool> throw_on_violation{false};
}  // namespace detail

void set_level(int level) noexcept {
  if (level < 0) level = 0;
  if (level > 2) level = 2;
  detail::armed_level.store(level, std::memory_order_relaxed);
}

int arm_from_env() {
  const char* env = std::getenv("COBRA_AUDIT");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const long value = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || value < 0 || value > 2) {
    std::fprintf(stderr,
                 "[audit] WARNING: ignoring malformed COBRA_AUDIT '%s' "
                 "(want 0, 1, or 2)\n",
                 env);
    return 0;
  }
  set_level(static_cast<int>(value));
  return static_cast<int>(value);
}

bool sample_round(std::uint64_t seq) noexcept {
  // Level 1 samples 1-in-16 starting with the first round (so short runs
  // still audit something); level 2 audits every round.
  const int lvl = level();
  if (lvl >= 2) return true;
  if (lvl == 1) return (seq & 0xF) == 0;
  return false;
}

void set_throw_on_violation(bool enable) noexcept {
  detail::throw_on_violation.store(enable, std::memory_order_relaxed);
}

bool check_canonical_list(std::span<const graph::Vertex> list,
                          std::size_t n_vertices, std::string* why) {
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (static_cast<std::size_t>(list[i]) >= n_vertices) {
      if (why != nullptr) {
        *why = "vertex " + std::to_string(list[i]) + " at index " +
               std::to_string(i) + " outside [0, " +
               std::to_string(n_vertices) + ")";
      }
      return false;
    }
    if (i > 0 && list[i - 1] >= list[i]) {
      if (why != nullptr) {
        *why = (list[i - 1] == list[i] ? "duplicate vertex "
                                       : "order violation at vertex ") +
               std::to_string(list[i]) + " (index " + std::to_string(i) +
               "): list not strictly ascending";
      }
      return false;
    }
  }
  return true;
}

bool check_bitmap(std::span<const std::uint64_t> words, std::size_t count,
                  std::size_t n_vertices, std::string* why) {
  const std::size_t want_words = (n_vertices + 63) / 64;
  if (words.size() != want_words) {
    if (why != nullptr) {
      *why = "bitmap has " + std::to_string(words.size()) + " words, want " +
             std::to_string(want_words) + " for n = " +
             std::to_string(n_vertices);
    }
    return false;
  }
  std::size_t popcount = 0;
  for (const std::uint64_t word : words) {
    popcount += static_cast<std::size_t>(std::popcount(word));
  }
  if (popcount != count) {
    if (why != nullptr) {
      *why = "bitmap popcount " + std::to_string(popcount) +
             " != frontier count " + std::to_string(count);
    }
    return false;
  }
  const std::size_t tail_bits = n_vertices % 64;
  if (tail_bits != 0 && !words.empty() &&
      (words.back() >> tail_bits) != 0) {
    if (why != nullptr) {
      *why = "bitmap has bits set beyond vertex " +
             std::to_string(n_vertices - 1) + " in the tail word";
    }
    return false;
  }
  return true;
}

void report_violation(const char* check, const std::string& why) {
  obs::registry().counter("audit.violations").add(1);
  if (detail::throw_on_violation.load(std::memory_order_relaxed)) {
    throw std::logic_error("audit violation [" + std::string(check) +
                           "]: " + why);
  }
  // Structured, greppable, and fatal: a broken frontier invariant means
  // the process's statistics are already garbage.
  std::fprintf(stderr,
               "[audit] INVARIANT VIOLATION\n"
               "[audit]   check: %s\n"
               "[audit]   detail: %s\n"
               "[audit] aborting (COBRA_AUDIT armed; violations are fatal)\n",
               check, why.c_str());
  std::abort();
}

}  // namespace cobra::core::audit
