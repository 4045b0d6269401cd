#include "lint/rules.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <map>
#include <string>
#include <string_view>

namespace cobra::lint {

namespace {

[[nodiscard]] bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// The code view joined with newlines, so call arguments spanning lines
/// scan as one string, plus the offset table mapping positions back to
/// 1-based source lines.
struct FlatCode {
  std::string text;
  std::vector<std::size_t> line_start;  ///< text offset of each 0-based line

  explicit FlatCode(const LexedFile& lexed) {
    for (const std::string& line : lexed.code) {
      line_start.push_back(text.size());
      text += line;
      text += '\n';
    }
  }

  [[nodiscard]] std::uint32_t line_of(std::size_t pos) const {
    const auto it =
        std::upper_bound(line_start.begin(), line_start.end(), pos);
    return static_cast<std::uint32_t>(it - line_start.begin());
  }
};

/// Path split: "src/core/foo.hpp" -> top "src", module "core". A file
/// directly in bench/ or tools/ has its top as the module ("bench").
struct PathParts {
  std::string top;
  std::string module;
};

[[nodiscard]] PathParts split_path(const std::string& rel_path) {
  PathParts parts;
  const std::size_t first = rel_path.find('/');
  if (first == std::string::npos) return parts;
  parts.top = rel_path.substr(0, first);
  if (parts.top == "src") {
    const std::size_t second = rel_path.find('/', first + 1);
    if (second != std::string::npos) {
      parts.module = rel_path.substr(first + 1, second - first - 1);
    }
  } else {
    parts.module = parts.top;
  }
  return parts;
}

[[nodiscard]] std::string trimmed(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

/// Skip whitespace (incl. newlines) in the flat code view.
[[nodiscard]] std::size_t skip_space(const std::string& text,
                                     std::size_t pos) {
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
    ++pos;
  }
  return pos;
}

/// The balanced (...) or {...} argument text starting at the opener at
/// `open`; empty optional-ish "" + ok=false when unbalanced to EOF.
struct Balanced {
  std::string args;
  bool ok = false;
  std::size_t end = 0;  ///< position just past the closer
};

[[nodiscard]] Balanced balanced_args(const std::string& text,
                                     std::size_t open) {
  Balanced out;
  if (open >= text.size()) return out;
  const char opener = text[open];
  const char closer = opener == '(' ? ')' : '}';
  if (opener != '(' && opener != '{') return out;
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    const char c = text[i];
    if (c == opener) {
      ++depth;
      if (depth == 1) continue;
    } else if (c == closer) {
      --depth;
      if (depth == 0) {
        out.ok = true;
        out.end = i + 1;
        return out;
      }
    }
    if (depth >= 1) out.args += c;
  }
  return out;
}

[[nodiscard]] bool contains_word(const std::string& text,
                                 const std::string& word) {
  return find_word(text, word) != std::string::npos;
}

/// True when the word at `pos` is used as a call: next non-space char is
/// an opening paren.
[[nodiscard]] bool is_call(const std::string& text, std::size_t word_end) {
  const std::size_t next = skip_space(text, word_end);
  return next < text.size() && text[next] == '(';
}

class RuleRunner {
 public:
  RuleRunner(const FileInfo& info, const std::vector<std::string>& raw_lines,
             const LexedFile& lexed)
      : info_(info),
        raw_(raw_lines),
        flat_(lexed),
        parts_(split_path(info.rel_path)) {}

  [[nodiscard]] std::vector<Finding> run() {
    rule_rand();
    rule_random_device();
    rule_clock();
    rule_thread_id();
    rule_unordered();
    rule_rng_seed();
    rule_thread_key();
    rule_atomic_order();
    rule_layering();
    std::sort(findings_.begin(), findings_.end(),
              [](const Finding& a, const Finding& b) {
                if (a.line != b.line) return a.line < b.line;
                return a.rule < b.rule;
              });
    return std::move(findings_);
  }

 private:
  void add(std::size_t pos, const std::string& rule,
           const std::string& message) {
    add_line(flat_.line_of(pos), rule, message);
  }

  void add_line(std::uint32_t line, const std::string& rule,
                const std::string& message) {
    Finding f;
    f.file = info_.rel_path;
    f.line = line;
    f.rule = rule;
    f.message = message;
    if (line >= 1 && line <= raw_.size()) f.snippet = trimmed(raw_[line - 1]);
    findings_.push_back(std::move(f));
  }

  void for_each_word(const std::string& word, auto&& fn) {
    for (std::size_t pos = find_word(flat_.text, word);
         pos != std::string::npos;
         pos = find_word(flat_.text, word, pos + 1)) {
      fn(pos);
    }
  }

  [[nodiscard]] bool in_src() const { return parts_.top == "src"; }
  [[nodiscard]] bool in_module(std::string_view m) const {
    return in_src() && parts_.module == m;
  }

  // D1-rand: the C RNG family is banned outright, everywhere — a seedable
  // global stream can never honor the (plan, seed) purity contract.
  void rule_rand() {
    for (const char* word : {"rand", "srand", "rand_r", "random_shuffle"}) {
      for_each_word(word, [&](std::size_t pos) {
        if (!is_call(flat_.text, pos + std::string_view(word).size())) return;
        add(pos, "D1-rand",
            std::string(word) + "() draws from process-global hidden state");
      });
    }
  }

  // D1-random-device: hardware entropy is the root-seed provider's
  // business (src/rng); anywhere else it injects nondeterminism.
  void rule_random_device() {
    if (in_module("rng")) return;
    for_each_word("random_device", [&](std::size_t pos) {
      add(pos, "D1-random-device",
          "std::random_device outside src/rng breaks (plan, seed) purity");
    });
  }

  // D1-clock: system_clock/time()/clock() are nondeterministic DATA and
  // are flagged everywhere under src/; monotonic clocks are legitimate
  // TIMING in src/obs and in bench/tools measurement code only.
  void rule_clock() {
    if (!in_src() && parts_.top != "bench" && parts_.top != "tools") return;
    for (const char* word : {"system_clock", "gettimeofday", "localtime",
                             "gmtime", "mktime", "ctime"}) {
      for_each_word(word, [&](std::size_t pos) {
        add(pos, "D1-clock",
            std::string(word) + " reads the wall clock (nondeterministic)");
      });
    }
    for (const char* word : {"time", "clock"}) {
      for_each_word(word, [&](std::size_t pos) {
        if (!is_call(flat_.text, pos + std::string_view(word).size())) return;
        add(pos, "D1-clock",
            std::string(word) + "() reads the wall clock (nondeterministic)");
      });
    }
    if (in_src() && !in_module("obs")) {
      for (const char* word : {"steady_clock", "high_resolution_clock"}) {
        for_each_word(word, [&](std::size_t pos) {
          add(pos, "D1-clock",
              std::string(word) +
                  " outside src/obs — timing belongs to the obs layer");
        });
      }
    }
  }

  // D1-thread-id: a thread id reaching any computation makes the result a
  // function of the scheduler, which is the exact failure mode the
  // bit-identical-across-thread-counts tests exist to catch.
  void rule_thread_id() {
    for_each_word("get_id", [&](std::size_t pos) {
      add(pos, "D1-thread-id",
          "this_thread::get_id() is scheduler-dependent data");
    });
    for_each_word("thread", [&](std::size_t pos) {
      const std::size_t after = pos + 6;
      if (flat_.text.compare(after, 4, "::id") != 0) return;
      if (after + 4 < flat_.text.size() && ident_char(flat_.text[after + 4])) {
        return;
      }
      add(pos, "D1-thread-id", "std::thread::id is scheduler-dependent data");
    });
  }

  // D2-unordered: hash-container iteration order is load-factor and
  // implementation dependent; one order-dependent use feeding output
  // breaks cross-host reproducibility. Membership-only sites annotate.
  void rule_unordered() {
    if (!in_src()) return;
    for (const char* word :
         {"unordered_map", "unordered_set", "unordered_multimap",
          "unordered_multiset"}) {
      for_each_word(word, [&](std::size_t pos) {
        // The #include line is not the hazard — the use sites are, and
        // each of those is flagged (and individually annotatable).
        const std::uint32_t line = flat_.line_of(pos);
        if (line >= 1 && line <= raw_.size() &&
            trimmed(raw_[line - 1]).compare(0, 8, "#include") == 0) {
          return;
        }
        add(pos, "D2-unordered",
            std::string("std::") + word +
                " iteration order is not deterministic");
      });
    }
  }

  // D3-rng-seed: every per-chunk/per-round stream in src/core must be
  // keyed through rng::derive_seed, or two call sites can correlate.
  void rule_rng_seed() {
    if (!in_module("core")) return;
    for (const char* word : {"Engine", "Xoshiro256"}) {
      for_each_word(word, [&](std::size_t pos) {
        std::size_t next = skip_space(flat_.text, pos + std::string_view(word).size());
        if (next >= flat_.text.size()) return;
        // `Engine name(args)` / `Engine name{args}` declarations: hop over
        // one identifier to the initializer.
        if (ident_char(flat_.text[next])) {
          std::size_t e = next;
          while (e < flat_.text.size() && ident_char(flat_.text[e])) ++e;
          next = skip_space(flat_.text, e);
        }
        if (next >= flat_.text.size()) return;
        const char c = flat_.text[next];
        if (c != '(' && c != '{') return;  // reference/alias/template use
        const Balanced args = balanced_args(flat_.text, next);
        if (!args.ok || trimmed(args.args).empty()) return;
        // A forwarded engine (`Engine(gen)`-style copy) or a reference
        // parameter list is not a seed construction; only flag argument
        // lists that look like seed material without derive_seed.
        if (contains_word(args.args, "derive_seed")) return;
        if (contains_word(args.args, "Engine") ||
            contains_word(args.args, "gen")) {
          return;  // copy/move of an existing stream
        }
        // A lone identifier naming a generator (gen, parent_gen, rng_) is
        // also a copy, not seed material.
        const std::string t = trimmed(args.args);
        if (!t.empty() &&
            std::all_of(t.begin(), t.end(),
                        [](char ch) { return ident_char(ch); }) &&
            (t.find("gen") != std::string::npos ||
             t.find("rng") != std::string::npos)) {
          return;
        }
        add(pos, "D3-rng-seed",
            std::string(word) +
                " constructed without derive_seed — streams may correlate");
      });
    }
  }

  // D3-thread-key: derive_seed keys must identify WORK (chunk, round,
  // vertex), never the WORKER that happened to execute it.
  void rule_thread_key() {
    if (!in_src()) return;
    for_each_word("derive_seed", [&](std::size_t pos) {
      const std::size_t open = skip_space(flat_.text, pos + 11);
      if (open >= flat_.text.size() || flat_.text[open] != '(') return;
      const Balanced args = balanced_args(flat_.text, open);
      if (!args.ok) return;
      for (const char* bad :
           {"worker", "worker_id", "worker_index", "thread_id",
            "thread_index", "thread_rank", "tid", "get_id"}) {
        if (contains_word(args.args, bad)) {
          add(pos, "D3-thread-key",
              std::string("derive_seed keyed by '") + bad +
                  "' — schedules must not depend on which thread ran");
          return;
        }
      }
    });
  }

  // D4-atomic-order: seq_cst-by-default either hides a needed ordering
  // decision or pays for fences a hot path cannot afford; both are bugs
  // worth a compile-time nudge.
  void rule_atomic_order() {
    if (!in_src()) return;
    for (const char* word : {"load", "store", "fetch_add", "fetch_sub",
                             "fetch_or", "fetch_and", "fetch_xor",
                             "exchange"}) {
      for_each_word(word, [&](std::size_t pos) {
        // Member access only: `.load(` / `->load(`.
        if (pos == 0) return;
        const char prev = flat_.text[pos - 1];
        if (prev != '.' &&
            !(prev == '>' && pos >= 2 && flat_.text[pos - 2] == '-')) {
          return;
        }
        const std::size_t open =
            skip_space(flat_.text, pos + std::string_view(word).size());
        if (open >= flat_.text.size() || flat_.text[open] != '(') return;
        const Balanced args = balanced_args(flat_.text, open);
        if (!args.ok) return;
        // Substring, not word: the argument is memory_order_relaxed /
        // std::memory_order::acquire / a local alias containing the name.
        if (args.args.find("memory_order") != std::string::npos) return;
        add(pos, "D4-atomic-order",
            std::string(".") + word +
                "() without an explicit std::memory_order");
      });
    }
  }

  // D5-layering: includes may only point down the README layer diagram.
  void rule_layering() {
    const int own = layer_tier(info_.rel_path);
    if (own < 0) return;
    for (std::size_t i = 0; i < raw_.size(); ++i) {
      const std::string line = trimmed(raw_[i]);
      if (line.empty() || line[0] != '#') continue;
      std::size_t p = 1;
      while (p < line.size() &&
             std::isspace(static_cast<unsigned char>(line[p])) != 0) {
        ++p;
      }
      if (line.compare(p, 7, "include") != 0) continue;
      const std::size_t q1 = line.find('"', p + 7);
      if (q1 == std::string::npos) continue;  // <system> include
      const std::size_t q2 = line.find('"', q1 + 1);
      if (q2 == std::string::npos) continue;
      const std::string target = line.substr(q1 + 1, q2 - q1 - 1);
      if (target.find('/') == std::string::npos) continue;  // same-dir
      // Quoted project includes resolve against src/ (the one include
      // root) except inside bench/, where "gate.hpp"-style same-dir
      // includes were already skipped above.
      const int target_tier = layer_tier("src/" + target);
      if (target_tier < 0) continue;
      if (target_tier > own) {
        add_line(static_cast<std::uint32_t>(i + 1), "D5-layering",
                 "include of '" + target +
                     "' climbs the layer diagram (see README Layout)");
      }
    }
  }

  const FileInfo& info_;
  const std::vector<std::string>& raw_;
  FlatCode flat_;
  PathParts parts_;
  std::vector<Finding> findings_;
};

}  // namespace

int layer_tier(const std::string& rel_path) {
  static const std::map<std::string, int, std::less<>> kTier = {
      {"util", 0},  {"rng", 0},      {"obs", 0},  {"numeric", 0},
      {"parallel", 1}, {"stats", 1}, {"graph", 2}, {"gen", 2},
      {"io", 3},    {"core", 4},     {"sim", 5},  {"bench", 6},
      {"tools", 7},
  };
  const PathParts parts = split_path(rel_path);
  const auto it = kTier.find(parts.module);
  return it == kTier.end() ? -1 : it->second;
}

std::vector<Finding> run_rules(const FileInfo& info,
                               const std::vector<std::string>& raw_lines,
                               const LexedFile& lexed) {
  return RuleRunner(info, raw_lines, lexed).run();
}

}  // namespace cobra::lint
