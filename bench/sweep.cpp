#include "sweep.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#ifdef __unix__
#include <sys/wait.h>
#endif

#include "harness.hpp"
#include "util/fault.hpp"

namespace cobra::bench {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// A comma segment starts a new spec when it names a family: "rreg:n=128"
/// (has ':') or a bare "complete" (no '='); "d=4" continues the previous
/// spec.
bool starts_new_spec(const std::string& segment) {
  return segment.find(':') != std::string::npos ||
         segment.find('=') == std::string::npos;
}

/// JsonReporter's RFC 8259 escaping — one implementation for every string
/// this library embeds in JSON.
std::string quote(const std::string& s) { return JsonReporter::quote(s); }

/// Re-indent a child JSON document by `indent` spaces (skipping the first
/// line, which lands after "result": ).
std::string indent_json(const std::string& text, const std::string& indent) {
  std::string out;
  out.reserve(text.size());
  bool first = true;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (!first) out += "\n" + indent;
    out += line;
    first = false;
  }
  return out;
}

}  // namespace

std::vector<std::string> split_spec_list(const std::string& text) {
  std::vector<std::string> specs;
  std::string current;
  const auto flush = [&] {
    const std::string spec = trim(current);
    if (!spec.empty()) specs.push_back(spec);
    current.clear();
  };
  std::string segment;
  const auto handle_segment = [&] {
    const std::string seg = trim(segment);
    segment.clear();
    if (seg.empty()) return;
    if (!current.empty() && starts_new_spec(seg)) flush();
    if (!current.empty()) current += ',';
    current += seg;
  };
  for (const char c : text) {
    if (c == ';') {
      handle_segment();
      flush();
    } else if (c == ',') {
      handle_segment();
    } else {
      segment += c;
    }
  }
  handle_segment();
  flush();
  return specs;
}

std::vector<std::size_t> split_uint_list(const std::string& text) {
  std::vector<std::size_t> values;
  std::string token;
  const auto flush = [&] {
    const std::string t = trim(token);
    token.clear();
    if (t.empty()) return;
    std::size_t consumed = 0;
    unsigned long long value = 0;
    try {
      value = std::stoull(t, &consumed);
    } catch (const std::exception&) {
      throw std::invalid_argument("sweep: bad count '" + t + "' in list");
    }
    if (consumed != t.size()) {
      throw std::invalid_argument("sweep: bad count '" + t + "' in list");
    }
    values.push_back(static_cast<std::size_t>(value));
  };
  for (const char c : text) {
    if (c == ',' || c == ';') {
      flush();
    } else {
      token += c;
    }
  }
  flush();
  if (values.empty()) {
    throw std::invalid_argument("sweep: empty count list");
  }
  return values;
}

namespace {

/// std::system returns a wait(2) status on POSIX, not the exit code;
/// decode it so "exit 86" means the child's actual _Exit(86) and a signal
/// death reads as the conventional 128+sig.
int decode_wait_status(int rc) {
#ifdef __unix__
  if (WIFEXITED(rc)) return WEXITSTATUS(rc);
  if (WIFSIGNALED(rc)) return 128 + WTERMSIG(rc);
  return rc;
#else
  return rc;
#endif
}

}  // namespace

int spawn_child(const std::string& cmd) {
  if (util::fault::should_fail("sweep.child_spawn")) return 127;
  return decode_wait_status(std::system(cmd.c_str()));
}

bool looks_like_bench_json(const std::string& text) {
  const std::string body = trim(text);
  if (body.empty() || body.front() != '{' || body.back() != '}') return false;
  if (body.find("\"benchmark\"") == std::string::npos ||
      body.find("\"records\"") == std::string::npos) {
    return false;
  }
  // Structural balance outside strings: a truncated child file usually
  // still ends at SOME closing brace (the last complete record), so the
  // depth must return to zero at the final byte and at no earlier one.
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (std::size_t i = 0; i < body.size(); ++i) {
    const char c = body[i];
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
      if (depth == 0 && i + 1 != body.size()) return false;
    }
  }
  return depth == 0 && !in_string;
}

std::string merge_sweep_json(
    const std::vector<SweepRun>& runs, const std::vector<FailedRun>& failed,
    std::size_t expected_runs,
    const std::vector<std::pair<std::string, std::string>>& context) {
  std::ostringstream os;
  os << "{\n  \"sweep\": \"cobra_sweep\",\n  \"context\": {\n"
     << "    \"expected_runs\": " << expected_runs;
  for (const auto& [key, value] : context) {
    os << ",\n    " << quote(key) << ": " << quote(value);
  }
  os << "\n  },\n  \"runs\": [";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const SweepRun& run = runs[i];
    os << (i == 0 ? "\n" : ",\n") << "    { \"sweep_run_id\": " << i
       << ", \"bench\": " << quote(run.bench)
       << ", \"spec\": " << quote(run.spec) << ", \"threads\": " << run.threads
       << ",\n      \"result\": " << indent_json(run.json_text, "      ");
    // Metrics ride after "result" as a sibling key; counting and
    // validation look only at the id keys, so it changes neither.
    if (!run.metrics_json.empty()) {
      os << ",\n      \"metrics\": " << indent_json(run.metrics_json, "      ");
    }
    os << " }";
  }
  os << "\n  ]";
  if (!failed.empty()) {
    os << ",\n  \"failed_runs\": [";
    for (std::size_t i = 0; i < failed.size(); ++i) {
      const FailedRun& f = failed[i];
      os << (i == 0 ? "\n" : ",\n") << "    { \"failed_run_id\": " << i
         << ", \"bench\": " << quote(f.bench) << ", \"spec\": " << quote(f.spec)
         << ", \"threads\": " << f.threads << ", \"attempts\": " << f.attempts
         << ", \"reason\": " << quote(f.reason) << " }";
    }
    os << "\n  ]";
  }
  os << "\n}\n";
  return os.str();
}

namespace {

std::size_t count_key(const std::string& text, const std::string& key) {
  std::size_t count = 0;
  std::size_t pos = 0;
  while ((pos = text.find(key, pos)) != std::string::npos) {
    ++count;
    pos += key.size();
  }
  return count;
}

/// Decode the JSON string starting at the opening quote `pos`; advances
/// `pos` past the closing quote. Understands JsonReporter's escapes
/// (\" \\ and \u00XX control characters).
std::string json_unquote(const std::string& text, std::size_t& pos) {
  if (pos >= text.size() || text[pos] != '"') {
    throw std::invalid_argument("sweep: expected '\"' in JSON");
  }
  std::string out;
  ++pos;
  while (pos < text.size()) {
    const char c = text[pos];
    if (c == '"') {
      ++pos;
      return out;
    }
    if (c == '\\') {
      if (pos + 1 >= text.size()) break;
      const char esc = text[pos + 1];
      if (esc == 'u') {
        if (pos + 5 >= text.size()) break;
        const std::string hex = text.substr(pos + 2, 4);
        out += static_cast<char>(std::stoi(hex, nullptr, 16));
        pos += 6;
      } else {
        out += esc == 'n' ? '\n' : esc == 't' ? '\t' : esc;
        pos += 2;
      }
      continue;
    }
    out += c;
    ++pos;
  }
  throw std::invalid_argument("sweep: unterminated JSON string");
}

}  // namespace

std::size_t count_merged_runs(const std::string& merged_text) {
  return count_key(merged_text, "\"sweep_run_id\"");
}

std::size_t count_failed_runs(const std::string& merged_text) {
  return count_key(merged_text, "\"failed_run_id\"");
}

std::vector<std::string> distinct_context_values(const std::string& merged_text,
                                                 const std::string& key) {
  std::vector<std::string> values;
  const std::string needle = "\"" + key + "\":";
  std::size_t pos = 0;
  while ((pos = merged_text.find(needle, pos)) != std::string::npos) {
    std::size_t at = pos + needle.size();
    pos = at;
    while (at < merged_text.size() && merged_text[at] == ' ') ++at;
    if (at >= merged_text.size()) break;
    std::string value;
    if (merged_text[at] == '"') {
      try {
        value = json_unquote(merged_text, at);
      } catch (const std::invalid_argument&) {
        continue;  // malformed occurrence; skip, don't abort the scan
      }
    } else {
      // Number/bare literal: runs to the next JSON delimiter.
      std::size_t end = merged_text.find_first_of(",}\n]", at);
      if (end == std::string::npos) end = merged_text.size();
      value = trim(merged_text.substr(at, end - at));
      if (value.empty()) continue;
    }
    if (std::find(values.begin(), values.end(), value) == values.end()) {
      values.push_back(value);
    }
  }
  std::sort(values.begin(), values.end());
  return values;
}

std::size_t expected_runs_of(const std::string& merged_text) {
  const std::string key = "\"expected_runs\": ";
  const std::size_t pos = merged_text.find(key);
  if (pos == std::string::npos) return 0;
  try {
    return static_cast<std::size_t>(
        std::stoull(merged_text.substr(pos + key.size())));
  } catch (const std::exception&) {
    return 0;
  }
}

bool validate_merged_sweep(const std::string& merged_text, std::size_t expect,
                           std::string* error) {
  const auto set_error = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  if (merged_text.find("\"sweep\": \"cobra_sweep\"") == std::string::npos) {
    return set_error("not a cobra_sweep merged file");
  }
  const std::size_t recorded = expected_runs_of(merged_text);
  const std::size_t want = expect != 0 ? expect : recorded;
  if (want == 0) return set_error("no expected_runs recorded or requested");
  if (expect != 0 && recorded != expect) {
    return set_error("file expected_runs " + std::to_string(recorded) +
                     " != requested " + std::to_string(expect));
  }
  const std::size_t have = count_merged_runs(merged_text);
  const std::size_t quarantined = count_failed_runs(merged_text);
  if (have + quarantined != want) {
    return set_error("merge accounts for " + std::to_string(have) + " runs + " +
                     std::to_string(quarantined) + " failed, expected " +
                     std::to_string(want) + " (dropped runs)");
  }
  return true;
}

}  // namespace cobra::bench
