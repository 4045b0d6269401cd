#include "lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "lint/lexer.hpp"

namespace cobra::lint {

namespace {

[[nodiscard]] std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string current;
  for (const char c : text) {
    if (c == '\n') {
      lines.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  lines.push_back(std::move(current));
  return lines;
}

[[nodiscard]] std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

/// One parsed `cobra-lint: allow(...)` annotation.
struct Annotation {
  std::vector<std::string> rules;
  bool has_reason = false;
  bool malformed = false;  ///< marker present but the allow list unparsable
};

/// Parse the annotation out of one line's comment text (empty rules when
/// the comment carries no cobra-lint marker).
[[nodiscard]] Annotation parse_annotation(const std::string& comment) {
  Annotation ann;
  const std::size_t marker = comment.find("cobra-lint:");
  if (marker == std::string::npos) return ann;
  const std::size_t allow = comment.find("allow", marker);
  if (allow == std::string::npos) {
    ann.malformed = true;
    return ann;
  }
  const std::size_t open = comment.find('(', allow);
  const std::size_t close =
      open == std::string::npos ? std::string::npos : comment.find(')', open);
  if (close == std::string::npos) {
    ann.malformed = true;
    return ann;
  }
  std::string inside = comment.substr(open + 1, close - open - 1);
  std::size_t start = 0;
  while (start <= inside.size()) {
    std::size_t comma = inside.find(',', start);
    if (comma == std::string::npos) comma = inside.size();
    const std::string rule = trim(inside.substr(start, comma - start));
    if (!rule.empty()) ann.rules.push_back(rule);
    start = comma + 1;
  }
  if (ann.rules.empty()) {
    ann.malformed = true;
    return ann;
  }
  ann.has_reason = !trim(comment.substr(close + 1)).empty();
  return ann;
}

/// True when annotation rule `ann` covers finding rule `rule` — exact id
/// or family prefix ("D2" covers "D2-unordered").
[[nodiscard]] bool rule_covered(const std::string& ann,
                                const std::string& rule) {
  if (ann == rule) return true;
  return rule.size() > ann.size() && rule.compare(0, ann.size(), ann) == 0 &&
         rule[ann.size()] == '-';
}

[[nodiscard]] bool blank_code(const std::string& code_line) {
  return trim(code_line).empty();
}

[[nodiscard]] std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void render_one(std::ostringstream& os, const Finding& f) {
  os << "    {\"file\": \"" << json_escape(f.file) << "\", \"line\": "
     << f.line << ", \"rule\": \"" << json_escape(f.rule)
     << "\", \"severity\": \"" << json_escape(f.severity)
     << "\", \"message\": \"" << json_escape(f.message)
     << "\", \"snippet\": \"" << json_escape(f.snippet) << "\"}";
}

}  // namespace

std::vector<Finding> lint_text(const std::string& rel_path,
                               const std::string& text) {
  const std::vector<std::string> raw = split_lines(text);
  const LexedFile lexed = lex(text);
  std::vector<Finding> findings =
      run_rules(FileInfo{rel_path}, raw, lexed);

  // Parse annotations per line; a malformed or reason-less allow() is
  // itself a finding, so a suppression can never silently rot.
  std::vector<Annotation> anns(lexed.line_count());
  for (std::size_t i = 0; i < lexed.line_count(); ++i) {
    anns[i] = parse_annotation(lexed.comment[i]);
    if (anns[i].malformed) {
      Finding f;
      f.file = rel_path;
      f.line = static_cast<std::uint32_t>(i + 1);
      f.rule = "lint-annotation";
      f.message = "cobra-lint marker without a parsable allow(RULE[,...])";
      f.snippet = trim(raw[i]);
      findings.push_back(std::move(f));
    } else if (!anns[i].rules.empty() && !anns[i].has_reason) {
      Finding f;
      f.file = rel_path;
      f.line = static_cast<std::uint32_t>(i + 1);
      f.rule = "lint-annotation";
      f.message = "allow() without a justification — say why the site is ok";
      f.snippet = trim(raw[i]);
      findings.push_back(std::move(f));
    }
  }

  // A well-formed annotation suppresses matching findings on its own
  // line; a standalone comment BLOCK (consecutive code-free lines)
  // directly above a code line also covers it, so a justification too
  // long for one line stays one annotation.
  auto suppressed = [&](const Finding& f) {
    if (f.rule == "lint-annotation") return false;
    const std::size_t idx = f.line - 1;
    auto covers = [&](std::size_t a) {
      if (a >= anns.size() || anns[a].malformed || !anns[a].has_reason) {
        return false;
      }
      return std::any_of(anns[a].rules.begin(), anns[a].rules.end(),
                         [&](const std::string& r) {
                           return rule_covered(r, f.rule);
                         });
    };
    if (covers(idx)) return true;
    for (std::size_t a = idx; a >= 1 && blank_code(lexed.code[a - 1]); --a) {
      if (covers(a - 1)) return true;
    }
    return false;
  };
  std::erase_if(findings, suppressed);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

std::vector<Finding> lint_tree(const std::string& repo_root,
                               const std::vector<std::string>& roots) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const std::string& root : roots) {
    const fs::path base = fs::path(repo_root) / root;
    if (!fs::exists(base)) {
      throw std::runtime_error("lint root missing: " + base.string());
    }
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".hpp" && ext != ".cpp" && ext != ".h" && ext != ".cc") {
        continue;
      }
      files.push_back(
          fs::relative(entry.path(), repo_root).generic_string());
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<Finding> all;
  for (const std::string& rel : files) {
    std::ifstream in(fs::path(repo_root) / rel, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read " + rel);
    std::ostringstream os;
    os << in.rdbuf();
    std::vector<Finding> found = lint_text(rel, os.str());
    all.insert(all.end(), std::make_move_iterator(found.begin()),
               std::make_move_iterator(found.end()));
  }
  return all;
}

std::string render_findings_json(const std::vector<Finding>& findings) {
  std::ostringstream os;
  os << "{\n  \"findings\": [\n";
  bool first = true;
  for (const Finding& f : findings) {
    if (!first) os << ",\n";
    first = false;
    render_one(os, f);
  }
  os << "\n  ],\n  \"fresh\": " << findings.size() << "\n}\n";
  return os.str();
}

std::string render_findings_table(const std::vector<Finding>& findings) {
  std::ostringstream os;
  for (const Finding& f : findings) {
    os << f.file << ":" << f.line << "  [" << f.rule << "] " << f.message
       << "\n        " << f.snippet << "\n";
  }
  os << findings.size() << " finding(s)\n";
  return os.str();
}

}  // namespace cobra::lint
