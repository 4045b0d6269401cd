#include "harness.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "core/audit.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fault.hpp"

namespace cobra::bench {

namespace {

/// Flags every bench accepts, appended to each bench's `extra` list.
const std::vector<std::string>& shared_flags() {
  static const std::vector<std::string> flags = {
      "graph",   "out",   "smoke",
      "threads", "metrics", "trace",
      "fault-plan"};
  return flags;
}

/// The TEST-ONLY bench.crash fault site, checked once at startup after
/// COBRA_FAULT and --fault-plan are armed, so sweep resilience tests drive
/// a REAL bench through a real crash instead of a mock child: the bench
/// dies abruptly (_Exit, no cleanup, no --out written) — a segfault
/// stand-in.
void check_crash_site() {
  if (util::fault::should_fail("bench.crash")) {
    std::cerr << "[bench] injected crash (bench.crash)\n";
    std::_Exit(86);
  }
}

}  // namespace

io::Args parse_bench_args_checked(int argc, const char* const* argv,
                                  std::vector<std::string> extra) {
  for (const auto& flag : shared_flags()) extra.push_back(flag);
  io::Args args(argc, argv, extra);
  if (!args.positional().empty()) {
    // The pre-migration benches took positional [out.json] [n]; silently
    // ignoring those would overwrite recorded baselines in the cwd.
    throw std::invalid_argument("positional argument '" +
                                args.positional().front() +
                                "' not accepted (use --out / --graph)");
  }
  (void)args.get_uint("threads", 0);  // validate eagerly: fail at parse time
  (void)args.get_bool("smoke", false);
  return args;
}

std::string render_caps(const BenchCaps& caps,
                        const std::vector<std::string>& extra) {
  std::string graph;
  switch (caps.graph) {
    case BenchCaps::Graph::Effective: graph = "yes"; break;
    case BenchCaps::Graph::Partial: graph = "partial"; break;
    case BenchCaps::Graph::NoOp: graph = "no"; break;
  }
  std::string flags;
  for (const auto& flag : extra) {
    if (!flags.empty()) flags += ',';
    flags += flag;
  }
  for (const auto& flag : shared_flags()) {
    if (!flags.empty()) flags += ',';
    flags += flag;
  }
  return "bench-caps: graph=" + graph + " flags=" + flags;
}

BenchCaps::Graph parse_caps_graph(const std::string& caps_line) {
  const auto pos = caps_line.find("graph=");
  if (pos == std::string::npos) return BenchCaps::Graph::Effective;
  // Token ends at any whitespace (space, or the line's own newline when
  // graph= is the last token), not just ' '.
  const std::size_t begin = pos + 6;
  std::size_t end = begin;
  while (end < caps_line.size() &&
         !std::isspace(static_cast<unsigned char>(caps_line[end]))) {
    ++end;
  }
  const std::string value = caps_line.substr(begin, end - begin);
  if (value == "no") return BenchCaps::Graph::NoOp;
  if (value == "partial") return BenchCaps::Graph::Partial;
  return BenchCaps::Graph::Effective;
}

io::Args parse_bench_args(int argc, const char* const* argv,
                          std::vector<std::string> extra,
                          const BenchCaps& caps) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--caps") {
      std::cout << render_caps(caps, extra) << "\n";
      std::exit(0);
    }
  }
  try {
    io::Args args = parse_bench_args_checked(argc, argv, extra);
    if (args.has("threads")) {
      const auto n = static_cast<std::size_t>(args.get_uint("threads", 0));
      if (!par::request_global_pool_threads(n)) {
        std::cerr << "[bench] WARNING: --threads ignored; the global pool "
                     "was already created\n";
      }
    }
    util::fault::arm_from_env();  // COBRA_FAULT="site[@after][%p][#k],..."
    core::audit::arm_from_env();  // COBRA_AUDIT=0|1|2 invariant auditing
    // --fault-plan FILE arms a recorded schedule (one spec per line, with
    // seed= lines and # comments) — the replay lever for quarantined sweep
    // cells. Arms ON TOP of any COBRA_FAULT sites; a malformed file is a
    // hard parse error, unlike the env var's skip-and-warn.
    if (args.has("fault-plan")) {
      util::fault::arm_plan_file(args.get("fault-plan", ""));
    }
    // Arm the per-round trace sink before any measurement: the engine's
    // expand() gates on obs::trace_enabled(), so opening the file here is
    // all a bench needs to start streaming rounds.
    if (args.has("trace")) {
      obs::open_global_trace(args.get("trace", ""));
    }
    check_crash_site();
    return args;
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\nflags: ";
    for (const auto& flag : extra) std::cerr << "--" << flag << " ";
    for (const auto& flag : shared_flags()) std::cerr << "--" << flag << " ";
    std::cerr << "\ngraph specs:\n" << gen::grammar_help();
    std::exit(1);
  }
}

graph::Graph bench_graph(const io::Args& args,
                         const std::string& fallback_spec) {
  try {
    return io::graph_from_args(args, fallback_spec);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    std::exit(1);
  }
}

std::uint64_t uint_flag(const io::Args& args, const std::string& name,
                        std::uint64_t fallback) {
  try {
    return args.get_uint(name, fallback);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    std::exit(1);
  }
}

// ---------------------------------------------------------------- JSON --

JsonReporter::JsonReporter(std::string benchmark)
    : benchmark_(std::move(benchmark)) {
  // The run manifest: every bench/sweep JSON is stamped with the host and
  // build fingerprint, so "this baseline came from a 1-core Release
  // container at <sha>" is in the record, not in prose.
  const obs::Manifest manifest = obs::current_manifest();
  context("hardware_concurrency",
          static_cast<double>(manifest.hardware_concurrency));
  context("git_sha", manifest.git_sha);
  context("build_type", manifest.build_type);
}

void JsonReporter::context(const std::string& key, const std::string& value) {
  context_.emplace_back(key, quote(value));
}

void JsonReporter::context(const std::string& key, double value) {
  context_.emplace_back(key, number(value));
}

JsonReporter::Record& JsonReporter::Record::field(const std::string& key,
                                                  double value) {
  fields_.emplace_back(key, JsonReporter::number(value));
  return *this;
}

JsonReporter::Record& JsonReporter::Record::field(const std::string& key,
                                                  const std::string& value) {
  fields_.emplace_back(key, JsonReporter::quote(value));
  return *this;
}

JsonReporter::Record& JsonReporter::record(std::string name) {
  records_.push_back(Record(std::move(name)));
  return records_.back();
}

bool JsonReporter::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "[json] ERROR: cannot open " << path << " for writing\n";
    return false;
  }
  out << render();
  out.flush();
  if (!out) {
    std::cerr << "[json] ERROR: write to " << path << " failed\n";
    return false;
  }
  std::cout << "[json] wrote " << path << "\n";
  return true;
}

std::string JsonReporter::render() const {
  std::ostringstream os;
  os << "{\n  \"benchmark\": " << quote(benchmark_) << ",\n  \"context\": {";
  for (std::size_t i = 0; i < context_.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    " << quote(context_[i].first) << ": "
       << context_[i].second;
  }
  os << "\n  },\n  \"records\": [";
  for (std::size_t r = 0; r < records_.size(); ++r) {
    const Record& rec = records_[r];
    os << (r == 0 ? "\n" : ",\n") << "    { \"name\": " << quote(rec.name_);
    for (const auto& [key, value] : rec.fields_) {
      os << ", " << quote(key) << ": " << value;
    }
    os << " }";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

std::string JsonReporter::quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (u < 0x20) {  // RFC 8259: control chars must be escaped
      constexpr char kHex[] = "0123456789abcdef";
      out += "\\u00";
      out += kHex[u >> 4];
      out += kHex[u & 0xf];
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string JsonReporter::number(double value) {
  if (!std::isfinite(value)) return "null";
  std::ostringstream os;
  os.precision(15);
  os << value;
  return os.str();
}

std::string mean_ci(const stats::Summary& s, int precision) {
  return io::Table::fmt(s.mean, precision) + " +- " +
         io::Table::fmt(s.ci95_half, precision);
}

void print_fit(const std::string& label, const stats::PowerLawFit& fit,
               const std::string& expectation) {
  std::cout << label << ": fitted exponent = " << io::Table::fmt(fit.exponent, 3)
            << " +- " << io::Table::fmt(2.0 * fit.exponent_stderr, 3)
            << "  (R^2 = " << io::Table::fmt(fit.r_squared, 4) << ")"
            << "   [" << expectation << "]\n";
}

void print_header(const std::string& experiment_id, const std::string& claim) {
  std::cout << "==================================================================\n"
            << experiment_id << "\n" << claim << "\n"
            << "==================================================================\n";
}

// -------------------------------------------------------------- suites --

std::vector<SuiteCase> resolve_suite(const io::Args& args, bool smoke,
                                     std::vector<SuiteCase> cases) {
  if (args.has(io::kGraphFlag)) {
    const std::string spec = args.get(io::kGraphFlag, "");
    return {SuiteCase{spec, spec, {}}};
  }
  for (auto& c : cases) {
    if (smoke && !c.smoke_spec.empty()) c.spec = c.smoke_spec;
    c.smoke_spec.clear();
  }
  return cases;
}

Harness::Harness(std::string json_name, io::Args args)
    : args_(std::move(args)),
      smoke_(args_.get_bool("smoke", false)),
      json_(std::move(json_name)) {
  if (smoke_) json_.context("smoke", 1.0);
  if (has_graph()) json_.context("graph", args_.get(io::kGraphFlag, ""));
  json_.context("pool_threads", static_cast<double>(par::global_pool().size()));
}

std::uint32_t Harness::trials(std::uint32_t full_default,
                              std::uint32_t smoke_default) const {
  return static_cast<std::uint32_t>(
      uint_flag(args_, "trials", smoke_ ? smoke_default : full_default));
}

std::vector<BuiltCase> Harness::suite(std::vector<SuiteCase> cases) const {
  std::vector<BuiltCase> built;
  for (auto& c : resolve_suite(args_, smoke_, std::move(cases))) {
    try {
      if (has_graph()) {
        // One build per process even when a multi-table bench resolves its
        // suite once per table; a CSR copy is far cheaper than regenerating
        // a large spec graph.
        if (!override_graph_) {
          override_graph_ =
              std::make_shared<const graph::Graph>(gen::build_graph(c.spec));
        }
        built.push_back({std::move(c.name), std::move(c.spec), *override_graph_});
      } else {
        graph::Graph g = gen::build_graph(c.spec);
        built.push_back({std::move(c.name), std::move(c.spec), std::move(g)});
      }
    } catch (const std::invalid_argument& e) {
      std::cerr << e.what() << "\n";
      std::exit(1);
    }
  }
  return built;
}

int Harness::finish() {
  // --metrics: snapshot the global registry (plus the manifest) next to
  // the bench's records; --trace: flush and close the per-round JSONL.
  bool ok = true;
  if (args_.has("metrics")) {
    ok = obs::write_metrics_json(args_.get("metrics", "")) && ok;
  }
  obs::close_global_trace();
  if (args_.has("out")) {
    ok = json_.write(args_.get("out", "")) && ok;
  }
  return ok ? 0 : 1;
}

}  // namespace cobra::bench
