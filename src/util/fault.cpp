#include "util/fault.hpp"

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256.hpp"

namespace cobra::util::fault {

namespace detail {
std::atomic<bool> any_armed{false};
std::atomic<std::uint64_t> round_clock{0};
}  // namespace detail

namespace {

/// FNV-1a over the site name — folds the name into the per-site stream
/// seed so two sites in one plan get independent draw sequences.
std::uint64_t fnv1a64_str(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct Site {
  std::string name;
  std::uint64_t after = 0;
  double prob = 1.0;
  std::uint64_t limit = 0;  // 0 = unlimited
  /// Dedicated probabilistic stream: one draw per eligible hit, consumed
  /// in hit order under the registry lock, so the firing schedule is a
  /// pure function of (spec, seed).
  rng::Xoshiro256 stream;
  /// Hit bookkeeping lives in the metrics registry ("fault.<site>.hits" /
  /// ".fired"), so armed-site activity shows up in --metrics snapshots
  /// for free; Counter::add has the same fetch_add semantics an inline
  /// atomic would, so the after-k arming stays exact. The obs primitives
  /// are functional at every COBRA_OBS_LEVEL — this is semantic counting,
  /// not telemetry.
  obs::Counter* hit_count;
  obs::Counter* fire_count;

  Site(const FaultSpec& spec, std::uint64_t seed)
      : name(spec.site),
        after(spec.after),
        prob(spec.prob),
        limit(spec.limit),
        stream(rng::derive_seed(seed, fnv1a64_str(spec.site))),
        hit_count(&obs::registry().counter("fault." + name + ".hits")),
        fire_count(&obs::registry().counter("fault." + name + ".fired")) {}
};

/// Registry storage. Sites are appended under the lock and never removed
/// while armed (disarm_all clears wholesale), so the lock-free query path
/// only needs a stable snapshot of the deque — which a mutex-guarded
/// read provides; the query takes the lock too, but only AFTER the
/// any_armed gate, i.e. never in a fault-free run.
std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

std::deque<Site>& registry() {
  static std::deque<Site> sites;
  return sites;
}

/// Map one 64-bit draw to a double in [0, 1) — the standard 53-bit ldexp
/// construction, identical to rng/distributions' uniform path.
double unit_uniform(std::uint64_t draw) noexcept {
  return static_cast<double>(draw >> 11) * 0x1.0p-53;
}

/// Mirror a firing to the trace sink when one is armed. trace_fault
/// bypasses the trace.write fault site by design, so the fault lines are
/// never a fault victim.
void record_firing(const Site& s, std::uint64_t hit, std::uint64_t fire) {
  if (obs::trace_enabled()) {
    obs::trace_fault(s.name, hit, fire, current_round());
  }
}

/// Strict single-entry parser for `site[@after][%prob][#limit]`; suffixes
/// may appear in any order but at most once each. Throws
/// std::invalid_argument naming the token.
FaultSpec parse_spec(std::string_view entry) {
  const auto bad = [&entry](const char* why) -> std::invalid_argument {
    return std::invalid_argument("malformed fault entry '" +
                                 std::string(entry) + "' (" + why +
                                 "; want site[@after][%prob][#limit])");
  };
  FaultSpec spec;
  const std::size_t first = entry.find_first_of("@%#");
  spec.site = std::string(entry.substr(0, first));
  if (spec.site.empty()) throw bad("empty site name");
  bool saw_after = false, saw_prob = false, saw_limit = false;
  std::size_t pos = first;
  while (pos != std::string_view::npos && pos < entry.size()) {
    const char tag = entry[pos];
    const std::size_t next = entry.find_first_of("@%#", pos + 1);
    const std::string value(entry.substr(
        pos + 1, (next == std::string_view::npos ? entry.size() : next) -
                     pos - 1));
    if (value.empty()) throw bad("empty suffix value");
    if (tag == '@' && saw_after) throw bad("duplicate @after");
    if (tag == '%' && saw_prob) throw bad("duplicate %prob");
    if (tag == '#' && saw_limit) throw bad("duplicate #limit");
    std::size_t consumed = 0;
    try {
      if (tag == '@') {
        spec.after = std::stoull(value, &consumed);
        saw_after = true;
      } else if (tag == '%') {
        spec.prob = std::stod(value, &consumed);
        saw_prob = true;
      } else {
        spec.limit = std::stoull(value, &consumed);
        saw_limit = true;
      }
    } catch (const std::exception&) {
      throw bad("non-numeric suffix value");
    }
    if (consumed != value.size()) throw bad("trailing junk in suffix value");
    pos = next;
  }
  if (spec.prob < 0.0 || spec.prob > 1.0) throw bad("prob outside [0, 1]");
  return spec;
}

/// Render a double probability minimally ("%g" — round-trips the values
/// plans actually use and keeps specs short).
std::string render_prob(double p) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", p);
  return buf;
}

}  // namespace

std::string FaultSpec::render() const {
  std::string out = site;
  out += '@';
  out += std::to_string(after);
  if (prob < 1.0) {
    out += '%';
    out += render_prob(prob);
  }
  if (limit != 0) {
    out += '#';
    out += std::to_string(limit);
  }
  return out;
}

FaultPlan FaultPlan::parse(std::string_view text) {
  FaultPlan plan;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find(',', begin);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view entry = text.substr(begin, end - begin);
    begin = end + 1;
    if (entry.empty()) continue;
    plan.specs.push_back(parse_spec(entry));
  }
  return plan;
}

std::string FaultPlan::render() const {
  std::string out;
  for (const FaultSpec& spec : specs) {
    if (!out.empty()) out += ",";
    out += spec.render();
  }
  return out;
}

void arm_spec(const FaultSpec& spec, std::uint64_t seed) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  auto& sites = registry();
  for (Site& s : sites) {
    if (s.name == spec.site) {
      s = Site(spec, seed);  // re-arm: fresh counters + stream
      s.hit_count->set(0);
      s.fire_count->set(0);
      detail::any_armed.store(true, std::memory_order_relaxed);
      return;
    }
  }
  sites.emplace_back(spec, seed);
  // The obs counters outlive disarm_all (metrics registrations persist),
  // so a re-created site must start its counts fresh.
  sites.back().hit_count->set(0);
  sites.back().fire_count->set(0);
  detail::any_armed.store(true, std::memory_order_relaxed);
}

void arm(std::string_view site, std::uint64_t after) {
  FaultSpec spec;
  spec.site = std::string(site);
  spec.after = after;
  arm_spec(spec, 0);
}

std::size_t arm_plan(const FaultPlan& plan) {
  for (const FaultSpec& spec : plan.specs) arm_spec(spec, plan.seed);
  return plan.specs.size();
}

void disarm_all() {
  std::lock_guard<std::mutex> lock(registry_mutex());
  registry().clear();
  detail::round_clock.store(0, std::memory_order_relaxed);
  detail::any_armed.store(false, std::memory_order_relaxed);
}

bool should_fail_slow(std::string_view site) noexcept {
  std::lock_guard<std::mutex> lock(registry_mutex());
  for (Site& s : registry()) {
    if (s.name != site) continue;
    const std::uint64_t hit = s.hit_count->add(1);  // returns PREVIOUS count
    if (hit < s.after) return false;
    if (s.limit != 0 && s.fire_count->value() >= s.limit) return false;
    if (s.prob < 1.0) {
      // One stream draw per eligible hit, in hit order (we hold the
      // registry lock), so which hit indices fire is deterministic.
      if (unit_uniform(s.stream()) >= s.prob) return false;
    }
    const std::uint64_t fire = s.fire_count->add(1) + 1;
    record_firing(s, hit, fire);
    return true;
  }
  return false;
}

std::uint64_t hits(std::string_view site) noexcept {
  std::lock_guard<std::mutex> lock(registry_mutex());
  // Thin wrapper over the registry-backed counter — the pre-obs accessor,
  // kept so call sites and tests don't care where the count lives.
  for (const Site& s : registry()) {
    if (s.name == site) return s.hit_count->value();
  }
  return 0;
}

std::uint64_t fired(std::string_view site) noexcept {
  std::lock_guard<std::mutex> lock(registry_mutex());
  for (const Site& s : registry()) {
    if (s.name == site) return s.fire_count->value();
  }
  return 0;
}

std::size_t arm_from_env() {
  const char* env = std::getenv("COBRA_FAULT");
  if (env == nullptr || *env == '\0') return 0;
  std::uint64_t seed = 0;
  if (const char* seed_env = std::getenv("COBRA_FAULT_SEED");
      seed_env != nullptr && *seed_env != '\0') {
    try {
      std::size_t consumed = 0;
      seed = std::stoull(seed_env, &consumed);
      if (consumed != std::string(seed_env).size()) {
        throw std::invalid_argument("trailing junk");
      }
    } catch (const std::exception&) {
      std::cerr << "[fault] WARNING: ignoring malformed COBRA_FAULT_SEED '"
                << seed_env << "' (want u64); using 0\n";
      seed = 0;
    }
  }
  // Entry-by-entry with skip-and-warn (not all-or-nothing): a typo in one
  // entry of an injection list must not silently disable the others.
  std::size_t armed = 0;
  const std::string text(env);
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find(',', begin);
    if (end == std::string::npos) end = text.size();
    const std::string entry = text.substr(begin, end - begin);
    begin = end + 1;
    if (entry.empty()) continue;
    try {
      arm_spec(parse_spec(entry), seed);
      ++armed;
    } catch (const std::invalid_argument&) {
      std::cerr << "[fault] WARNING: ignoring malformed COBRA_FAULT entry '"
                << entry << "' (want site[@after][%prob][#limit])\n";
    }
  }
  return armed;
}

std::size_t arm_plan_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("cannot open fault plan file '" + path + "'");
  }
  FaultPlan plan;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos) continue;
    const std::size_t stop = line.find_last_not_of(" \t\r");
    const std::string_view body =
        std::string_view(line).substr(start, stop - start + 1);
    if (body.front() == '#') continue;  // comment
    if (body.substr(0, 5) == "seed=") {
      const std::string value(body.substr(5));
      std::size_t consumed = 0;
      try {
        plan.seed = std::stoull(value, &consumed);
      } catch (const std::exception&) {
        consumed = 0;
      }
      if (consumed != value.size()) {
        throw std::invalid_argument("malformed seed line '" +
                                    std::string(body) + "' in '" + path + "'");
      }
      continue;
    }
    const FaultPlan specs = FaultPlan::parse(body);
    for (const FaultSpec& spec : specs.specs) plan.specs.push_back(spec);
  }
  return arm_plan(plan);
}

}  // namespace cobra::util::fault
