#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "obs/manifest.hpp"

namespace cobra::obs {

// ------------------------------------------------------------- Timer -----

namespace {

/// Stable per-thread slot index: hash the thread id once, cache it.
std::size_t this_thread_slot() noexcept {
  thread_local const std::size_t slot =
      // cobra-lint: allow(D1-thread-id) contention-striping only: the slot
      // spreads timer updates across cache lines, and every reader SUMS
      // all slots, so no reported value depends on which thread hit which.
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % Timer::kSlots;
  return slot;
}

}  // namespace

void Timer::add(std::uint64_t ns, std::uint64_t count) noexcept {
  Slot& s = slots_[this_thread_slot()];
  s.ns.fetch_add(ns, std::memory_order_relaxed);
  s.count.fetch_add(count, std::memory_order_relaxed);
}

std::uint64_t Timer::total_ns() const noexcept {
  std::uint64_t total = 0;
  for (const Slot& s : slots_) total += s.ns.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t Timer::count() const noexcept {
  std::uint64_t total = 0;
  for (const Slot& s : slots_) total += s.count.load(std::memory_order_relaxed);
  return total;
}

// ---------------------------------------------------------- Registry -----

/// Storage lives in deques so references handed out by counter()/timer()
/// stay valid as the registry grows; the maps only index into them.
struct Registry::Impl {
  mutable std::mutex mu;
  std::deque<Counter> counters;
  std::deque<Timer> timers;
  // The registry owns the names; std::less<> looks a string_view up
  // without building a std::string key.
  std::map<std::string, Counter*, std::less<>> counter_by_name;
  std::map<std::string, Timer*, std::less<>> timer_by_name;
};

Registry::Impl& Registry::impl() const {
  // One process-global Impl: Registry itself is stateless, so obs::registry()
  // can hand out Registry by value-semantics-free reference without an
  // initialization order dance.
  static Impl instance;
  return instance;
}

Counter& Registry::counter(std::string_view name) {
  Impl& im = impl();
  std::lock_guard lock(im.mu);
  auto it = im.counter_by_name.find(name);
  if (it != im.counter_by_name.end()) return *it->second;
  Counter& c = im.counters.emplace_back();
  im.counter_by_name.emplace(std::string(name), &c);
  return c;
}

Timer& Registry::timer(std::string_view name) {
  Impl& im = impl();
  std::lock_guard lock(im.mu);
  auto it = im.timer_by_name.find(name);
  if (it != im.timer_by_name.end()) return *it->second;
  Timer& t = im.timers.emplace_back();
  im.timer_by_name.emplace(std::string(name), &t);
  return t;
}

std::vector<Sample> Registry::snapshot() const {
  Impl& im = impl();
  std::vector<Sample> out;
  {
    std::lock_guard lock(im.mu);
    out.reserve(im.counter_by_name.size() + im.timer_by_name.size());
    for (const auto& [name, c] : im.counter_by_name)
      out.push_back({name, "counter", static_cast<double>(c->value()), 0});
    for (const auto& [name, t] : im.timer_by_name)
      out.push_back({name, "timer", static_cast<double>(t->total_ns()) * 1e-9,
                     t->count()});
  }
  std::sort(out.begin(), out.end(),
            [](const Sample& a, const Sample& b) { return a.name < b.name; });
  return out;
}

Registry& registry() {
  static Registry instance;
  return instance;
}

// ---------------------------------------------------------- snapshot -----

std::string render_metrics_json() {
  const Manifest m = current_manifest();
  std::string out;
  out += "{\n";
  out += "  \"manifest\": " + m.render_json("  ") + ",\n";
  out += "  \"metrics\": [\n";
  const std::vector<Sample> samples = registry().snapshot();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", s.value);
    out += "    {\"name\": \"" + s.name + "\", \"kind\": \"" + s.kind +
           "\", \"value\": " + buf;
    if (s.kind == "timer")
      out += ", \"count\": " + std::to_string(s.count);
    out += "}";
    if (i + 1 < samples.size()) out += ",";
    out += "\n";
  }
  out += "  ]\n";
  out += "}\n";
  return out;
}

bool write_metrics_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: cannot open metrics file '%s'\n", path.c_str());
    return false;
  }
  const std::string body = render_metrics_json();
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  if (!ok)
    std::fprintf(stderr, "obs: short write to metrics file '%s'\n",
                 path.c_str());
  return ok;
}

}  // namespace cobra::obs
