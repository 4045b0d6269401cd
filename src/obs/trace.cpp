#include "obs/trace.hpp"

#include <cstdio>
#include <mutex>

#include "util/fault.hpp"

namespace cobra::obs {

namespace {

std::mutex g_mu;
std::FILE* g_file = nullptr;                 // guarded by g_mu
std::atomic<std::uint64_t> g_next_id{1};

}  // namespace

bool open_global_trace(const std::string& path) {
  std::lock_guard lock(g_mu);
  if (g_file != nullptr) {
    std::fclose(g_file);
    g_file = nullptr;
    detail::trace_armed.store(false, std::memory_order_relaxed);
  }
  g_file = std::fopen(path.c_str(), "wb");
  if (g_file == nullptr) {
    std::fprintf(stderr, "obs: cannot open trace file '%s'\n", path.c_str());
    return false;
  }
  detail::trace_armed.store(true, std::memory_order_relaxed);
  return true;
}

void close_global_trace() {
  std::lock_guard lock(g_mu);
  // Disarm first: an engine racing past trace_enabled() into trace_round()
  // still takes g_mu, so it either lands before the close or finds g_file
  // null and drops the line — never a write to a closed stream.
  detail::trace_armed.store(false, std::memory_order_relaxed);
  if (g_file != nullptr) {
    std::fclose(g_file);
    g_file = nullptr;
  }
}

void trace_round(const RoundTrace& t) {
  // Fault site `trace.write` (GRACEFUL): a failed telemetry write drops
  // the line and counts it — it must never affect the simulation. Checked
  // before g_mu so the fault registry lock and the sink lock never nest
  // in this direction.
  if (util::fault::should_fail("trace.write")) {
    registry().counter("trace.lines_dropped").add(1);
    return;
  }
  char line[512];
  const int len = std::snprintf(
      line, sizeof(line),
      "{\"trace\": %llu, \"round\": %llu, \"frontier\": %llu, "
      "\"produced\": %llu, \"mode\": \"%s\", \"path\": \"%s\", "
      "\"switch\": \"%s\", \"chunks\": %llu, \"max_chunk\": %llu, "
      "\"mean_chunk\": %.6g, \"sample_s\": %.6g, \"merge_s\": %.6g, "
      "\"seconds\": %.6g}\n",
      static_cast<unsigned long long>(t.trace_id),
      static_cast<unsigned long long>(t.round),
      static_cast<unsigned long long>(t.frontier),
      static_cast<unsigned long long>(t.produced), t.mode, t.path,
      t.switch_reason, static_cast<unsigned long long>(t.chunks),
      static_cast<unsigned long long>(t.max_chunk), t.mean_chunk, t.sample_s,
      t.merge_s, t.seconds);
  if (len <= 0) return;
  std::lock_guard lock(g_mu);
  if (g_file == nullptr) return;  // closed between the gate check and here
  std::fwrite(line, 1, static_cast<std::size_t>(len), g_file);
}

void trace_fault(std::string_view site, std::uint64_t hit,
                 std::uint64_t fire, std::uint64_t round) {
  char line[256];
  const int len = std::snprintf(
      line, sizeof(line),
      "{\"fault\": \"%.*s\", \"hit\": %llu, \"fire\": %llu, "
      "\"round\": %llu}\n",
      static_cast<int>(site.size()), site.data(),
      static_cast<unsigned long long>(hit),
      static_cast<unsigned long long>(fire),
      static_cast<unsigned long long>(round));
  if (len <= 0) return;
  std::lock_guard lock(g_mu);
  if (g_file == nullptr) return;
  std::fwrite(line, 1, static_cast<std::size_t>(len), g_file);
}

std::uint64_t next_trace_id() noexcept {
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace cobra::obs
