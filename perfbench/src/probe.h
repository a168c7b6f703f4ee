#pragma once

// Outside-in attribution for the benchmark: decorators around the library's
// public seams that count work and, when timing is on, time the calls made
// into each layer. Nothing here reaches inside src/; every number comes from
// wrapping a public interface:
//
//   * probe_backend  wraps engine::ExecutionBackend (handed to the library
//     through AttackOptions::backend, or registered over a built-in name):
//     counts engine.run calls, the messages and rounds they carry, and
//     times each call;
//   * probe_protocol wraps a ProtocolFactory so every Process it builds
//     times outbox_for_round / deliver (protocols.step_*).
//
// Counters live in one slot per thread, so pool workers never contend; a
// total is read only while no worker is running.

#include <chrono>
#include <cstdint>

#include "engine/backend.h"
#include "runtime/process.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::uint64_t elapsed_ns(Clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           since)
          .count());
}

[[nodiscard]] inline double seconds_since(Clock::time_point since) {
  return static_cast<double>(elapsed_ns(since)) / 1e9;
}

struct LayerCounters {
  std::uint64_t engine_calls{0};
  std::uint64_t engine_ns{0};
  std::uint64_t engine_ns_lockstep{0};
  std::uint64_t engine_ns_sim{0};
  /// Messages sent (all processes) and rounds executed by engine.run calls.
  std::uint64_t msgs{0};
  std::uint64_t rounds{0};
  std::uint64_t step_calls{0};
  std::uint64_t step_ns{0};
  /// Wall time of whole sweep grid points (make -> on_row), per thread.
  std::uint64_t point_ns{0};

  LayerCounters& operator+=(const LayerCounters& o);
};

/// This thread's slot.
[[nodiscard]] LayerCounters& local_counters();
/// Sum over every thread's slot. Call only while no worker is running.
[[nodiscard]] LayerCounters total_counters();
/// Zeroes every slot. Call only while no worker is running.
void reset_counters();

/// Decorates `inner`. With `timed` off it only counts engine.run calls and
/// the messages and rounds they carry — cheap enough for the untraced timed
/// phase; with `timed` on it also times every run, split by the inner
/// backend's registry name.
[[nodiscard]] ba::engine::BackendHandle probe_backend(
    ba::engine::BackendHandle inner, bool timed);

/// A factory whose processes time every outbox_for_round / deliver call.
[[nodiscard]] ba::ProtocolFactory probe_protocol(ba::ProtocolFactory inner);

}  // namespace perfbench
