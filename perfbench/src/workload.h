#pragma once

// The benchmark's workload interface. A workload is a closed batch: the
// process submits the whole batch, waits for it, and repeats until the run's
// time is up. Inputs come only from the workload seed, and the work size
// does not depend on it.

#include <cstdint>
#include <map>
#include <memory>
#include <string>

namespace perfbench {

/// SplitMix64 finalizer: spreads a workload seed over 64 bits.
[[nodiscard]] inline std::uint64_t mix_seed(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic work counts of one batch. Equal seeds give equal counts,
/// so later changes can compare them exactly.
struct WorkCounts {
  std::uint64_t runtime_msgs{0};
  std::uint64_t runtime_rounds{0};
  std::uint64_t lowerbound_violations{0};
  std::uint64_t validity_input_configs{0};
  std::uint64_t service_rows{0};
  std::uint64_t async_schedules{0};
  std::uint64_t async_deliveries{0};

  friend bool operator==(const WorkCounts&, const WorkCounts&) = default;
};

struct BatchResult {
  std::uint64_t tasks{0};
  /// Tasks whose correctness oracle failed.
  std::uint64_t failed{0};
  WorkCounts counts;
};

/// Per-layer metric values by name (seconds, counts or ratios).
using LayerMetrics = std::map<std::string, double>;

struct RunConfig {
  std::uint64_t seed{1};
  /// Worker threads or processes a batch may use (at most nproc).
  unsigned jobs{1};
  /// Scratch directory inside the checkout (campaign state lives here).
  std::string work_dir;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds every input from the seed and warms up. The benchmark times it
  /// several times, so it must rebuild its state from scratch each call.
  virtual void setup() = 0;

  /// Runs one untraced batch and checks each task's outputs.
  virtual BatchResult run_batch() = 0;

  /// Checks that need a reference computed once, after the timed phase
  /// (e.g. jobs = 1 against jobs = J). Returns the number of tasks per
  /// batch that failed them.
  virtual std::uint64_t check_against_reference() = 0;

  /// The traced run: fills the per-layer metrics that apply to this
  /// workload. `untraced_tasks_per_s` is the timed phase's median. Returns
  /// the number of traced tasks whose outputs differ from the untraced ones.
  virtual std::uint64_t traced(double untraced_tasks_per_s,
                               LayerMetrics& out) = 0;
};

std::unique_ptr<Workload> make_attack_sweep(const RunConfig& config);
std::unique_ptr<Workload> make_synthesis(const RunConfig& config);
std::unique_ptr<Workload> make_campaign(const RunConfig& config);
std::unique_ptr<Workload> make_explore(const RunConfig& config);

}  // namespace perfbench
