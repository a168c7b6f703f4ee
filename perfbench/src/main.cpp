// The repo benchmark: runs one workload for a fixed time and prints
// its end-to-end metrics (untraced) or its per-layer metrics (traced).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR]
//
// Output: a `perfbench host` fingerprint line, a `perfbench counts` line
// with the deterministic work counts of one batch, and, last, one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exits 1 when any
// correctness oracle fails, 2 on bad usage, 3 when the build is unoptimised
// or instrumented (its numbers would mislead, so none are printed).

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "probe.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 15;

struct LayerMetricName {
  const char* name;
  const char* unit;
};

// Every traced run reports all of these; a layer a workload does not
// exercise reads 0.
const LayerMetricName kPerLayerMetrics[] = {
    {"engine.run_calls", "count"},        {"engine.run_s", "s"},
    {"engine.run_s.lockstep", "s"},       {"engine.run_s.sim", "s"},
    {"runtime.msgs", "count"},            {"runtime.rounds", "count"},
    {"protocols.step_calls", "count"},    {"protocols.step_s", "s"},
    {"lowerbound.attack_calls", "count"}, {"lowerbound.attack_s", "s"},
    {"lowerbound.self_s", "s"},           {"lowerbound.violations", "count"},
    {"lowerbound.verify_s", "s"},         {"lowerbound.cert_bytes", "bytes"},
    {"validity.solvability_s", "s"},      {"validity.make_solver_s", "s"},
    {"validity.problems", "count"},       {"validity.input_configs", "count"},
    {"reductions.derive_s", "s"},         {"service.rows", "count"},
    {"service.task_s.lockstep", "s"},     {"service.task_s.sim", "s"},
    {"service.encode_s", "s"},            {"service.decode_s", "s"},
    {"service.respawns", "count"},        {"service.rows_rejected", "count"},
    {"service.sharded_s", "s"},           {"service.control_share", "ratio"},
    {"async.schedules", "count"},
    {"async.deliveries", "count"},        {"async.explore_s.jobs1", "s"},
    {"parallel.efficiency", "ratio"},     {"trace.overhead", "ratio"},
    {"failed_frac", "ratio"},
};

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  std::string work_dir{".bench_build/perfbench-work"};
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload attack_sweep|synthesis|campaign|"
               "explore --seed N --seconds S --trace 0|1\n"
               "                 [--work-dir DIR]\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

const char* sanitizer_name() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
  return "clang-sanitizer";
#endif
#endif
  return "none";
}

constexpr bool kOptimized =
#if defined(__OPTIMIZE__)
    true;
#else
    false;
#endif

/// Prints the host fingerprint; false when the build must not report.
bool host_fingerprint() {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const std::string sanitizer = sanitizer_name();
  std::printf(
      "perfbench host {\"cpu\": %s, \"nproc\": %ld, \"compiler\": %s, "
      "\"build_type\": %s, \"optimized\": %s, \"sanitizer\": %s}\n",
      json_string(cpu_model()).c_str(), nproc,
      json_string(PERFBENCH_COMPILER).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(), kOptimized ? "true" : "false",
      json_string(sanitizer).c_str());
  if (!kOptimized || sanitizer != "none") {
    std::fprintf(stderr,
                 "perfbench: refusing to report numbers from an %s build "
                 "(build type %s)\n",
                 kOptimized ? "instrumented" : "unoptimised",
                 PERFBENCH_BUILD_TYPE);
    return false;
  }
  return true;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

double timeval_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) / 1e6;
}

/// CPU (user + system) of this process. No timed batch forks a child.
double cpu_s_now() {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return timeval_s(self.ru_utime) + timeval_s(self.ru_stime);
}

/// Returns freed heap pages to the system and restarts this process's RSS
/// high-water mark at the resulting RSS, so each batch's peak is its own
/// and not what the allocator kept from earlier batches.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// This process's RSS high-water mark (VmHWM), MB.
double self_peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void print_counts(const WorkCounts& c) {
  std::printf(
      "perfbench counts {\"runtime.msgs\": %llu, \"runtime.rounds\": %llu, "
      "\"lowerbound.violations\": %llu, \"validity.input_configs\": %llu, "
      "\"service.rows\": %llu, \"async.schedules\": %llu, "
      "\"async.deliveries\": %llu}\n",
      static_cast<unsigned long long>(c.runtime_msgs),
      static_cast<unsigned long long>(c.runtime_rounds),
      static_cast<unsigned long long>(c.lowerbound_violations),
      static_cast<unsigned long long>(c.validity_input_configs),
      static_cast<unsigned long long>(c.service_rows),
      static_cast<unsigned long long>(c.async_schedules),
      static_cast<unsigned long long>(c.async_deliveries));
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.12g", metrics[i].value);
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " + value +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int run(const Args& args) {
  if (!host_fingerprint()) return 3;

  RunConfig config;
  config.seed = args.seed;
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  config.jobs = static_cast<unsigned>(std::clamp<long>(nproc, 1, 4));
  config.work_dir = args.work_dir;

  std::unique_ptr<Workload> workload;
  if (args.workload == "attack_sweep") {
    workload = make_attack_sweep(config);
  } else if (args.workload == "synthesis") {
    workload = make_synthesis(config);
  } else if (args.workload == "campaign") {
    workload = make_campaign(config);
  } else if (args.workload == "explore") {
    workload = make_explore(config);
  } else {
    return usage();
  }

  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point start = Clock::now();
    workload->setup();
    setups.push_back(seconds_since(start));
  }

  // Timed phase: whole batches until the run's time is up.
  const double cpu_before = cpu_s_now();
  const Clock::time_point phase_start = Clock::now();
  std::vector<double> batch_rates;
  std::vector<double> batch_peaks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  WorkCounts counts;
  bool counts_repeat = true;
  do {
    reset_peak_rss();
    const Clock::time_point start = Clock::now();
    const BatchResult batch = workload->run_batch();
    const double wall = seconds_since(start);
    batch_rates.push_back(static_cast<double>(batch.tasks) / wall);
    batch_peaks.push_back(self_peak_rss_mb());
    if (attempted == 0) {
      counts = batch.counts;
    } else if (!(batch.counts == counts)) {
      counts_repeat = false;
      failed += batch.tasks;
    }
    attempted += batch.tasks;
    failed += batch.failed;
  } while (seconds_since(phase_start) < args.seconds);
  const double cpu_s = cpu_s_now() - cpu_before;
  const double peak_rss_mb = median(batch_peaks);
  const std::uint64_t batches = batch_rates.size();

  const std::uint64_t reference_failures =
      workload->check_against_reference();
  failed = std::min(attempted, failed + reference_failures * batches);
  print_counts(counts);
  if (!counts_repeat) {
    std::fprintf(stderr,
                 "perfbench: work counts differ between batches of one run\n");
  }
  const double tasks_per_s = median(batch_rates);
  std::fprintf(stderr,
               "perfbench %s: %llu batches, %llu tasks, %llu failed, "
               "median %.1f tasks/s; per batch:",
               args.workload.c_str(), static_cast<unsigned long long>(batches),
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed), tasks_per_s);
  for (double rate : batch_rates) std::fprintf(stderr, " %.1f", rate);
  std::fprintf(stderr, "\nperfbench peak RSS per batch (MB):");
  for (double peak : batch_peaks) std::fprintf(stderr, " %.1f", peak);
  std::fprintf(stderr, "\n");

  std::vector<Metric> metrics;
  if (args.trace) {
    LayerMetrics layers;
    for (const LayerMetricName& m : kPerLayerMetrics) layers[m.name] = 0;
    failed = std::min(attempted, failed + workload->traced(tasks_per_s, layers));
    layers["failed_frac"] =
        static_cast<double>(failed) / static_cast<double>(attempted);
    if (layers.size() != std::size(kPerLayerMetrics)) {
      std::fprintf(stderr, "perfbench: workload reported an unknown metric\n");
      return 1;
    }
    for (const LayerMetricName& m : kPerLayerMetrics) {
      metrics.push_back({m.name, layers.at(m.name), m.unit});
    }
  } else {
    metrics.push_back({"tasks_per_s", tasks_per_s, "1/s"});
    metrics.push_back({"setup_s", median(setups), "s"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
    metrics.push_back({"cpu_ms_per_task",
                       cpu_s * 1000.0 / static_cast<double>(attempted), "ms"});
  }
  const bool correct = failed == 0 && counts_repeat;
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) return perfbench::usage();
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
