// explore: exhaustive async::explore of ben-or at (4, 1), depth 4, across
// the job budget. One task is one explored schedule. The seed permutes a
// balanced proposal vector and sets the coin seed.

#include <utility>

#include "async/explore.h"
#include "probe.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr std::uint32_t kDepth = 4;

class Explore final : public Workload {
 public:
  explicit Explore(const RunConfig& config) : config_(config) {}

  void setup() override {
    task_ = ba::async::ExploreTask{};
    task_.protocol = "ben-or";
    task_.params = {4, 1};
    task_.proposals = {0, 0, 1, 1};
    // Fisher-Yates driven by a SplitMix64 stream of the seed.
    std::uint64_t state = config_.seed;
    for (std::size_t i = task_.proposals.size() - 1; i > 0; --i) {
      state = mix_seed(state);
      std::swap(task_.proposals[i], task_.proposals[state % (i + 1)]);
    }
    task_.coin_seed = config_.seed;
    // Warm-up: a shallow exploration.
    (void)ba::async::explore(task_, options(2, 1));
  }

  BatchResult run_batch() override {
    const ba::async::ExploreReport report =
        ba::async::explore(task_, options(kDepth, config_.jobs));
    BatchResult batch = summarize(report);
    if (!first_) {
      first_ = report;
    } else if (!same(report, *first_)) {
      batch.failed = batch.tasks;
    }
    return batch;
  }

  std::uint64_t check_against_reference() override {
    // Digest, schedules and deliveries do not depend on the job count.
    const Clock::time_point start = Clock::now();
    const ba::async::ExploreReport serial =
        ba::async::explore(task_, options(kDepth, 1));
    serial_s_ = seconds_since(start);
    return same(serial, *first_) ? 0 : serial.schedules;
  }

  std::uint64_t traced(double untraced_tasks_per_s,
                       LayerMetrics& out) override {
    // The async layer has no seam to probe from outside, so the traced
    // batch is a plain batch; its overhead is the run-to-run difference.
    const Clock::time_point start = Clock::now();
    const ba::async::ExploreReport report =
        ba::async::explore(task_, options(kDepth, config_.jobs));
    const double wall = seconds_since(start);
    const double parallel_wall =
        static_cast<double>(first_->schedules) / untraced_tasks_per_s;
    out["async.schedules"] = static_cast<double>(report.schedules);
    out["async.deliveries"] = static_cast<double>(report.deliveries);
    out["async.explore_s.jobs1"] = serial_s_;
    out["parallel.efficiency"] =
        serial_s_ / (static_cast<double>(config_.jobs) * parallel_wall);
    out["trace.overhead"] = 1.0 - static_cast<double>(report.schedules) /
                                      wall / untraced_tasks_per_s;
    return same(report, *first_) ? 0 : report.schedules;
  }

 private:
  static ba::async::ExploreOptions options(std::uint32_t depth,
                                           unsigned jobs) {
    ba::async::ExploreOptions opts;
    opts.exhaustive = true;
    opts.depth = depth;
    opts.jobs = jobs;
    return opts;
  }

  static BatchResult summarize(const ba::async::ExploreReport& report) {
    BatchResult batch;
    batch.tasks = report.schedules;
    batch.counts.async_schedules = report.schedules;
    batch.counts.async_deliveries = report.deliveries;
    // ben-or is safe: any violation is a failed oracle.
    if (report.violations != 0) batch.failed = batch.tasks;
    return batch;
  }

  static bool same(const ba::async::ExploreReport& a,
                   const ba::async::ExploreReport& b) {
    return a.digest == b.digest && a.schedules == b.schedules &&
           a.deliveries == b.deliveries && a.violations == 0 &&
           b.violations == 0;
  }

  RunConfig config_;
  ba::async::ExploreTask task_;
  std::optional<ba::async::ExploreReport> first_;
  double serial_s_{0};
};

}  // namespace

std::unique_ptr<Workload> make_explore(const RunConfig& config) {
  return std::make_unique<Explore>(config);
}

}  // namespace perfbench
