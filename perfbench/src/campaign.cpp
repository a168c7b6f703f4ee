// campaign: the campaign service over a many-small-task spec. One task is
// one campaign row. The timed batch is the service's single-shot path,
// run_campaign_serial: TaskRunner, row encoding and NDJSON streaming.
//
// The sharded serve_campaign over forked `ba_cli serve-worker` processes
// (coordinator plus workers within the job budget) runs once per run,
// outside the timed phase: it is the other side of the byte-identity oracle
// and gives the control-plane share. It is not a timed batch because its
// wall time follows the host's disk: every row rewrites a heartbeat file,
// and on the development host the same 3,600-row serve took 0.8 s or 1.5 to
// 2.1 s on ext4 depending on disk load, against a steady 0.8 s for the
// serial path.

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "engine/registry.h"
#include "probe.h"
#include "service/campaign.h"
#include "service/ndjson.h"
#include "service/runner.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using ba::service::CampaignRow;
using ba::service::CampaignSpec;

// The ba_cli built beside this binary; the sharded serve forks it.
constexpr const char* kWorkerExe = PERFBENCH_BA_CLI;

std::string campaign_json(std::uint64_t seed) {
  return R"({"name": "perfbench", "master_seed": )" + std::to_string(seed) +
         R"(, "protocols": ["phase-king", "floodset", "ds-weak", "beacon",
                            "gossip", "one-shot-echo"],
            "grid": ["4:1", "16:5"],
            "backends": ["lockstep", "sim:sync,1"],
            "faults": ["fault-free", "crash:1", "isolate:1"],
            "seeds": 50})";
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

class Campaign final : public Workload {
 public:
  explicit Campaign(const RunConfig& config)
      : config_(config), dir_(fs::path{config.work_dir} / "campaign") {}

  void setup() override {
    if (!fs::is_regular_file(kWorkerExe)) {
      throw std::runtime_error(std::string{"campaign worker not found: "} +
                               kWorkerExe);
    }
    spec_ = CampaignSpec::from_json(campaign_json(config_.seed));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    // Warm-up: one task of every (protocol, point, backend, fault) cell,
    // in process.
    const ba::service::TaskRunner runner(spec_);
    for (std::uint64_t i = 0; i < spec_.task_count(); i += spec_.seeds) {
      (void)runner.run(spec_.task_at(i));
    }
  }

  BatchResult run_batch() override {
    const fs::path path = dir_ / "serial.ndjson";
    const ba::service::ServeSummary summary =
        ba::service::run_campaign_serial(spec_, path.string());
    std::string results = read_file(path);

    BatchResult batch;
    batch.tasks = summary.tasks_total;
    batch.counts.service_rows = split_lines(results).size();
    // Every batch must stream the same bytes.
    if (first_results_.empty()) {
      first_results_ = std::move(results);
    } else if (results != first_results_) {
      batch.failed = batch.tasks;
    }
    return batch;
  }

  std::uint64_t check_against_reference() override {
    // The sharded serve from fresh state merges to the serial bytes, and
    // every line passes decode_row's authentication.
    const fs::path state = dir_ / "state";
    fs::remove_all(state);
    ba::service::ServeOptions options;
    options.state_dir = state.string();
    options.workers = workers();
    options.worker_exe = kWorkerExe;
    options.quiet = true;
    const Clock::time_point start = Clock::now();
    const ba::service::ServeSummary summary =
        ba::service::serve_campaign(spec_, options);
    sharded_s_ = seconds_since(start);
    respawns_ = summary.respawns;
    rows_rejected_ = summary.rows_rejected;
    const std::vector<std::string> merged =
        split_lines(read_file(summary.results_file));
    fs::remove_all(state);

    reference_ = split_lines(first_results_);
    if (summary.tasks_run != summary.tasks_total) return reference_.size();
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < reference_.size(); ++i) {
      if (i >= merged.size() || merged[i] != reference_[i] ||
          !ba::service::decode_row(reference_[i])) {
        ++failed;
      }
    }
    return failed + (merged.size() > reference_.size()
                         ? merged.size() - reference_.size()
                         : 0);
  }

  std::uint64_t traced(double untraced_tasks_per_s,
                       LayerMetrics& out) override {
    const std::uint64_t count = spec_.task_count();
    // The serial batch again, with every task, its engine runs and its row
    // encoding timed; then every streamed line is decoded, timed.
    register_probed_backends();
    reset_counters();
    double task_s[2] = {0, 0};  // lockstep, sim
    double encode_s = 0;
    std::vector<std::string> lines;
    const Clock::time_point start = Clock::now();
    {
      const ba::service::TaskRunner runner(spec_);
      ba::service::NdjsonFileWriter writer((dir_ / "traced.ndjson").string());
      for (std::uint64_t i = 0; i < count; ++i) {
        const ba::service::TaskSpec task = spec_.task_at(i);
        Clock::time_point t0 = Clock::now();
        const CampaignRow row = runner.run(task);
        task_s[task.backend.rfind("sim", 0) == 0 ? 1 : 0] +=
            seconds_since(t0);
        t0 = Clock::now();
        lines.push_back(ba::service::encode_row(row));
        encode_s += seconds_since(t0);
        writer.write_line(lines.back());
      }
    }
    const double traced_s = seconds_since(start);
    double decode_s = 0;
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      const bool decoded = ba::service::decode_row(lines[i]).has_value();
      decode_s += seconds_since(t0);
      if (!decoded || i >= reference_.size() || lines[i] != reference_[i]) {
        ++failed;
      }
    }
    const LayerCounters c = total_counters();

    out["engine.run_calls"] = static_cast<double>(c.engine_calls);
    out["engine.run_s"] = static_cast<double>(c.engine_ns) / 1e9;
    out["engine.run_s.lockstep"] =
        static_cast<double>(c.engine_ns_lockstep) / 1e9;
    out["engine.run_s.sim"] = static_cast<double>(c.engine_ns_sim) / 1e9;
    out["runtime.msgs"] = static_cast<double>(c.msgs);
    out["runtime.rounds"] = static_cast<double>(c.rounds);
    out["service.rows"] = static_cast<double>(count);
    out["service.task_s.lockstep"] = task_s[0];
    out["service.task_s.sim"] = task_s[1];
    out["service.encode_s"] = encode_s;
    out["service.decode_s"] = decode_s;
    out["service.respawns"] = static_cast<double>(respawns_);
    out["service.rows_rejected"] = static_cast<double>(rows_rejected_);
    out["service.sharded_s"] = sharded_s_;
    out["service.control_share"] =
        1.0 - (task_s[0] + task_s[1]) /
                  (static_cast<double>(workers()) * sharded_s_);
    out["trace.overhead"] = 1.0 - static_cast<double>(count) / traced_s /
                                      untraced_tasks_per_s;
    return failed;
  }

 private:
  /// The coordinator keeps one core; workers get the rest (at least one).
  std::uint32_t workers() const {
    return config_.jobs > 1 ? config_.jobs - 1 : 1;
  }

  /// Re-registers the built-in sync backends behind timed probes, so the
  /// in-process TaskRunner's engine runs are attributed.
  static void register_probed_backends() {
    ba::engine::Registry& registry = ba::engine::Registry::global();
    registry.add("lockstep", [](const ba::engine::BackendSpec&) {
      return probe_backend(std::make_shared<ba::engine::LockstepBackend>(),
                           true);
    });
    registry.add("sim", [](const ba::engine::BackendSpec& spec) {
      return probe_backend(std::make_shared<ba::engine::SimBackend>(spec.sim),
                           true);
    });
  }

  RunConfig config_;
  fs::path dir_;
  CampaignSpec spec_;
  std::string first_results_;
  std::vector<std::string> reference_;
  double sharded_s_{0};
  std::uint64_t respawns_{0};
  std::uint64_t rows_rejected_{0};
};

}  // namespace

std::unique_ptr<Workload> make_campaign(const RunConfig& config) {
  return std::make_unique<Campaign>(config);
}

}  // namespace perfbench
