// attack_sweep: lowerbound::run_attack_sweep over registry sync protocols on
// the lockstep and sim:sync backends, with a crash fault axis seeded by the
// workload seed. One task is one grid point (one sweep row).

#include <stdexcept>
#include <string>
#include <vector>

#include "engine/registry.h"
#include "faults/fault_spec.h"
#include "lowerbound/certificate.h"
#include "lowerbound/certificate_io.h"
#include "lowerbound/sweep.h"
#include "probe.h"
#include "protocols/registry.h"
#include "workload.h"

namespace perfbench {
namespace {

using ba::SystemParams;
using ba::lowerbound::SweepEntry;
using ba::lowerbound::SweepRow;

// Broken candidates and correct protocols.
const std::vector<std::string> kProtocols = {
    "beacon", "gossip", "silent", "one-shot-echo", "ds-weak", "phase-king",
    "floodset"};

struct PartSpec {
  const char* backend;
  std::vector<std::string> protocols;
  std::vector<SystemParams> grid;
};

// The sim backend stops at n = 32: its phase-king (64, 21) point alone takes
// several seconds. eig-strong joins only at n <= 8: one attack at (16, 5)
// alone takes tens of seconds.
const PartSpec kParts[] = {
    {"lockstep", kProtocols, {{8, 2}, {16, 5}, {32, 10}, {64, 21}}},
    {"lockstep", {"eig-strong"}, {{7, 2}, {8, 2}}},
    {"sim:sync", kProtocols, {{8, 2}, {16, 5}, {32, 10}}},
    {"sim:sync", {"eig-strong"}, {{7, 2}, {8, 2}}},
};

ba::ProtocolFactory registry_protocol(const std::string& name,
                                      std::uint32_t n) {
  std::optional<ba::ProtocolFactory> factory =
      ba::protocols::make_protocol_by_name(name, n);
  if (!factory) throw std::runtime_error("unknown protocol " + name);
  return *factory;
}

// Start of the grid point this thread is evaluating (traced run only): the
// sweep calls SweepEntry::make first thing in a point and on_row right
// after it, both on the worker thread.
thread_local Clock::time_point point_start;

struct Part {
  ba::engine::BackendHandle backend;
  std::vector<SweepEntry> entries;
  std::vector<SystemParams> grid;
};

class AttackSweep final : public Workload {
 public:
  explicit AttackSweep(const RunConfig& config) : config_(config) {}

  void setup() override {
    parts_.clear();
    for (const PartSpec& spec : kParts) {
      Part part{ba::engine::make_backend(spec.backend), {}, spec.grid};
      for (const std::string& name : spec.protocols) {
        part.entries.push_back(entry(name));
      }
      parts_.push_back(std::move(part));
    }
    axis_ = ba::faults::FaultSpec{};
    axis_.kind = *ba::faults::find_fault_kind("crash");
    // Warm-up: every part's protocols at its smallest grid point.
    for (const Part& part : parts_) {
      (void)ba::lowerbound::run_attack_sweep(
          part.entries, {part.grid.front()}, options(part.backend, 1));
    }
  }

  BatchResult run_batch() override {
    reset_counters();
    std::vector<SweepRow> rows = sweep_all(config_.jobs, /*timed=*/false);
    BatchResult batch = summarize(rows);
    if (first_rows_.empty()) {
      first_rows_ = std::move(rows);
    } else {
      batch.failed += mismatches(rows);
    }
    return batch;
  }

  std::uint64_t check_against_reference() override {
    // The serial reference path: rows at jobs = J must equal jobs = 1.
    const Clock::time_point start = Clock::now();
    const std::vector<SweepRow> serial = sweep_all(1, /*timed=*/false);
    serial_s_ = seconds_since(start);
    std::uint64_t failed = mismatches(serial);
    // Every certificate decodes and verifies by replay.
    const Clock::time_point verify_start = Clock::now();
    for (const SweepRow& row : serial) {
      if (!row.violation) continue;
      const auto cert = ba::lowerbound::decode_certificate(row.certificate);
      if (!cert || !ba::lowerbound::verify_certificate(
                        *cert, registry_protocol(row.protocol_name,
                                                 row.params.n))
                        .ok) {
        ++failed;
      }
    }
    verify_s_ = seconds_since(verify_start);
    return failed;
  }

  std::uint64_t traced(double untraced_tasks_per_s,
                       LayerMetrics& out) override {
    reset_counters();
    const Clock::time_point start = Clock::now();
    const std::vector<SweepRow> rows = sweep_all(config_.jobs, /*timed=*/true);
    const double wall = seconds_since(start);
    const LayerCounters c = total_counters();
    const BatchResult batch = summarize(rows);
    const double traced_tasks_per_s = static_cast<double>(batch.tasks) / wall;
    const double parallel_wall =
        static_cast<double>(batch.tasks) / untraced_tasks_per_s;
    std::uint64_t cert_bytes = 0;
    for (const SweepRow& row : rows) cert_bytes += row.certificate.size();

    const double engine_s = static_cast<double>(c.engine_ns) / 1e9;
    const double attack_s = static_cast<double>(c.point_ns) / 1e9;
    out["engine.run_calls"] = static_cast<double>(c.engine_calls);
    out["engine.run_s"] = engine_s;
    out["engine.run_s.lockstep"] =
        static_cast<double>(c.engine_ns_lockstep) / 1e9;
    out["engine.run_s.sim"] = static_cast<double>(c.engine_ns_sim) / 1e9;
    out["runtime.msgs"] = static_cast<double>(c.msgs);
    out["runtime.rounds"] = static_cast<double>(c.rounds);
    out["protocols.step_calls"] = static_cast<double>(c.step_calls);
    out["protocols.step_s"] = static_cast<double>(c.step_ns) / 1e9;
    out["lowerbound.attack_calls"] = static_cast<double>(batch.tasks);
    out["lowerbound.attack_s"] = attack_s;
    out["lowerbound.self_s"] = attack_s - engine_s;
    out["lowerbound.violations"] =
        static_cast<double>(batch.counts.lowerbound_violations);
    out["lowerbound.verify_s"] = verify_s_;
    out["lowerbound.cert_bytes"] = static_cast<double>(cert_bytes);
    out["parallel.efficiency"] =
        serial_s_ / (static_cast<double>(config_.jobs) * parallel_wall);
    out["trace.overhead"] = 1.0 - traced_tasks_per_s / untraced_tasks_per_s;
    return mismatches(rows);
  }

 private:
  static SweepEntry entry(const std::string& name) {
    return {name, [name](const SystemParams& params) {
              return registry_protocol(name, params.n);
            }};
  }

  ba::lowerbound::SweepOptions options(ba::engine::BackendHandle backend,
                                       unsigned jobs) const {
    ba::lowerbound::SweepOptions opts;
    opts.attack.backend = std::move(backend);
    opts.jobs = jobs;
    opts.fault_axis = axis_;
    opts.fault_seed = config_.seed;
    return opts;
  }

  /// One batch: every part in order, rows in a fixed order. The backend is
  /// always probed (counts); `timed` adds the clocks, the per-process step
  /// probe and per-point timing.
  std::vector<SweepRow> sweep_all(unsigned jobs, bool timed) const {
    std::vector<SweepRow> rows;
    for (const Part& part : parts_) {
      ba::lowerbound::SweepOptions opts =
          options(probe_backend(part.backend, timed), jobs);
      std::vector<SweepEntry> entries = part.entries;
      if (timed) {
        opts.on_row = [](std::size_t, const SweepRow&) {
          local_counters().point_ns += elapsed_ns(point_start);
        };
        for (SweepEntry& e : entries) {
          e.make = [make = e.make](const SystemParams& params) {
            point_start = Clock::now();
            return probe_protocol(make(params));
          };
        }
      }
      ba::lowerbound::SweepResult result =
          ba::lowerbound::run_attack_sweep(entries, part.grid, opts);
      for (SweepRow& row : result.rows) rows.push_back(std::move(row));
    }
    return rows;
  }

  /// Tasks, per-row Theorem 2 consistency, and the batch's work counts.
  static BatchResult summarize(const std::vector<SweepRow>& rows) {
    BatchResult batch;
    const LayerCounters c = total_counters();
    batch.tasks = rows.size();
    batch.counts.runtime_msgs = c.msgs;
    batch.counts.runtime_rounds = c.rounds;
    for (const SweepRow& row : rows) {
      if (row.violation) ++batch.counts.lowerbound_violations;
      const bool consistent = row.violation ? row.certificate_verified
                                            : row.max_messages >= row.bound;
      if (!consistent) ++batch.failed;
    }
    return batch;
  }

  /// Rows that differ from the first timed batch's.
  std::uint64_t mismatches(const std::vector<SweepRow>& rows) const {
    if (rows.size() != first_rows_.size()) return rows.size();
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (!(rows[i] == first_rows_[i])) ++n;
    }
    return n;
  }

  RunConfig config_;
  std::vector<Part> parts_;
  ba::faults::FaultSpec axis_;
  std::vector<SweepRow> first_rows_;
  double serial_s_{0};
  double verify_s_{0};
};

}  // namespace

std::unique_ptr<Workload> make_attack_sweep(const RunConfig& config) {
  return std::make_unique<AttackSweep>(config);
}

}  // namespace perfbench
