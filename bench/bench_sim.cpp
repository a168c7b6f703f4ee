// R-sim — throughput of the discrete-event simulator (src/sim/): events/sec
// and messages/sec for Dolev-Strong broadcast over the zero-jitter
// synchronous model at n in {8, 16, 32}. Complements bench_runtime (the
// lockstep executor on the same workload): the delta between the two is the
// cost of the simulator's routing step — per-message latency sampling and
// fault-plan lookups, and the per-link metric updates.
//
// The full run drops BENCH_sim.json next to the binary in the same schema
// as BENCH_runtime.json; CI's bench-smoke job uploads both artifacts.

#include "bench_util.h"

#include <chrono>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace ba::bench {
namespace {

struct SimRow {
  std::string protocol;
  std::uint32_t n{0};
  std::uint32_t t{0};
  double events_per_run{0};
  double msgs_per_run{0};
  double events_per_sec{0};
  double msgs_per_sec{0};
};

std::map<std::pair<std::string, std::uint32_t>, SimRow>& rows() {
  static std::map<std::pair<std::string, std::uint32_t>, SimRow> r;
  return r;
}

void write_sim_bench_json(std::ostream& os) {
  os << "{\n"
     << "  \"experiment\": \"sim_throughput\",\n"
     << "  \"rows\": [\n";
  std::size_t i = 0;
  for (const auto& [key, row] : rows()) {
    os << "    {\"protocol\": \"" << row.protocol << "\", \"n\": " << row.n
       << ", \"t\": " << row.t
       << ", \"events_per_run\": " << row.events_per_run
       << ", \"msgs_per_run\": " << row.msgs_per_run
       << ", \"events_per_sec\": " << row.events_per_sec
       << ", \"msgs_per_sec\": " << row.msgs_per_sec << "}"
       << (++i < rows().size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

void SimDolevStrong(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  // The same workload bench_runtime measures on the lockstep executor
  // (bench_util.h), so the delta between the two benches is the routing
  // step.
  const Workload w = make_workload("dolev_strong", n);

  sim::SimConfig config;
  config.record_trace = false;  // hot path proper, like bench_runtime
  config.collect_metrics = true;

  std::uint64_t events = 0;
  std::uint64_t msgs = 0;
  std::uint64_t iters = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    sim::SimResult res = sim::simulate(w.params, w.factory, w.proposals,
                                       Adversary::none(), config);
    events += res.events_processed;
    msgs += res.run.messages_sent_total;
    ++iters;
    benchmark::DoNotOptimize(res.run.decisions.data());
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  SimRow row;
  row.protocol = w.name;
  row.n = n;
  row.t = w.params.t;
  row.events_per_run =
      static_cast<double>(events) / static_cast<double>(iters);
  row.msgs_per_run = static_cast<double>(msgs) / static_cast<double>(iters);
  row.events_per_sec = secs > 0 ? static_cast<double>(events) / secs : 0;
  row.msgs_per_sec = secs > 0 ? static_cast<double>(msgs) / secs : 0;
  rows()[{row.protocol, n}] = row;

  state.counters["events_per_run"] = row.events_per_run;
  state.counters["msgs_per_run"] = row.msgs_per_run;
  state.counters["events_per_sec"] = row.events_per_sec;
  state.counters["msgs_per_sec"] = row.msgs_per_sec;
}

}  // namespace
}  // namespace ba::bench

BENCHMARK(ba::bench::SimDolevStrong)
    ->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::ofstream out("BENCH_sim.json");
  ba::bench::write_sim_bench_json(out);
  return 0;
}
