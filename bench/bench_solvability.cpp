// E7 — Theorem 4 / Theorem 5: the solvability landscape.
//
// For each canned validity property and (n, t), this reports the Theorem 4
// verdict (trivial / CC / authenticated / unauthenticated) and times the
// exact CC decision procedure (one level-by-level pass over I per 64-value
// block of V_O; docs/RUNTIME_PERF.md §5).
//
// Expected shape:
//   weak, sender, IC   : CC holds at every resilience (auth-solvable always,
//                        unauth iff n > 3t);
//   strong             : CC iff n > 2t (Theorem 5);
//   any-proposed binary: CC iff n > 2t; ternary fails even at some n > 2t;
//   constant           : trivial.

#include "bench_util.h"

namespace ba::bench {
namespace {

void verdict_counters(benchmark::State& state,
                      const validity::ValidityProperty& prop, std::uint32_t n,
                      std::uint32_t t) {
  validity::SolvabilityVerdict v;
  for (auto _ : state) {
    v = validity::solvability(prop, n, t);
  }
  state.counters["n"] = n;
  state.counters["t"] = t;
  state.counters["trivial"] = v.trivial ? 1 : 0;
  state.counters["cc"] = v.cc ? 1 : 0;
  state.counters["auth"] = v.authenticated_solvable ? 1 : 0;
  state.counters["unauth"] = v.unauthenticated_solvable ? 1 : 0;
  state.counters["input_configs"] = static_cast<double>(
      validity::count_input_configs(n, t, prop.input_domain.size()));
}

void SolvabilityWeak(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto t = static_cast<std::uint32_t>(state.range(1));
  verdict_counters(state, validity::weak_validity(n, t), n, t);
}

void SolvabilityStrong(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto t = static_cast<std::uint32_t>(state.range(1));
  verdict_counters(state, validity::strong_validity(n, t), n, t);
}

void SolvabilitySender(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto t = static_cast<std::uint32_t>(state.range(1));
  verdict_counters(state, validity::sender_validity(n, t, 0), n, t);
}

void SolvabilityIC(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto t = static_cast<std::uint32_t>(state.range(1));
  verdict_counters(state, validity::ic_validity(n, t), n, t);
}

void SolvabilityAnyProposedBinary(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto t = static_cast<std::uint32_t>(state.range(1));
  verdict_counters(state, validity::any_proposed_validity(n, t), n, t);
}

void SolvabilityAnyProposedTernary(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto t = static_cast<std::uint32_t>(state.range(1));
  verdict_counters(
      state, validity::any_proposed_validity(n, t, validity::int_domain(3)),
      n, t);
}

void SolvabilityConstant(benchmark::State& state) {
  verdict_counters(state, validity::constant_validity(5, 2), 5, 2);
}

}  // namespace
}  // namespace ba::bench

// (n, t) grid spanning the interesting thresholds n = 2t and n = 3t.
#define BA_GRID                                                       \
  ->Args({4, 1})->Args({5, 2})->Args({4, 2})->Args({6, 2})->Args({7, 2})
BENCHMARK(ba::bench::SolvabilityWeak) BA_GRID->Unit(benchmark::kMillisecond);
BENCHMARK(ba::bench::SolvabilityStrong)
    BA_GRID->Unit(benchmark::kMillisecond);
BENCHMARK(ba::bench::SolvabilitySender)
    BA_GRID->Unit(benchmark::kMillisecond);
BENCHMARK(ba::bench::SolvabilityIC)
    ->Args({3, 1})->Args({4, 1})->Args({4, 2})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(ba::bench::SolvabilityAnyProposedBinary)
    BA_GRID->Unit(benchmark::kMillisecond);
BENCHMARK(ba::bench::SolvabilityAnyProposedTernary)
    ->Args({6, 2})->Args({7, 2})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(ba::bench::SolvabilityConstant)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
