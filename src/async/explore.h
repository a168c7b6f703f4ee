#pragma once

// Bounded schedule exploration for the asynchronous executor.
//
// In the async model an execution is fully determined by (protocol,
// proposals, faults, coin seed, delivery schedule); this module quantifies
// over the LAST coordinate. Two modes:
//
//   * exhaustive — enumerate every delivery order for the first `depth`
//     deliveries (branching over the distinct in-flight messages at each
//     step; messages identical as (sender, receiver, payload) lead to
//     indistinguishable continuations and are branched once) and complete
//     each prefix deterministically with the task's completion strategy.
//     For small n and depth this visits an exhaustive cover of the
//     reachable prefix tree — the executable analogue of letting TLC
//     enumerate the Ben_or83 / aba_asyn_byz next-state relations.
//   * sampling — run `samples` schedules, schedule i driven by a random
//     scheduler seeded with derive_task_seed(seed, start_index + i). Seeded,
//     deterministic, resumable: the (seed, index) pair pins each schedule,
//     so a campaign can be split across invocations via start_index.
//
// Every explored schedule is checked against the binary-consensus safety
// conjunction (agreement + validity + integrity). The first violation in
// deterministic enumeration order is minimized — shortest violating prefix,
// then greedy single-choice removal — into a ScheduleCertificate that
// `replay_certificate` (and `ba_cli explore --replay`) reproduces exactly.
//
// Determinism contract: reports are byte-identical for jobs in {1, 2, 8}.
// Parallelism partitions work at deterministic boundaries (top-level
// branches / sample indices) via ExperimentPool and merges in index order;
// within a partition, exploration is sequential.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "async/async_system.h"
#include "runtime/types.h"

namespace ba::async {

/// The fixed coordinates of one exploration campaign.
struct ExploreTask {
  /// Async protocol registry name (async/protocols.h).
  std::string protocol{"ben-or"};
  SystemParams params{};
  /// Proposal bits, one per process (0/1).
  std::vector<int> proposals;
  /// Crash-from-start processes (must have size <= t).
  ProcessSet faulty;
  std::uint64_t coin_seed{1};
  /// Strategy completing each explored prefix to quiescence
  /// (scheduler_strategy_list()); fifo keeps enumeration order canonical.
  std::string completion_strategy{"fifo"};
  std::uint64_t completion_seed{1};
  /// Per-run delivery cap forwarded to the executor.
  std::uint64_t max_deliveries{100000};
};

struct ExploreOptions {
  /// true: exhaustive prefix enumeration; false: seeded sampling.
  bool exhaustive{false};
  /// Exhaustive mode: branching depth (deliveries enumerated per schedule).
  std::uint32_t depth{4};
  /// Sampling mode: number of schedules this invocation runs.
  std::uint64_t samples{64};
  /// Sampling mode: campaign master seed.
  std::uint64_t seed{1};
  /// Sampling mode: index of the first schedule (resume point).
  std::uint64_t start_index{0};
  /// Worker threads (0 = hardware concurrency), capped at the partition
  /// count. Results are identical for any value.
  std::uint32_t jobs{1};
};

/// A replayable witness of one safety violation: the full run coordinates
/// plus the minimized scripted-choice prefix. Completion beyond the prefix
/// uses the recorded strategy, so replay is exact.
struct ScheduleCertificate {
  std::string protocol;
  SystemParams params{};
  std::vector<int> proposals;
  ProcessSet faulty;
  std::uint64_t coin_seed{1};
  std::string completion_strategy{"fifo"};
  std::uint64_t completion_seed{1};
  std::uint64_t max_deliveries{100000};
  std::vector<std::uint32_t> choices;
  /// Violated property: "agreement" | "validity" | "integrity".
  std::string property;
  /// Human-readable account of the violating decisions.
  std::string detail;

  /// Line-oriented text form (stable; versioned header "ba-async-cert v1").
  [[nodiscard]] std::string encode() const;
  /// Parses `encode` output. Throws std::invalid_argument with a
  /// line-numbered message on malformed input.
  static ScheduleCertificate decode(const std::string& text);
};

struct ExploreReport {
  /// Complete schedules executed and checked.
  std::uint64_t schedules{0};
  /// Total deliveries across all complete schedules.
  std::uint64_t deliveries{0};
  /// Schedules on which every run quiesced.
  std::uint64_t quiesced{0};
  /// Schedules on which all correct processes decided.
  std::uint64_t all_decided{0};
  /// Safety violations found (first one per top-level partition; a clean
  /// protocol reports 0).
  std::uint64_t violations{0};
  /// Minimized certificate of the first violation in enumeration order.
  std::optional<ScheduleCertificate> certificate;
  /// Order-sensitive digest of every explored schedule's choices, decisions
  /// and counters — the jobs-independence battery compares these.
  std::uint64_t digest{0};
  /// Sampling mode: start_index + samples (pass as the next start_index).
  std::uint64_t next_index{0};
};

/// Checks the binary-consensus safety conjunction on one run's decisions:
/// integrity (every correct decision is a bit), agreement (correct
/// decisions pairwise equal), validity (every correct decision equals some
/// correct process's proposal). Returns the violated property + detail, or
/// nullopt when safe. Undecided processes are permissible (liveness is
/// quantified separately).
struct SafetyViolation {
  std::string property;
  std::string detail;
};
[[nodiscard]] std::optional<SafetyViolation> binary_consensus_safety(
    const SystemParams& params, const std::vector<int>& proposals,
    const ProcessSet& faulty,
    const std::vector<std::optional<Value>>& decisions);

/// Runs one exploration campaign. Throws std::invalid_argument on an
/// unknown protocol/strategy or malformed task (proposal count, |faulty|).
[[nodiscard]] ExploreReport explore(const ExploreTask& task,
                                    const ExploreOptions& options);

/// Re-executes a certificate's schedule and returns the run (trace
/// recorded). The caller re-checks safety via binary_consensus_safety to
/// confirm the violation reproduces.
[[nodiscard]] AsyncRunResult replay_certificate(
    const ScheduleCertificate& cert, const AsyncRunOptions& options = {});

}  // namespace ba::async
