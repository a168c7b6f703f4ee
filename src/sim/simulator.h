#pragma once

// The deterministic discrete-event network simulator.
//
// Where runtime/sync_system.cpp delivers every message at its round
// boundary, the simulator gives every message its own latency in logical
// time: a link model (sim/link.h) samples it and a fault plan (sim/fault.h)
// may add delay. It runs as a round loop with the same three phases as
// `run_execution`, because a message that is delivered at all lands inside
// the round it was sent in:
//
//   outboxes   every process computes its round-r outbox from its state at
//              the start of round r, (r-1)*Δ;
//   routing    senders in ascending order: omissions are applied, then each
//              surviving message takes its latency. A latency past Δ makes
//              it late (recorded as an omission); otherwise fault-plan delay
//              is added, clamped to Δ, and the message goes to its
//              receiver's inbox. Per-link counters and the latency
//              histogram advance here;
//   delivery   at r*Δ every inbox, already in canonical (ascending-sender)
//              order, is delivered.
//
// Arrival order: within a round, a receiver's messages arrive in order of
// (latency, sender) — by latency, and at equal latency in routing order.
// Only the `reordered` metric observes it; the state machines see the
// canonical order. `events_processed` and `end_time` report the run as the
// event sequence it describes: per round one start, one arrival per
// delivered message and one end, the last end at rounds*Δ.
//
// Determinism contract: every latency is a pure SipHash function of the
// message identity, so a simulation is a deterministic function of its
// arguments. No wall clock, no global RNG, no iteration over unordered
// containers.
//
// Faults flow through the static-adversary machinery (runtime/fault.h,
// src/adversary/): the FaultPlan compiles to omission predicates, and
// model-late messages (partial synchrony before GST) are recorded as
// receive omissions blamed on the lagging — declared-faulty — receiver.
// The emitted ExecutionTrace is therefore indistinguishable in vocabulary
// from a lockstep trace, and the src/analysis lint invariants
// (conservation, budget, determinism, quiescence) apply unchanged.
//
// Parity guarantee (tested in tests/sim/sim_parity_test.cpp): under the
// zero-jitter synchronous model with no fault plan, `simulate` produces
// decisions, message counts, and full traces bit-identical to
// `run_execution` for any protocol and adversary.

#include <cstdint>
#include <optional>
#include <vector>

#include "runtime/fault.h"
#include "runtime/process.h"
#include "runtime/sync_system.h"
#include "sim/fault.h"
#include "sim/link.h"
#include "sim/metrics.h"

namespace ba::sim {

struct SimConfig {
  LinkModel link{};
  /// Logical length of one round, in ticks. Latencies are resolved against
  /// this (0-latency models mean "the full round").
  SimTime round_ticks{256};
  Round max_rounds{1000};
  bool record_trace{true};
  bool stop_on_quiescence{true};
  /// Lint the recorded trace with the analysis linter and attach the report
  /// to the embedded RunResult. Requires record_trace: `simulate` throws
  /// std::invalid_argument on lint_trace without record_trace.
  bool lint_trace{false};
  /// Statically derived message budget forwarded to the linter's budget
  /// invariant (see RunOptions::message_budget).
  std::optional<std::uint64_t> message_budget;
  bool collect_metrics{true};
};

struct SimResult {
  /// Same contract as run_execution's result: trace, decisions, message
  /// counts, rounds, quiescence, optional lint report.
  RunResult run;
  NetMetrics metrics;
  /// Events in the run's event view: one start and one end per executed
  /// round plus one arrival per delivered message.
  std::uint64_t events_processed{0};
  /// Logical time at which the simulation stopped.
  SimTime end_time{0};
};

/// Runs one simulated execution. The effective adversary is
/// `plan.apply_to(adversary)` with the link model's required_faulty() set
/// added; throws std::invalid_argument if the combined faulty set exceeds t
/// or the plan references out-of-range processes.
SimResult simulate(const SystemParams& params, const ProtocolFactory& protocol,
                   const std::vector<Value>& proposals,
                   const Adversary& adversary, const FaultPlan& plan,
                   const SimConfig& config = {});

/// Fault-plan-free convenience overload.
SimResult simulate(const SystemParams& params, const ProtocolFactory& protocol,
                   const std::vector<Value>& proposals,
                   const Adversary& adversary, const SimConfig& config = {});

}  // namespace ba::sim
