#pragma once

// SyncAdapter: the lockstep-parity bridge between the discrete-event
// simulator and the synchronous round executor.
//
// `run_execution_sim` accepts exactly the arguments of
// `run_execution` (runtime/sync_system.h) and runs them through the
// simulator under the zero-jitter synchronous link model. The contract —
// asserted protocol-by-protocol in tests/sim/sim_parity_test.cpp — is
// bit-identical output: same decisions, same message counts, same full
// event trace, same quiescence verdict. This is the executable proof that
// the simulator implements the paper's synchronous model (§2),
// not an approximation of it, and it makes the simulator a drop-in
// executor for every experiment in the repo.

#include <vector>

#include "runtime/sync_system.h"
#include "sim/simulator.h"

namespace ba::sim {

/// Runs one execution through the simulator's synchronous model with
/// semantics identical to `run_execution`.
RunResult run_execution_sim(const SystemParams& params,
                            const ProtocolFactory& protocol,
                            const std::vector<Value>& proposals,
                            const Adversary& adversary,
                            const RunOptions& options = {});

/// Translates lockstep RunOptions into the equivalent SimConfig (zero
/// jitter, one tick per round, metrics off — the pure parity substrate).
SimConfig sync_config(const RunOptions& options);

}  // namespace ba::sim
