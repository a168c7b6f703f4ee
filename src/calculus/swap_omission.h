#pragma once

// Algorithm 4 (procedure swap_omission) and the Lemma 15 side conditions.
//
// swap_omission(E, p_i) rewrites execution E so that every message p_i
// receive-omitted becomes *send-omitted by its sender* instead. The receive
// histories of all processes are untouched, so E' is indistinguishable from E
// to everyone — but p_i is now *correct* in E'. This is the device that turns
// "an isolated process disagreed" into "a correct process disagreed",
// producing a checkable counterexample execution.

#include <optional>
#include <string>

#include "runtime/trace.h"
#include "runtime/types.h"

namespace ba::calculus {

struct SwapResult {
  ExecutionTrace execution;  // E' with the recomputed faulty set F'
  /// The process the swap was performed for (correct in E').
  ProcessId subject{kNoProcess};
};

/// Algorithm 4. The returned trace carries the recomputed faulty set F' =
/// { p_z | p_z still commits an omission in E' }. Callers must check the
/// Lemma 15 preconditions (|F'| <= t etc.) — see `check_swap_preconditions`.
SwapResult swap_omission(const ExecutionTrace& e, ProcessId p_i);

/// Lemma 15 preconditions, evaluated on E (before the swap):
///  * p_i never send-omits in E;
///  * the blame set S (senders of p_i's receive-omitted messages) together
///    with the other faulty processes stays within t;
///  * some process p_h != p_i is correct in E and sent nothing p_i omitted
///    (so p_h stays correct in E').
/// Returns such a witness p_h on success, or an error string.
///
/// `e` must pass `ExecutionTrace::validate()` (every executor-built trace
/// does): the check looks a sent message up in p_i's receive-omitted set
/// only when it is addressed to p_i, which is exact only when every
/// receive-omitted record of p_i names p_i as its receiver.
struct SwapPreconditions {
  bool ok{false};
  std::string error;
  ProcessId witness_correct{kNoProcess};  // the paper's p_h / p_X
  ProcessSet new_faulty;                  // predicted F'
};
SwapPreconditions check_swap_preconditions(const ExecutionTrace& e,
                                           ProcessId p_i);

}  // namespace ba::calculus
