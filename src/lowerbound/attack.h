#pragma once

// The Theorem 2 attack engine: the constructive form of the paper's
// lower-bound proof (§3). Given ANY weak-consensus protocol, it builds the
// executions of Table 1, locates the critical round of Lemma 4, merges
// per Lemma 5 / Figure 2, and — when the protocol's message complexity is
// below t^2/32 — extracts a machine-checkable violation certificate via
// Lemma 2 and swap_omission.
//
// For correct protocols (which necessarily send >= t^2/32 messages) every
// certificate attempt fails and the engine reports the observed message
// complexity against the bound instead.

#include <cstdint>
#include <optional>
#include <string>

#include "engine/backend.h"
#include "lowerbound/certificate.h"
#include "runtime/process.h"
#include "runtime/types.h"

namespace ba::lowerbound {

struct AttackOptions {
  Round max_rounds{4000};
  /// Override the isolated groups (defaults: the last 2*floor(t/4), split in
  /// half; group size at least 1).
  std::optional<ProcessSet> group_b;
  std::optional<ProcessSet> group_c;
  /// Probe every isolated execution with the Lemma 2 violation finder
  /// directly (a sound strengthening that often short-circuits the hunt).
  /// Disable to force the paper's pure critical-round + merge route.
  bool direct_lemma2{true};
  /// Execution backend evaluating every constructed execution; null means
  /// engine::default_backend() (the lockstep executor). Must support traces
  /// (engine::Capability::kTraces) — the engine merges and lints them. A
  /// shared handle keeps AttackOptions copyable and cheap to fan across the
  /// experiment pool; backends are const and thread-safe by contract.
  engine::BackendHandle backend{};
};

struct AttackReport {
  bool violation_found{false};
  std::optional<ViolationCertificate> certificate;
  /// Step-by-step log of the constructions performed.
  std::string narrative;
  /// Largest message complexity among the constructed executions.
  std::uint64_t max_message_complexity{0};
  /// The paper's bound t^2 / 32.
  std::uint64_t bound{0};
  /// The proposal bit of the execution family that flipped (Lemma 4).
  std::optional<int> family_bit;
  /// The critical round R (decision flips between E^B(R) and E^B(R+1)).
  std::optional<Round> critical_round;
  /// The default bit (decision of A in E_0^B(1)).
  std::optional<int> default_bit;
};

/// Runs the full attack against `protocol` (a candidate binary
/// weak-consensus protocol in the omission model). Executions are kept only
/// while they can still be read: the fault-free E_0 and E_1 are dropped as
/// soon as they are checked (only their R_max survives, unless one becomes
/// a Weak Validity certificate), the round-1 executions once the family is
/// picked, and the Lemma 4 scan holds only E^B(k-1) and E^B(k).
AttackReport attack_weak_consensus(const SystemParams& params,
                                   const ProtocolFactory& protocol,
                                   const AttackOptions& options = {});

/// t^2/32, the Lemma 1 threshold.
inline std::uint64_t lemma1_bound(std::uint32_t t) {
  return static_cast<std::uint64_t>(t) * t / 32;
}

}  // namespace ba::lowerbound
