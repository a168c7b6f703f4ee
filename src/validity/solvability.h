#pragma once

// §5: the containment condition (Definition 3) and the general solvability
// theorem (Theorem 4).
//
//   * A problem is trivial iff some decision is admissible for every input
//     configuration.
//   * Γ(c) must pick a value admissible for all of Cnt(c) (Lemma 7 says any
//     solving algorithm implicitly computes such a value).
//   * Theorem 4: non-trivial P is authenticated-solvable iff CC holds, and
//     unauthenticated-solvable iff CC holds and n > 3t.
//
// Everything here is exact enumeration over the finite domains of the
// property — Turing-computability made literal.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "validity/property.h"

namespace ba::validity {

/// The intersection over the containment set (Lemma 7's right-hand side):
/// all v in V_O admissible for every c' in Cnt(c).
std::vector<Value> containment_intersection(const ValidityProperty& val,
                                            std::uint32_t t,
                                            const InputConfig& c);

/// Γ(c) by enumeration: the first member of the containment intersection, or
/// nullopt when it is empty (CC fails at c).
std::optional<Value> gamma(const ValidityProperty& val, std::uint32_t t,
                           const InputConfig& c);

/// The first v' in V_O admissible for every c in I, if any: the value a
/// trivial problem decides with zero messages.
std::optional<Value> trivial_value(const ValidityProperty& val,
                                   std::uint32_t n, std::uint32_t t);

/// Triviality: exists v' admissible for every c in I.
bool is_trivial(const ValidityProperty& val, std::uint32_t n, std::uint32_t t);

/// The containment condition: Γ(c) exists for every c in I. When it fails,
/// `witness` (if non-null) receives the first configuration, in
/// for_each_input_config order, with empty intersection.
///
/// Decided level by level in |pi(c)| with
///   Int(c) = val(c) ∩ ⋂_{i ∈ pi(c)} Int(c \ i)   when |pi(c)| > n - t,
///   Int(c) = val(c)                               when |pi(c)| = n - t,
/// since Cnt(c) = {c} ∪ ⋃_i Cnt(c \ i). One pass over I per 64-value block
/// of V_O, with one word of Int per configuration of two adjacent levels
/// live. Throws std::length_error when a level's table (or, for
/// |V_O| > 64, the one bit per configuration of I) would not fit in memory.
bool satisfies_cc(const ValidityProperty& val, std::uint32_t n,
                  std::uint32_t t, InputConfig* witness = nullptr);

struct SolvabilityVerdict {
  bool trivial{false};
  bool cc{false};
  bool authenticated_solvable{false};
  bool unauthenticated_solvable{false};
  /// A configuration where CC fails, when it does.
  std::optional<InputConfig> cc_witness;

  [[nodiscard]] std::string summary() const;
};

/// Theorem 4, plus the convention that trivial problems are solvable with
/// zero messages in both settings.
SolvabilityVerdict solvability(const ValidityProperty& val, std::uint32_t n,
                               std::uint32_t t);

}  // namespace ba::validity
