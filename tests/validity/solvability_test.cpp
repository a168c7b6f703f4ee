// Tests for §5: the containment condition, triviality, the general
// solvability theorem (Theorem 4), and the Theorem 5 corollary for strong
// consensus. Also cross-checks every canned property's closed-form Γ against
// the generic enumerator, and the one-pass CC decision against the
// definitional per-configuration scan.

#include "validity/solvability.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "properties/random_property.h"
#include "runtime/serde.h"
#include "validity/algebra.h"
#include "validity/properties.h"

namespace ba::validity {
namespace {

void cross_check_gamma(const ValidityProperty& p, std::uint32_t n,
                       std::uint32_t t) {
  for_each_input_config(n, t, p.input_domain, [&](const InputConfig& c) {
    auto slow = gamma(p, t, c);
    auto fast = p.gamma_fast(c);
    EXPECT_EQ(slow.has_value(), fast.has_value())
        << p.name << " at " << c.to_value();
    if (slow && fast) {
      // Both picks must lie in the containment intersection (they may be
      // different members).
      auto inter = containment_intersection(p, t, c);
      EXPECT_NE(std::find(inter.begin(), inter.end(), *fast), inter.end())
          << p.name << " fast-gamma outside intersection at " << c.to_value();
    }
    return true;
  });
}

TEST(Gamma, FastPathsAgreeWithEnumeration) {
  cross_check_gamma(weak_validity(4, 2), 4, 2);
  cross_check_gamma(strong_validity(4, 2), 4, 2);
  cross_check_gamma(strong_validity(5, 2), 5, 2);
  cross_check_gamma(sender_validity(4, 2, 0), 4, 2);
  cross_check_gamma(sender_validity(4, 2, 3), 4, 2);
  cross_check_gamma(ic_validity(3, 1), 3, 1);
  cross_check_gamma(any_proposed_validity(4, 1), 4, 1);
  cross_check_gamma(any_proposed_validity(4, 2), 4, 2);
  cross_check_gamma(any_proposed_validity(5, 2, int_domain(3)), 5, 2);
  cross_check_gamma(constant_validity(4, 2), 4, 2);
}

TEST(Triviality, ConstantIsTrivialOthersAreNot) {
  EXPECT_TRUE(is_trivial(constant_validity(4, 1), 4, 1));
  EXPECT_FALSE(is_trivial(weak_validity(4, 1), 4, 1));
  EXPECT_FALSE(is_trivial(strong_validity(4, 1), 4, 1));
  EXPECT_FALSE(is_trivial(sender_validity(4, 1, 0), 4, 1));
  EXPECT_FALSE(is_trivial(ic_validity(3, 1), 3, 1));
  EXPECT_FALSE(is_trivial(any_proposed_validity(4, 1), 4, 1));
}

TEST(ContainmentCondition, WeakValidityAlwaysSatisfiesCC) {
  EXPECT_TRUE(satisfies_cc(weak_validity(4, 1), 4, 1));
  EXPECT_TRUE(satisfies_cc(weak_validity(4, 3), 4, 3));  // even n <= 2t
  EXPECT_TRUE(satisfies_cc(weak_validity(5, 4), 5, 4));
}

TEST(ContainmentCondition, SenderAndIcAlwaysSatisfyCC) {
  EXPECT_TRUE(satisfies_cc(sender_validity(4, 3, 0), 4, 3));
  EXPECT_TRUE(satisfies_cc(sender_validity(4, 3, 2), 4, 3));
  EXPECT_TRUE(satisfies_cc(ic_validity(3, 2), 3, 2));
  EXPECT_TRUE(satisfies_cc(ic_validity(4, 3), 4, 3));
}

TEST(ContainmentCondition, StrongConsensusThresholdAtTwoT) {
  // Theorem 5: strong consensus satisfies CC iff n > 2t.
  EXPECT_TRUE(satisfies_cc(strong_validity(5, 2), 5, 2));
  EXPECT_TRUE(satisfies_cc(strong_validity(3, 1), 3, 1));
  EXPECT_FALSE(satisfies_cc(strong_validity(4, 2), 4, 2));
  EXPECT_FALSE(satisfies_cc(strong_validity(2, 1), 2, 1));
  EXPECT_FALSE(satisfies_cc(strong_validity(6, 3), 6, 3));
}

TEST(ContainmentCondition, Theorem5WitnessIsTheHalfHalfSplit) {
  InputConfig witness;
  ASSERT_FALSE(satisfies_cc(strong_validity(4, 2), 4, 2, &witness));
  // The failing configuration must contain both a uniform-0 and a uniform-1
  // contained configuration of size >= n - t = 2.
  std::size_t zeros = 0, ones = 0;
  for (std::size_t i = 0; i < witness.n(); ++i) {
    if (witness[i].has_value()) {
      (*witness[i] == Value::bit(0) ? zeros : ones) += 1;
    }
  }
  EXPECT_GE(zeros, 2u);
  EXPECT_GE(ones, 2u);
}

TEST(ContainmentCondition, AnyProposedThresholds) {
  // Binary: CC iff n > 2t.
  EXPECT_TRUE(satisfies_cc(any_proposed_validity(5, 2), 5, 2));
  EXPECT_FALSE(satisfies_cc(any_proposed_validity(4, 2), 4, 2));
  // Ternary domain at n = 6, t = 2: the 2/2/2 full configuration defeats Γ
  // even though n > 2t.
  EXPECT_FALSE(
      satisfies_cc(any_proposed_validity(6, 2, int_domain(3)), 6, 2));
  // ... but n = 7, t = 2 ternary is fine (some value always survives).
  EXPECT_TRUE(satisfies_cc(any_proposed_validity(7, 2, int_domain(3)), 7, 2));
}

TEST(Solvability, Theorem4Verdicts) {
  // Strong consensus n = 7, t = 2: CC holds, n > 3t: solvable everywhere.
  auto v = solvability(strong_validity(7, 2), 7, 2);
  EXPECT_FALSE(v.trivial);
  EXPECT_TRUE(v.cc);
  EXPECT_TRUE(v.authenticated_solvable);
  EXPECT_TRUE(v.unauthenticated_solvable);

  // Strong consensus n = 5, t = 2: CC holds, n <= 3t: authenticated only.
  v = solvability(strong_validity(5, 2), 5, 2);
  EXPECT_TRUE(v.cc);
  EXPECT_TRUE(v.authenticated_solvable);
  EXPECT_FALSE(v.unauthenticated_solvable);

  // Strong consensus n = 4, t = 2: CC fails: unsolvable everywhere.
  v = solvability(strong_validity(4, 2), 4, 2);
  EXPECT_FALSE(v.cc);
  EXPECT_FALSE(v.authenticated_solvable);
  EXPECT_FALSE(v.unauthenticated_solvable);
  EXPECT_TRUE(v.cc_witness.has_value());

  // Byzantine broadcast n = 4, t = 3: any resilience, authenticated.
  v = solvability(sender_validity(4, 3, 0), 4, 3);
  EXPECT_TRUE(v.authenticated_solvable);
  EXPECT_FALSE(v.unauthenticated_solvable);  // n <= 3t

  // Trivial problem: solvable everywhere (zero messages).
  v = solvability(constant_validity(4, 3), 4, 3);
  EXPECT_TRUE(v.trivial);
  EXPECT_TRUE(v.authenticated_solvable);
  EXPECT_TRUE(v.unauthenticated_solvable);
}

TEST(Solvability, SummaryStringsReadable) {
  auto v = solvability(strong_validity(4, 2), 4, 2);
  EXPECT_NE(v.summary().find("CC fails"), std::string::npos);
  EXPECT_NE(v.summary().find("UNSOLVABLE"), std::string::npos);
}

TEST(ContainmentIntersection, MatchesLemma7Shape) {
  // Weak validity, full uniform-0 configuration: only 0 survives.
  auto p = weak_validity(4, 1);
  auto inter =
      containment_intersection(p, 1, InputConfig::uniform(4, Value::bit(0)));
  ASSERT_EQ(inter.size(), 1u);
  EXPECT_EQ(inter[0], Value::bit(0));

  // Weak validity, full mixed configuration: everything survives (only the
  // full uniform execution is constrained, and it is not contained here).
  inter = containment_intersection(
      p, 1,
      InputConfig::full({Value::bit(0), Value::bit(1), Value::bit(0),
                         Value::bit(0)}));
  EXPECT_EQ(inter.size(), 2u);
}

/// The definitional CC scan: the first configuration, in
/// for_each_input_config order, whose containment intersection is empty.
std::optional<InputConfig> reference_cc_witness(const ValidityProperty& p,
                                                std::uint32_t n,
                                                std::uint32_t t) {
  std::optional<InputConfig> witness;
  for_each_input_config(n, t, p.input_domain, [&](const InputConfig& c) {
    if (!containment_intersection(p, t, c).empty()) return true;
    witness = c;
    return false;
  });
  return witness;
}

/// satisfies_cc must reach the reference's verdict and, when CC fails, the
/// same witness byte for byte.
void expect_cc_matches_reference(const ValidityProperty& p, std::uint32_t n,
                                 std::uint32_t t) {
  const std::optional<InputConfig> want = reference_cc_witness(p, n, t);
  InputConfig got;
  const bool cc = satisfies_cc(p, n, t, &got);
  ASSERT_EQ(cc, !want.has_value()) << p.name << " at n=" << n << ", t=" << t;
  if (want) {
    EXPECT_EQ(encode_value(got.to_value()), encode_value(want->to_value()))
        << p.name << " at n=" << n << ", t=" << t << ": got "
        << got.to_value() << ", want " << want->to_value();
  }
}

/// Strong validity over a 130-value decision domain: unanimous u admits u,
/// 64 + u and 128 + u, one value in each 64-value block of V_O, so Int(c)
/// is empty only where it is empty in every block.
ValidityProperty wide_strong_validity() {
  ValidityProperty p;
  p.name = "wide-strong-validity";
  p.input_domain = binary_domain();
  p.output_domain = int_domain(130);
  p.admissible = [](const InputConfig& c, const Value& v) {
    const std::optional<Value> u = c.uniform_value();
    return !u || v.as_int() % 64 == (u->as_bool() ? 1 : 0);
  };
  return p;
}

const std::pair<std::uint32_t, std::uint32_t> kEquivalencePoints[] = {
    {2, 1}, {3, 1}, {4, 1}, {4, 2}, {5, 2}, {6, 3}, {7, 2}};

TEST(ContainmentCondition, OnePassMatchesReferenceOnCannedProperties) {
  for (const auto& [n, t] : kEquivalencePoints) {
    for (const ValidityProperty& p :
         {weak_validity(n, t), strong_validity(n, t),
          sender_validity(n, t, 0), sender_validity(n, t, n - 1),
          ic_validity(n, t), any_proposed_validity(n, t),
          constant_validity(n, t), any_proposed_validity(n, t, int_domain(3)),
          conjunction(weak_validity(n, t), any_proposed_validity(n, t)),
          conjunction(strong_validity(n, t), any_proposed_validity(n, t)),
          wide_strong_validity()}) {
      expect_cc_matches_reference(p, n, t);
    }
  }
  // Ternary any-proposed also fails CC above n = 2t (the 2/2/2 split).
  expect_cc_matches_reference(any_proposed_validity(6, 2, int_domain(3)), 6,
                              2);
}

TEST(ContainmentCondition, OnePassMatchesReferenceOnRandomProperties) {
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    expect_cc_matches_reference(test_support::random_property(seed),
                                test_support::kRandomN,
                                test_support::kRandomT);
  }
}

TEST(ContainmentCondition, WitnessBytesArePinned) {
  const Value b0 = Value::bit(0);
  const Value b1 = Value::bit(1);
  const auto witness_bytes = [](const ValidityProperty& p, std::uint32_t n,
                                std::uint32_t t) {
    InputConfig witness;
    EXPECT_FALSE(satisfies_cc(p, n, t, &witness)) << p.name;
    return encode_value(witness.to_value());
  };
  EXPECT_EQ(witness_bytes(strong_validity(4, 2), 4, 2),
            encode_value(InputConfig::full({b0, b0, b1, b1}).to_value()));
  EXPECT_EQ(witness_bytes(strong_validity(6, 3), 6, 3),
            encode_value(
                InputConfig::full({b0, b0, b0, b1, b1, b1}).to_value()));
  EXPECT_EQ(witness_bytes(any_proposed_validity(4, 2), 4, 2),
            encode_value(InputConfig::full({b0, b0, b1, b1}).to_value()));
}

TEST(ContainmentCondition, UntabulatableLevelThrowsLengthError) {
  // Level 32 of (64, 32) holds C(64, 32) * 2^32 > 2^64 configurations.
  try {
    (void)satisfies_cc(strong_validity(64, 32), 64, 32);
    FAIL() << "expected std::length_error";
  } catch (const std::length_error& e) {
    EXPECT_STREQ(e.what(), "satisfies_cc: I is too large to tabulate");
  }
}

TEST(Triviality, TrivialValueIsTheFirstAlwaysAdmissibleDecision) {
  EXPECT_EQ(trivial_value(constant_validity(4, 1), 4, 1), Value::bit(0));
  EXPECT_EQ(trivial_value(constant_validity(4, 1, {Value::bit(1),
                                                   Value::bit(0)}),
                          4, 1),
            Value::bit(1));
  EXPECT_EQ(trivial_value(weak_validity(4, 1), 4, 1), std::nullopt);
  EXPECT_EQ(trivial_value(sender_validity(4, 1, 0), 4, 1), std::nullopt);
}

}  // namespace
}  // namespace ba::validity
