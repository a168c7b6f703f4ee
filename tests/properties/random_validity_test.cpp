// Property tests over RANDOM validity properties: generate seeded random
// val : I -> 2^{V_O} \ {emptyset} tables for small (n, t), and check the §5
// pipeline end to end:
//   * triviality / CC verdicts are consistent with each other;
//   * whenever CC holds, the solver synthesized by Algorithm 2 over
//     interactive consistency (a) terminates and agrees, (b) only ever
//     decides values admissible for the actual input configuration
//     (Lemma 7's guarantee), under fault-free AND Byzantine executions;
//   * Γ really lies in the containment intersection at every configuration.

#include <gtest/gtest.h>

#include <memory>

#include "core/ba.h"
#include "properties/random_property.h"

namespace ba {
namespace {

constexpr std::uint32_t kN = test_support::kRandomN;
constexpr std::uint32_t kT = test_support::kRandomT;
using test_support::random_property;

class RandomValidity : public ::testing::TestWithParam<int> {};

TEST_P(RandomValidity, GammaLiesInContainmentIntersection) {
  auto prop = random_property(GetParam());
  validity::for_each_input_config(
      kN, kT, prop.input_domain, [&](const validity::InputConfig& c) {
        auto inter = validity::containment_intersection(prop, kT, c);
        auto g = validity::gamma(prop, kT, c);
        EXPECT_EQ(g.has_value(), !inter.empty());
        if (g) {
          EXPECT_NE(std::find(inter.begin(), inter.end(), *g), inter.end());
          // Gamma's pick is admissible for c itself (containment is
          // reflexive).
          EXPECT_TRUE(prop.admissible(c, *g));
        }
        return true;
      });
}

TEST_P(RandomValidity, VerdictInternallyConsistent) {
  auto prop = random_property(GetParam());
  auto v = validity::solvability(prop, kN, kT);
  if (v.trivial) {
    // An always-admissible value is in every containment intersection.
    EXPECT_TRUE(v.cc);
  }
  EXPECT_EQ(v.authenticated_solvable, v.trivial || v.cc);
  EXPECT_EQ(v.unauthenticated_solvable,
            v.trivial || (v.cc && kN > 3 * kT));
  if (!v.cc) {
    ASSERT_TRUE(v.cc_witness.has_value());
    EXPECT_TRUE(
        validity::containment_intersection(prop, kT, *v.cc_witness).empty());
  }
}

TEST_P(RandomValidity, SynthesizedSolverRespectsValidity) {
  auto prop = random_property(GetParam());
  AgreementProblem problem{SystemParams{kN, kT}, prop};
  auto auth = std::make_shared<crypto::Authenticator>(GetParam(), kN);
  auto solver = problem.make_solver(/*authenticated=*/true, auth);
  auto verdict = problem.analyze();
  ASSERT_EQ(solver.has_value(),
            verdict.trivial || verdict.cc);  // Theorem 4
  if (!solver) return;

  // Fault-free: every full proposal vector.
  for (int mask = 0; mask < (1 << kN); ++mask) {
    std::vector<Value> proposals(kN);
    for (std::uint32_t i = 0; i < kN; ++i) {
      proposals[i] = Value::bit((mask >> i) & 1);
    }
    RunOptions lint_opts;
    lint_opts.lint_trace = true;
    RunResult res = run_execution(SystemParams{kN, kT}, *solver, proposals,
                                  Adversary::none(), lint_opts);
    ASSERT_TRUE(res.lint_clean()) << "mask=" << mask << ": " << *res.lint;
    auto d = res.unanimous_correct_decision();
    ASSERT_TRUE(d.has_value()) << "mask=" << mask;
    EXPECT_EQ(problem.check_execution(res.trace), std::nullopt)
        << "mask=" << mask;
  }

  // One Byzantine equivocator in every slot.
  for (ProcessId byz = 0; byz < kN; ++byz) {
    Adversary adv;
    adv.faulty = ProcessSet{{byz}};
    adv.byzantine = adv.faulty;
    adv.byzantine_factory = byz_equivocate_bits(5);
    std::vector<Value> proposals(kN, Value::bit(1));
    RunOptions lint_opts;
    lint_opts.lint_trace = true;
    RunResult res = run_execution(SystemParams{kN, kT}, *solver, proposals,
                                  adv, lint_opts);
    ASSERT_TRUE(res.lint_clean()) << "byz=" << byz << ": " << *res.lint;
    auto d = res.unanimous_correct_decision();
    ASSERT_TRUE(d.has_value()) << "byz=" << byz;
    EXPECT_EQ(problem.check_execution(res.trace), std::nullopt)
        << "byz=" << byz;
  }
}

TEST_P(RandomValidity, UnauthenticatedSolverViaEig) {
  auto prop = random_property(GetParam());
  AgreementProblem problem{SystemParams{kN, kT}, prop};
  auto solver = problem.make_solver(/*authenticated=*/false);
  auto verdict = problem.analyze();
  // kN = 4 > 3 * kT = 3, so CC (or triviality) decides.
  ASSERT_EQ(solver.has_value(), verdict.trivial || verdict.cc);
  if (!solver) return;
  std::vector<Value> proposals{Value::bit(0), Value::bit(1), Value::bit(1),
                               Value::bit(0)};
  RunOptions lint_opts;
  lint_opts.lint_trace = true;
  RunResult res = run_execution(SystemParams{kN, kT}, *solver, proposals,
                                Adversary::none(), lint_opts);
  ASSERT_TRUE(res.lint_clean()) << *res.lint;
  ASSERT_TRUE(res.unanimous_correct_decision().has_value());
  EXPECT_EQ(problem.check_execution(res.trace), std::nullopt);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomValidity,
                         ::testing::Range(0, 24));

// ---------------------------------------------------------------------------
// Pooled campaign: the §5 verdict-consistency checks over a much wider set
// of random validity properties, fanned across the experiment pool with
// index-derived seeds. Workers return a verdict digest (or a failure
// description); the digests double as the determinism witness — identical
// vectors at every worker count.

std::string verdict_point(std::uint64_t seed) {
  auto prop = random_property(seed);
  auto v = validity::solvability(prop, kN, kT);
  if (v.trivial && !v.cc) return prop.name + ": trivial but not CC";
  if (v.authenticated_solvable != (v.trivial || v.cc)) {
    return prop.name + ": authenticated verdict inconsistent";
  }
  if (v.unauthenticated_solvable != (v.trivial || (v.cc && kN > 3 * kT))) {
    return prop.name + ": unauthenticated verdict inconsistent";
  }
  if (!v.cc) {
    if (!v.cc_witness) return prop.name + ": missing CC witness";
    if (!validity::containment_intersection(prop, kT, *v.cc_witness).empty()) {
      return prop.name + ": CC witness has non-empty intersection";
    }
  }
  return std::string("ok t=") + (v.trivial ? "1" : "0") +
         " cc=" + (v.cc ? "1" : "0");
}

TEST(RandomValidityCampaign, PooledVerdictSweepParallelEqualsSerial) {
  constexpr std::size_t kProperties = 64;
  const std::function<std::string(std::size_t)> point = [](std::size_t i) {
    return verdict_point(parallel::derive_task_seed(0x7a11d, i));
  };

  parallel::ExperimentPool serial(1);
  const std::vector<std::string> reference = serial.map(kProperties, point);
  for (const std::string& r : reference) {
    EXPECT_EQ(r.substr(0, 2), "ok") << r;
  }

  parallel::ExperimentPool wide(8);
  EXPECT_EQ(wide.map(kProperties, point), reference);
}

}  // namespace
}  // namespace ba
