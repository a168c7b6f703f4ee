#include "lowerbound/sweep.h"

#include "faults/fault_spec.h"
#include "protocols/weak_consensus.h"

#include <gtest/gtest.h>

#include <sstream>

namespace ba::lowerbound {
namespace {

TEST(Sweep, StandardEntriesConsistentWithTheorem2) {
  auto result = run_attack_sweep(standard_sweep_entries(),
                                 {{12, 11}, {16, 15}});
  ASSERT_EQ(result.rows.size(), 8u);
  EXPECT_TRUE(result.theorem2_consistent());
  for (const SweepRow& row : result.rows) {
    if (row.protocol_name == "dolev-strong-weak") {
      EXPECT_FALSE(row.violation) << "n=" << row.params.n;
      EXPECT_GE(row.max_messages, row.bound);
    } else {
      EXPECT_TRUE(row.violation) << row.protocol_name;
      EXPECT_TRUE(row.certificate_verified) << row.protocol_name;
      EXPECT_FALSE(row.violation_kind.empty());
    }
  }
}

TEST(Sweep, MarkdownRendering) {
  std::vector<SweepEntry> entries;
  entries.push_back({"silent-default", [](const SystemParams&) {
                       return protocols::wc_candidate_silent(1);
                     }});
  auto result = run_attack_sweep(entries, {{12, 11}});
  std::ostringstream os;
  write_markdown(os, result);
  const std::string md = os.str();
  EXPECT_NE(md.find("| protocol | n | t |"), std::string::npos);
  EXPECT_NE(md.find("| silent-default | 12 | 11 |"), std::string::npos);
  EXPECT_NE(md.find("WeakValidity violation (verified)"), std::string::npos);
}

TEST(Sweep, ConsistencyFlagCatchesFabricatedRows) {
  SweepResult r;
  SweepRow bad;
  bad.violation = true;
  bad.certificate_verified = false;  // broken but unverified
  r.rows.push_back(bad);
  EXPECT_FALSE(r.theorem2_consistent());

  SweepResult r2;
  SweepRow cheap;
  cheap.violation = false;
  cheap.max_messages = 1;
  cheap.bound = 10;  // "survives" below the bound: inconsistent
  r2.rows.push_back(cheap);
  EXPECT_FALSE(r2.theorem2_consistent());
}

TEST(Sweep, PoolNeverOutnumbersThePieces) {
  // The pool gets min(resolve_jobs(jobs), pieces) workers. One grid point
  // without a fault axis is one piece, so it runs serially whatever jobs
  // asks for.
  const std::vector<SweepEntry> one = {standard_sweep_entries().front()};
  SweepOptions options;
  options.jobs = 64;
  EXPECT_EQ(run_attack_sweep(one, {{8, 2}}, options).jobs_used, 1u);
  // A crash axis at t = 2 adds one piece per f in 0..2: four in all.
  options.fault_axis = faults::FaultSpec{};
  options.fault_axis->kind = *faults::find_fault_kind("crash");
  EXPECT_EQ(run_attack_sweep(one, {{8, 2}}, options).jobs_used, 4u);
  options.jobs = 3;
  EXPECT_EQ(run_attack_sweep(one, {{8, 2}}, options).jobs_used, 3u);
}

}  // namespace
}  // namespace ba::lowerbound
