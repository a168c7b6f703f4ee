// Tests for the Appendix-A execution calculus: isolation (Definition 1),
// mergeability (Definition 2), swap_omission (Algorithm 4 / Lemma 15) and
// merge (Algorithm 5 / Lemma 16).

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "adversary/omission.h"
#include "calculus/isolation.h"
#include "calculus/merge.h"
#include "calculus/swap_omission.h"
#include "crypto/signature.h"
#include "protocols/common.h"
#include "protocols/registry.h"
#include "protocols/weak_consensus.h"
#include "runtime/sync_system.h"

namespace ba::calculus {
namespace {

/// A chatty deterministic protocol: everyone multicasts its running XOR for
/// three rounds, then decides it. Gives merge/swap real message flow to work
/// on without protocol-specific structure.
class XorChatter final : public protocols::DecidingProcess {
 public:
  explicit XorChatter(const ProcessContext& ctx)
      : ctx_(ctx), acc_(ctx.proposal.try_bit().value_or(0)) {}

  Outbox outbox_for_round(Round r) override {
    Outbox out;
    if (r <= 3) {
      for (ProcessId p = 0; p < ctx_.params.n; ++p) {
        if (p != ctx_.self) out.push_back(Outgoing{p, Value::bit(acc_)});
      }
    }
    return out;
  }
  void deliver(Round r, const Inbox& inbox) override {
    for (const Message& m : inbox) acc_ ^= m.payload.try_bit().value_or(0);
    if (r == 3) decide(Value::bit(acc_));
  }

 private:
  ProcessContext ctx_;
  int acc_;
};

ProtocolFactory xor_chatter() {
  return [](const ProcessContext& ctx) {
    return std::make_unique<XorChatter>(ctx);
  };
}

SystemParams params() { return SystemParams{6, 2}; }

IsolatedExecution isolated(const ProcessSet& g, Round k, int bit = 0) {
  RunResult res = run_execution(params(), xor_chatter(),
                                std::vector<Value>(6, Value::bit(bit)),
                                isolate_group(g, k));
  return IsolatedExecution{res.trace, g, k};
}

TEST(Isolation, CheckAcceptsProperlyIsolatedTraces) {
  for (Round k : {1u, 2u, 3u}) {
    auto ie = isolated(ProcessSet{{4, 5}}, k);
    EXPECT_EQ(check_isolated(ie.trace, ie.group, k), std::nullopt)
        << "k=" << k;
  }
}

TEST(Isolation, CheckRejectsWrongRound) {
  auto ie = isolated(ProcessSet{{4, 5}}, 2);
  // Claiming isolation from round 1 is wrong: round-1 messages were received.
  EXPECT_NE(check_isolated(ie.trace, ie.group, 1), std::nullopt);
  // Claiming isolation from round 3 is wrong: round-2 messages were omitted.
  EXPECT_NE(check_isolated(ie.trace, ie.group, 3), std::nullopt);
}

TEST(Isolation, CheckRejectsNonFaultyGroup) {
  auto ie = isolated(ProcessSet{{4, 5}}, 2);
  EXPECT_NE(check_isolated(ie.trace, ProcessSet{{0, 4, 5}}, 2), std::nullopt);
}

TEST(Isolation, IsolationRoundRecovery) {
  for (Round k : {1u, 2u, 3u}) {
    auto ie = isolated(ProcessSet{{5}}, k);
    EXPECT_EQ(isolation_round(ie.trace, ProcessSet{{5}}), k) << "k=" << k;
  }
  // A fault-free execution: Definition 1 requires isolated-group members to
  // be faulty, so no isolation round exists for a correct group.
  RunResult clean = run_all_correct(params(), xor_chatter(), Value::bit(0));
  EXPECT_EQ(isolation_round(clean.trace, ProcessSet{{5}}), std::nullopt);
}

TEST(Mergeable, Definition2Cases) {
  auto b1 = isolated(ProcessSet{{4}}, 1);
  auto c1 = isolated(ProcessSet{{5}}, 1, /*bit=*/1);
  EXPECT_TRUE(are_mergeable(b1, c1));  // k1 = k2 = 1, any proposals

  auto b2 = isolated(ProcessSet{{4}}, 2);
  auto c2 = isolated(ProcessSet{{5}}, 3);
  EXPECT_TRUE(are_mergeable(b2, c2));  // same proposals, |k1-k2| = 1

  auto c3 = isolated(ProcessSet{{5}}, 4);
  EXPECT_FALSE(are_mergeable(b2, c3));  // |k1-k2| = 2

  auto c4 = isolated(ProcessSet{{5}}, 3, /*bit=*/1);
  EXPECT_FALSE(are_mergeable(b2, c4));  // different proposals, k > 1

  auto overlap = isolated(ProcessSet{{4}}, 2);
  EXPECT_FALSE(are_mergeable(b2, overlap));  // groups not disjoint
}

TEST(Merge, ProducesValidExecution) {
  auto eb = isolated(ProcessSet{{4}}, 2);
  auto ec = isolated(ProcessSet{{5}}, 3);
  ExecutionTrace merged = merge(params(), xor_chatter(), eb, ec);
  EXPECT_EQ(merged.validate(), std::nullopt);
  EXPECT_EQ(merged.faulty, ProcessSet({4, 5}));
  EXPECT_TRUE(merged.quiesced);
}

TEST(Merge, IsolatedGroupsCannotDistinguish) {
  // Lemma 16(2): each isolated process receives exactly what it received in
  // its source execution.
  auto eb = isolated(ProcessSet{{4}}, 2);
  auto ec = isolated(ProcessSet{{5}}, 2);
  ExecutionTrace merged = merge(params(), xor_chatter(), eb, ec);
  EXPECT_TRUE(merged.indistinguishable_for(4, eb.trace));
  EXPECT_TRUE(merged.indistinguishable_for(5, ec.trace));
  // ... and therefore decides identically (determinism).
  EXPECT_EQ(merged.procs[4].decision, eb.trace.procs[4].decision);
  EXPECT_EQ(merged.procs[5].decision, ec.trace.procs[5].decision);
}

TEST(Merge, BothGroupsIsolatedAtTheirRounds) {
  // Lemma 16(3).
  auto eb = isolated(ProcessSet{{4}}, 3);
  auto ec = isolated(ProcessSet{{5}}, 2);
  ExecutionTrace merged = merge(params(), xor_chatter(), eb, ec);
  EXPECT_EQ(check_isolated(merged, ProcessSet{{4}}, 3), std::nullopt);
  EXPECT_EQ(check_isolated(merged, ProcessSet{{5}}, 2), std::nullopt);
}

TEST(Merge, Round1CrossProposalMerge) {
  // The k1 = k2 = 1 case with different proposals: A u B propose 0, C
  // proposes 1 (exactly the E_0^B(1) / E_1^C(1) merge of Lemma 3).
  auto eb = isolated(ProcessSet{{4}}, 1, /*bit=*/0);
  auto ec = isolated(ProcessSet{{5}}, 1, /*bit=*/1);
  ExecutionTrace merged = merge(params(), xor_chatter(), eb, ec);
  EXPECT_EQ(merged.validate(), std::nullopt);
  EXPECT_EQ(merged.procs[5].proposal, Value::bit(1));
  EXPECT_EQ(merged.procs[0].proposal, Value::bit(0));
  EXPECT_TRUE(merged.indistinguishable_for(4, eb.trace));
  EXPECT_TRUE(merged.indistinguishable_for(5, ec.trace));
}

TEST(Merge, RejectsNonMergeable) {
  auto eb = isolated(ProcessSet{{4}}, 2);
  auto ec = isolated(ProcessSet{{5}}, 4);
  EXPECT_THROW(merge(params(), xor_chatter(), eb, ec), std::invalid_argument);
}

TEST(SwapOmission, ProducesIndistinguishableValidExecution) {
  // Gossip ring with fan-out 1: p4 only ever receives from p3, so isolating
  // {4,5} blames a single sender — the swap preconditions hold with t = 3.
  SystemParams big{6, 3};
  RunResult run = run_execution(big,
                                protocols::wc_candidate_gossip_ring(1, 2),
                                std::vector<Value>(6, Value::bit(0)),
                                isolate_group(ProcessSet{{4, 5}}, 1));
  const IsolatedExecution ie{run.trace, ProcessSet{{4, 5}}, 1};
  auto pre = check_swap_preconditions(ie.trace, 4);
  ASSERT_TRUE(pre.ok) << pre.error;

  SwapResult swapped = swap_omission(ie.trace, 4);
  EXPECT_EQ(swapped.execution.validate(), std::nullopt);
  // Lemma 15(2): indistinguishable to every process.
  for (ProcessId p = 0; p < 6; ++p) {
    EXPECT_TRUE(ie.trace.indistinguishable_for(p, swapped.execution))
        << "p" << p;
  }
  // Lemma 15(3): the subject is now correct; blame lands on p3 (its ring
  // predecessor). p5's only ring predecessor is p4, inside the group, so p5
  // never actually omits anything and drops out of the faulty set too.
  EXPECT_FALSE(swapped.execution.faulty.contains(4));
  EXPECT_EQ(swapped.execution.faulty, ProcessSet({3}));
  EXPECT_EQ(swapped.execution.faulty, pre.new_faulty);
  // The witness is correct in E'.
  EXPECT_FALSE(swapped.execution.faulty.contains(pre.witness_correct));
}

TEST(SwapOmission, BlameLandsOnSenders) {
  auto ie = isolated(ProcessSet{{5}}, 2);
  SwapResult swapped = swap_omission(ie.trace, 5);
  // Everyone who sent p5 a message in rounds >= 2 now send-omits it.
  for (ProcessId p = 0; p < 5; ++p) {
    bool blamed = false;
    for (const RoundEvents& re : swapped.execution.procs[p].rounds) {
      for (const Message& m : re.send_omitted) {
        EXPECT_EQ(m.receiver, 5u);
        blamed = true;
      }
    }
    EXPECT_TRUE(blamed) << "p" << p << " sent to p5 and should be blamed";
    EXPECT_TRUE(swapped.execution.faulty.contains(p));
  }
  // p5 has no omissions left.
  for (const RoundEvents& re : swapped.execution.procs[5].rounds) {
    EXPECT_TRUE(re.receive_omitted.empty());
    EXPECT_TRUE(re.send_omitted.empty());
  }
}

TEST(SwapOmission, PreconditionsFailWhenBlameExceedsT) {
  // Isolating one process in a chatty protocol blames all n - 1 senders,
  // which exceeds t = 2: the swap must be rejected.
  auto ie = isolated(ProcessSet{{5}}, 2);
  auto pre = check_swap_preconditions(ie.trace, 5);
  EXPECT_FALSE(pre.ok);
}

TEST(SwapOmission, NoOmissionsIsANoOp) {
  RunResult clean = run_all_correct(params(), xor_chatter(), Value::bit(1));
  SwapResult swapped = swap_omission(clean.trace, 3);
  EXPECT_TRUE(swapped.execution.faulty.empty());
  EXPECT_EQ(swapped.execution.validate(), std::nullopt);
}

TEST(SwapOmission, WorksOnRealProtocol) {
  // Leader-beacon: isolate {4,5} from round 1; p4 receive-omits only the
  // leader's beacon, so the blame set is {p0} and the swap succeeds.
  SystemParams p{6, 3};
  RunResult res = run_execution(
      p, protocols::wc_candidate_leader_beacon(),
      std::vector<Value>(6, Value::bit(0)),
      isolate_group(ProcessSet{{4, 5}}, 1));
  auto pre = check_swap_preconditions(res.trace, 4);
  ASSERT_TRUE(pre.ok) << pre.error;
  SwapResult swapped = swap_omission(res.trace, 4);
  EXPECT_EQ(swapped.execution.validate(), std::nullopt);
  // p4 decided 1 (no beacon), p1 decided 0 — and both are correct in E'.
  EXPECT_FALSE(swapped.execution.faulty.contains(4));
  EXPECT_FALSE(swapped.execution.faulty.contains(1));
  EXPECT_EQ(swapped.execution.procs[4].decision, Value::bit(1));
  EXPECT_EQ(swapped.execution.procs[1].decision, Value::bit(0));
}

/// check_swap_preconditions as it stood before its M lookups were limited
/// to messages addressed to p_i: every sent and receive-omitted message of
/// every process is looked up in M.
SwapPreconditions full_scan_reference(const ExecutionTrace& e, ProcessId p_i) {
  SwapPreconditions pre;
  const ProcessTrace& pt = e.procs.at(p_i);
  for (const RoundEvents& re : pt.rounds) {
    if (!re.send_omitted.empty()) {
      pre.error = "subject commits send-omissions";
      return pre;
    }
  }
  std::set<MsgKey> m_set;
  for (const RoundEvents& re : pt.rounds) {
    for (const Message& m : re.receive_omitted) m_set.insert(m.key());
  }
  ProcessSet predicted;
  for (ProcessId z = 0; z < e.params.n; ++z) {
    bool faulty = false;
    for (const RoundEvents& re : e.procs[z].rounds) {
      for (const Message& m : re.sent) {
        if (m_set.contains(m.key())) faulty = true;
      }
      if (!re.send_omitted.empty()) faulty = true;
      for (const Message& m : re.receive_omitted) {
        if (!m_set.contains(m.key())) faulty = true;
      }
    }
    if (faulty) predicted.insert(z);
  }
  if (predicted.size() > e.params.t) {
    pre.error = "|F'| = " + std::to_string(predicted.size()) +
                " exceeds t = " + std::to_string(e.params.t);
    return pre;
  }
  if (predicted.contains(p_i)) {
    pre.error = "subject still faulty after swap";
    return pre;
  }
  for (ProcessId h = 0; h < e.params.n; ++h) {
    if (h == p_i || e.faulty.contains(h) || predicted.contains(h)) continue;
    pre.ok = true;
    pre.witness_correct = h;
    pre.new_faulty = predicted;
    return pre;
  }
  pre.error = "no correct witness process survives the swap";
  return pre;
}

TEST(SwapOmission, PreconditionsMatchTheFullScanReference) {
  // Executor-built traces (all pass validate()) from isolate_group
  // families, crashes and send omissions, at several (n, t); every process
  // is tried as the subject.
  std::size_t compared = 0;
  std::size_t accepted = 0;
  for (const SystemParams params :
       {SystemParams{6, 2}, SystemParams{8, 2}, SystemParams{10, 3},
        SystemParams{16, 5}}) {
    const std::uint32_t n = params.n;
    const ProcessSet last_two = ProcessSet::range(n - 2, n);
    const ProcessSet last_one = ProcessSet::range(n - 1, n);
    std::vector<std::pair<std::string, Adversary>> adversaries = {
        {"isolate {n-1} from 1", isolate_group(last_one, 1)},
        {"crash", crash_schedule({{n - 1, 2}, {n - 2, 1}})},
        {"mute {n-2, n-1} from 2", mute_group(last_two, 2)},
        {"random send/receive omissions",
         random_omissions(last_two, n, /*drop_permille=*/400)},
    };
    for (Round k = 1; k <= 3; ++k) {
      adversaries.emplace_back("isolate {n-2, n-1} from " + std::to_string(k),
                               isolate_group(last_two, k));
    }
    for (const char* name :
         {"beacon", "gossip", "one-shot-echo", "phase-king", "floodset"}) {
      const ProtocolFactory protocol =
          *protocols::make_protocol_by_name(name, n);
      for (const auto& [label, adversary] : adversaries) {
        for (int bit = 0; bit <= 1; ++bit) {
          const RunResult run =
              run_execution(params, protocol,
                            std::vector<Value>(n, Value::bit(bit)), adversary);
          ASSERT_EQ(run.trace.validate(), std::nullopt) << name << " " << label;
          for (ProcessId p = 0; p < n; ++p) {
            const SwapPreconditions got =
                check_swap_preconditions(run.trace, p);
            const SwapPreconditions want = full_scan_reference(run.trace, p);
            const std::string where = std::string(name) + " n=" +
                                      std::to_string(n) + " " + label +
                                      " bit=" + std::to_string(bit) +
                                      " p" + std::to_string(p);
            EXPECT_EQ(got.ok, want.ok) << where;
            EXPECT_EQ(got.error, want.error) << where;
            EXPECT_EQ(got.witness_correct, want.witness_correct) << where;
            EXPECT_EQ(got.new_faulty, want.new_faulty) << where;
            ++compared;
            if (want.ok) ++accepted;
          }
        }
      }
    }
  }
  // Both verdicts occur, so the comparison covers each branch.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, compared);
}

}  // namespace
}  // namespace ba::calculus
