// Direct unit tests for outbox normalization (A.1.1 well-formedness: at most
// one message per ordered pair per round, no self-sends) and its
// allocation-reusing form, plus the RoundScratch fault lookup tables.

#include "runtime/sync_system.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include "runtime/fault.h"

namespace ba {
namespace {

std::vector<ProcessId> receivers(const std::vector<Message>& msgs) {
  std::vector<ProcessId> out;
  out.reserve(msgs.size());
  for (const Message& m : msgs) out.push_back(m.receiver);
  return out;
}

TEST(NormalizeOutbox, DropsSelfSends) {
  const Outbox out{{1, Value{10}}, {2, Value{20}}, {1, Value{11}}};
  const auto msgs = normalize_outbox(out, /*self=*/1, /*r=*/3, /*n=*/4);
  EXPECT_EQ(receivers(msgs), (std::vector<ProcessId>{2}));
  EXPECT_EQ(msgs[0].sender, 1u);
  EXPECT_EQ(msgs[0].round, 3u);
  EXPECT_EQ(msgs[0].payload, Value{20});
}

TEST(NormalizeOutbox, DropsOutOfRangeReceivers) {
  const Outbox out{{4, Value{1}}, {100, Value{2}}, {3, Value{3}},
                   {kNoProcess, Value{4}}};
  const auto msgs = normalize_outbox(out, /*self=*/0, /*r=*/1, /*n=*/4);
  EXPECT_EQ(receivers(msgs), (std::vector<ProcessId>{3}));
}

TEST(NormalizeOutbox, DuplicateReceiverKeepsFirstOccurrence) {
  const Outbox out{{2, Value{"first"}}, {2, Value{"second"}},
                   {2, Value{"third"}}};
  const auto msgs = normalize_outbox(out, /*self=*/0, /*r=*/1, /*n=*/4);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].payload, Value{"first"});
}

TEST(NormalizeOutbox, OutputSortedByReceiver) {
  const Outbox out{{3, Value{3}}, {1, Value{1}}, {2, Value{2}},
                   {1, Value{"dup"}}};
  const auto msgs = normalize_outbox(out, /*self=*/0, /*r=*/1, /*n=*/4);
  EXPECT_EQ(receivers(msgs), (std::vector<ProcessId>{1, 2, 3}));
  EXPECT_EQ(msgs[0].payload, Value{1});  // first occurrence, not "dup"
}

TEST(NormalizeOutbox, EmptyOutbox) {
  EXPECT_TRUE(normalize_outbox({}, 0, 1, 4).empty());
}

TEST(NormalizeOutboxInto, MatchesAllocatingFormAndRestoresBitmap) {
  const Outbox out{{5, Value{5}}, {0, Value{0}}, {2, Value{2}},
                   {2, Value{"dup"}}, {7, Value{"oob"}}, {3, Value{3}}};
  std::vector<std::uint8_t> seen(6, 0);
  std::vector<Message> msgs;
  normalize_outbox_into(out, /*self=*/3, /*r=*/2, /*n=*/6, seen, msgs);
  EXPECT_EQ(msgs, normalize_outbox(out, 3, 2, 6));
  // Contract: the dedup bitmap is handed back all-zero so the next call can
  // reuse it without a wipe.
  EXPECT_EQ(seen, std::vector<std::uint8_t>(6, 0));
}

TEST(NormalizeOutboxInto, ReusableAcrossCallsAndClearsOutput) {
  std::vector<std::uint8_t> seen(4, 0);
  std::vector<Message> msgs;
  normalize_outbox_into({{1, Value{1}}, {2, Value{2}}}, 0, 1, 4, seen, msgs);
  ASSERT_EQ(msgs.size(), 2u);
  // Stale contents must not leak into the next round's normalization.
  normalize_outbox_into({{3, Value{3}}}, 0, 2, 4, seen, msgs);
  EXPECT_EQ(receivers(msgs), (std::vector<ProcessId>{3}));
  EXPECT_EQ(msgs[0].round, 2u);
  normalize_outbox_into({}, 0, 3, 4, seen, msgs);
  EXPECT_TRUE(msgs.empty());
}

/// The normalization as it stood before the sort became conditional: a
/// std::set for first-wins dedup and an unconditional sort by receiver.
std::vector<Message> always_sort_reference(const Outbox& out, ProcessId self,
                                           Round r, std::uint32_t n) {
  std::set<ProcessId> seen;
  std::vector<Message> msgs;
  for (const Outgoing& o : out) {
    if (o.to == self || o.to >= n) continue;
    if (!seen.insert(o.to).second) continue;
    msgs.push_back(Message{self, o.to, r, o.payload});
  }
  std::sort(msgs.begin(), msgs.end(), [](const Message& a, const Message& b) {
    return a.receiver < b.receiver;
  });
  return msgs;
}

/// One seeded outbox of the given shape. Payloads are the position in the
/// outbox, so a first-wins slip shows up as a payload mismatch.
Outbox random_outbox(std::mt19937_64& rng, int shape, std::uint32_t n,
                     ProcessId self) {
  std::vector<ProcessId> to;
  switch (shape) {
    case 0:  // multicast: every other process, ascending (already sorted)
      for (ProcessId p = 0; p < n; ++p) {
        if (p != self) to.push_back(p);
      }
      break;
    case 1:  // multicast in descending order, self-send included
      for (ProcessId p = n; p-- > 0;) to.push_back(p);
      break;
    case 2:  // sorted, with adjacent duplicates and out-of-range tails
    case 3: {  // unsorted: duplicates, self-sends, out-of-range receivers
      const std::size_t len = rng() % (2 * n + 3);
      for (std::size_t i = 0; i < len; ++i) {
        to.push_back(static_cast<ProcessId>(rng() % (n + 3)));
      }
      if (rng() % 4 == 0) to.push_back(kNoProcess);
      if (shape == 2) std::sort(to.begin(), to.end());
      break;
    }
    default:  // a few receivers, in random order, no duplicates
      for (ProcessId p = 0; p < n; ++p) {
        if (rng() % 3 == 0) to.push_back(p);
      }
      std::shuffle(to.begin(), to.end(), rng);
      break;
  }
  Outbox out;
  for (std::size_t i = 0; i < to.size(); ++i) {
    out.push_back(Outgoing{to[i], Value{static_cast<int>(i)}});
  }
  return out;
}

TEST(NormalizeOutboxInto, MatchesTheAlwaysSortReferenceOnSeededOutboxes) {
  std::mt19937_64 rng(0x5eed0b0cULL);
  std::vector<std::uint8_t> seen;
  std::vector<Message> msgs;
  for (int iter = 0; iter < 5000; ++iter) {
    const std::uint32_t n = 1 + static_cast<std::uint32_t>(rng() % 40);
    const auto self = static_cast<ProcessId>(rng() % n);
    const auto r = static_cast<Round>(1 + rng() % 9);
    const int shape = iter % 5;
    const Outbox out = random_outbox(rng, shape, n, self);
    // A bitmap wider than n must come back all-zero too.
    seen.assign(n + iter % 3, 0);
    normalize_outbox_into(out, self, r, n, seen, msgs);
    ASSERT_EQ(msgs, always_sort_reference(out, self, r, n))
        << "iter=" << iter << " shape=" << shape << " n=" << n;
    ASSERT_TRUE(std::all_of(seen.begin(), seen.end(),
                            [](std::uint8_t b) { return b == 0; }))
        << "iter=" << iter << ": dedup bitmap not restored";
  }
}

TEST(RoundScratch, FaultTablesResolveOncePerRun) {
  Adversary adv;
  adv.faulty = ProcessSet{{1, 2}};
  adv.byzantine = ProcessSet{{2}};
  adv.byzantine_factory = [](const ProcessContext&) -> std::unique_ptr<Process> {
    return nullptr;  // tables are computed without instantiating replicas
  };
  adv.send_omit = [](const MsgKey&) { return true; };
  adv.receive_omit = [](const MsgKey&) { return true; };

  RoundScratch scratch;
  scratch.prepare(adv, /*n=*/4, /*record_trace=*/true);
  EXPECT_EQ(scratch.faulty, (std::vector<std::uint8_t>{0, 1, 1, 0}));
  // Send omissions apply to faulty non-Byzantine senders only.
  EXPECT_EQ(scratch.may_drop_send, (std::vector<std::uint8_t>{0, 1, 0, 0}));
  // Receive omissions apply to every faulty receiver, Byzantine included.
  EXPECT_EQ(scratch.may_drop_receive,
            (std::vector<std::uint8_t>{0, 1, 1, 0}));
  EXPECT_EQ(scratch.outs.size(), 4u);
  EXPECT_EQ(scratch.inboxes.size(), 4u);
  EXPECT_EQ(scratch.events.size(), 4u);
  EXPECT_EQ(scratch.seen, std::vector<std::uint8_t>(4, 0));

  // Without omission predicates the drop tables are all-zero (the hot loop
  // never consults the std::function predicates), and tracing off means no
  // event staging.
  RoundScratch bare;
  bare.prepare(Adversary::none(), /*n=*/3, /*record_trace=*/false);
  EXPECT_EQ(bare.may_drop_send, std::vector<std::uint8_t>(3, 0));
  EXPECT_EQ(bare.may_drop_receive, std::vector<std::uint8_t>(3, 0));
  EXPECT_TRUE(bare.events.empty());
}

}  // namespace
}  // namespace ba
