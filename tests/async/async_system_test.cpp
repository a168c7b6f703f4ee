// The asynchronous executor contract (src/async/async_system.h): argument
// validation fails fast with pinned messages, completed runs quiesce into a
// well-formed virtual-round trace that the async-aware linter accepts,
// truncated runs capture their in-flight pool, crashed processes stay
// silent, a recorded schedule replayed through a ScriptedScheduler
// reproduces the run exactly, and trace recording never changes a run.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ba.h"

namespace ba::async {
namespace {

std::vector<Value> bit_proposals(const std::vector<int>& bits) {
  std::vector<Value> out;
  out.reserve(bits.size());
  for (const int b : bits) out.push_back(Value::bit(b));
  return out;
}

AsyncProtocolFactory bracha() { return bracha_factory(); }

TEST(RunAsync, ValidatesArgumentsWithPinnedMessages) {
  auto fifo = make_scheduler("fifo", 1, 4);
  const std::vector<Value> proposals = bit_proposals({1, 1, 1, 1});

  try {
    (void)run_async(SystemParams{4, 4}, bracha(), proposals,
                    AsyncAdversary::none(), *fifo);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "run_async: invalid SystemParams");
  }

  try {
    (void)run_async(SystemParams{4, 1}, bracha(), bit_proposals({1, 1, 1}),
                    AsyncAdversary::none(), *fifo);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "run_async: need exactly n proposals");
  }

  AsyncRunOptions lint_only;
  lint_only.record_trace = false;
  lint_only.lint_trace = true;
  try {
    (void)run_async(SystemParams{4, 1}, bracha(), proposals,
                    AsyncAdversary::none(), *fifo, lint_only);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "run_async: lint_trace requires record_trace (an empty "
                 "trace would lint vacuously)");
  }
}

TEST(RunAsync, UnanimousBrachaQuiescesWithAllDecided) {
  const SystemParams params{4, 1};
  auto fifo = make_scheduler("fifo", 1, params.n);
  AsyncRunOptions options;
  options.lint_trace = true;
  const AsyncRunResult res =
      run_async(params, bracha(), bit_proposals({1, 1, 1, 1}),
                AsyncAdversary::none(), *fifo, options);
  EXPECT_TRUE(res.run.quiesced);
  for (ProcessId p = 0; p < params.n; ++p) {
    ASSERT_TRUE(res.run.decisions[p].has_value()) << "p" << p;
    EXPECT_EQ(*res.run.decisions[p], Value::bit(1)) << "p" << p;
  }
  // Each process broadcasts one ECHO and one READY: 2 * n * (n - 1) sends,
  // all delivered (quiescence under reliable links).
  EXPECT_EQ(res.run.messages_sent_by_correct, 2u * 4u * 3u);
  EXPECT_EQ(res.deliveries, 2u * 4u * 3u);
  EXPECT_EQ(res.schedule.size(), res.deliveries);
  ASSERT_TRUE(res.run.lint.has_value());
  EXPECT_TRUE(res.run.lint->clean()) << res.run.lint->summary();
}

TEST(RunAsync, TraceUsesTheVirtualRoundEncoding) {
  const SystemParams params{4, 1};
  auto fifo = make_scheduler("fifo", 1, params.n);
  const AsyncRunResult res =
      run_async(params, bracha(), bit_proposals({1, 1, 1, 1}),
                AsyncAdversary::none(), *fifo);
  const ExecutionTrace& trace = res.run.trace;
  // One virtual round per send; every round holds exactly one message.
  EXPECT_EQ(trace.rounds, res.run.messages_sent_by_correct);
  EXPECT_TRUE(trace.quiesced);
  for (Round r = 0; r < trace.rounds; ++r) {
    std::size_t sends_in_round = 0;
    for (ProcessId p = 0; p < params.n; ++p) {
      const RoundEvents& events = trace.procs[p].rounds[r];
      sends_in_round += events.sent.size();
      for (const Message& m : events.sent) {
        EXPECT_EQ(m.round, r + 1);
        EXPECT_EQ(m.sender, p);
        EXPECT_NE(m.receiver, p);  // A.1.1: no self-messages
      }
      // Quiesced run: nothing left in flight anywhere.
      EXPECT_TRUE(events.receive_omitted.empty());
    }
    EXPECT_EQ(sends_in_round, 1u) << "virtual round " << r + 1;
  }
  EXPECT_FALSE(trace.validate().has_value());
}

TEST(RunAsync, StopAfterTruncatesAndCapturesPending) {
  const SystemParams params{4, 1};
  auto fifo = make_scheduler("fifo", 1, params.n);
  AsyncRunOptions options;
  options.stop_after = 3;
  options.capture_pending = true;
  options.lint_trace = true;
  const AsyncRunResult res =
      run_async(params, bracha(), bit_proposals({1, 1, 1, 1}),
                AsyncAdversary::none(), *fifo, options);
  EXPECT_EQ(res.deliveries, 3u);
  EXPECT_FALSE(res.run.quiesced);
  EXPECT_FALSE(res.pending.empty());
  // The in-flight messages appear as receive-omissions in the trace; the
  // async lint semantics read them as pending deliveries, not violations.
  std::size_t in_flight = 0;
  for (const ProcessTrace& proc : res.run.trace.procs) {
    for (const RoundEvents& events : proc.rounds) {
      in_flight += events.receive_omitted.size();
    }
  }
  EXPECT_EQ(in_flight, res.pending.size());
  ASSERT_TRUE(res.run.lint.has_value());
  EXPECT_TRUE(res.run.lint->clean()) << res.run.lint->summary();
}

TEST(RunAsync, CrashedProcessesSendNothingAndIgnoreDeliveries) {
  const SystemParams params{4, 1};
  auto fifo = make_scheduler("fifo", 1, params.n);
  AsyncAdversary adversary;
  adversary.faulty.insert(0);
  AsyncRunOptions options;
  options.lint_trace = true;
  const AsyncRunResult res =
      run_async(params, bracha(), bit_proposals({1, 1, 1, 1}), adversary,
                *fifo, options);
  EXPECT_FALSE(res.run.decisions[0].has_value());
  // Three V1 starters echo; p0 contributes nothing.
  EXPECT_EQ(res.run.messages_sent_by_correct, 2u * 3u * 3u);
  for (const RoundEvents& events : res.run.trace.procs[0].rounds) {
    EXPECT_TRUE(events.sent.empty()) << "crashed process sent a message";
  }
  // n=4, t=1: the three correct processes still reach the 2t+1 = 3 READY
  // quorum and decide.
  for (ProcessId p = 1; p < params.n; ++p) {
    ASSERT_TRUE(res.run.decisions[p].has_value()) << "p" << p;
    EXPECT_EQ(*res.run.decisions[p], Value::bit(1)) << "p" << p;
  }
  EXPECT_TRUE(res.run.quiesced);
  ASSERT_TRUE(res.run.lint.has_value());
  EXPECT_TRUE(res.run.lint->clean()) << res.run.lint->summary();
}

TEST(RunAsync, RecordedScheduleReplaysExactly) {
  const SystemParams params{5, 1};
  const auto protocol = find_async_protocol("ben-or");
  ASSERT_NE(protocol, nullptr);
  const AsyncProtocolFactory factory = protocol->make(/*coin_seed=*/7);
  const std::vector<Value> proposals = bit_proposals({0, 1, 0, 1, 0});

  auto random = make_scheduler("random", 99, params.n);
  const AsyncRunResult original = run_async(params, factory, proposals,
                                            AsyncAdversary::none(), *random);
  ASSERT_TRUE(original.run.quiesced);

  ScriptedScheduler scripted(original.schedule,
                             make_scheduler("fifo", 1, params.n));
  const AsyncRunResult replay = run_async(params, factory, proposals,
                                          AsyncAdversary::none(), scripted);
  EXPECT_EQ(replay.run.decisions, original.run.decisions);
  EXPECT_EQ(replay.deliveries, original.deliveries);
  EXPECT_EQ(replay.schedule, original.schedule);
  EXPECT_EQ(encode_trace(replay.run.trace), encode_trace(original.run.trace));
}

// FNV-1a over the encoded trace: a compact pin for trace bytes.
std::uint64_t fnv1a(const Bytes& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(RunAsyncTrace, TracedAndUntracedRunsAgreeAndTraceBytesArePinned) {
  // Trace recording is pure observation: switching it off must not move a
  // single decision, pick or counter. The traced bytes are pinned from the
  // executor as it stood before untraced runs stopped keeping send records
  // (commit ba5ada2), so the encoding cannot drift either.
  struct Case {
    const char* protocol;
    const char* strategy;
    std::uint64_t deliveries;
    std::uint64_t trace_fnv1a;
  };
  const Case cases[] = {
      {"ben-or", "fifo", 72, 0x4a16634951f1d61cull},
      {"ben-or", "random", 72, 0xfd5e3ee20fd23a22ull},
      {"ben-or", "delay-decider", 72, 0x4a16634951f1d61cull},
      {"ben-or", "rr-starve", 72, 0xef726b37e1f09b72ull},
      {"ben-or-broken", "fifo", 48, 0x001ebdcd693f7335ull},
      {"ben-or-broken", "random", 48, 0x6a6b38454b72d2e5ull},
      {"ben-or-broken", "delay-decider", 48, 0x001ebdcd693f7335ull},
      {"ben-or-broken", "rr-starve", 48, 0xd65a6615bb938d7dull},
      {"ben-or-local", "fifo", 96, 0x07cc5a16a1cc5d64ull},
      {"ben-or-local", "random", 96, 0x3e369d67dde4c398ull},
      {"ben-or-local", "delay-decider", 96, 0x07cc5a16a1cc5d64ull},
      {"ben-or-local", "rr-starve", 96, 0xc08c22158b31b2bcull},
      {"bracha", "fifo", 24, 0x49276fec45c14f77ull},
      {"bracha", "random", 24, 0x97d2a705d3937f18ull},
      {"bracha", "delay-decider", 24, 0x49276fec45c14f77ull},
      {"bracha", "rr-starve", 24, 0x1f37aa7e1d390132ull},
  };
  const SystemParams params{4, 1};
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.protocol) + " / " + c.strategy);
    const AsyncProtocolInfo* info = find_async_protocol(c.protocol);
    ASSERT_NE(info, nullptr);
    // Split inputs for Ben-Or; Bracha needs 2t + 1 ones to accept.
    const std::vector<Value> proposals =
        bit_proposals(std::string(c.protocol) == "bracha"
                          ? std::vector<int>{1, 1, 0, 1}
                          : std::vector<int>{0, 1, 0, 1});
    const auto run = [&](bool record_trace) {
      auto scheduler = make_scheduler(c.strategy, 3, params.n);
      AsyncRunOptions options;
      options.record_trace = record_trace;
      return run_async(params, info->make(1), proposals,
                       AsyncAdversary::none(), *scheduler, options);
    };
    const AsyncRunResult traced = run(true);
    const AsyncRunResult untraced = run(false);
    EXPECT_EQ(untraced.run.decisions, traced.run.decisions);
    EXPECT_EQ(untraced.schedule, traced.schedule);
    EXPECT_EQ(untraced.deliveries, traced.deliveries);
    EXPECT_EQ(untraced.run.messages_sent_total,
              traced.run.messages_sent_total);
    EXPECT_EQ(untraced.run.messages_sent_by_correct,
              traced.run.messages_sent_by_correct);
    EXPECT_EQ(untraced.run.rounds_executed, traced.run.rounds_executed);
    EXPECT_EQ(untraced.run.quiesced, traced.run.quiesced);
    EXPECT_TRUE(untraced.run.trace.procs.empty());
    EXPECT_EQ(traced.deliveries, c.deliveries);
    EXPECT_EQ(fnv1a(encode_trace(traced.run.trace)), c.trace_fnv1a);
  }
}

TEST(Schedulers, MakeSchedulerRejectsUnknownStrategies) {
  try {
    (void)make_scheduler("telepathy", 1, 4);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "unknown async scheduler strategy 'telepathy' "
                 "(fifo | random | delay-decider | rr-starve)");
  }
  for (const char* strategy :
       {"fifo", "random", "delay-decider", "rr-starve"}) {
    EXPECT_TRUE(scheduler_strategy_known(strategy)) << strategy;
    EXPECT_NE(make_scheduler(strategy, 1, 4), nullptr) << strategy;
  }
  EXPECT_FALSE(scheduler_strategy_known("telepathy"));
}

TEST(Schedulers, RrStarveServesTheVictimOnlyWhenAlone) {
  // With the victim fixed by seed % n, every pick must avoid the victim's
  // messages while any other receiver has pending traffic.
  const SystemParams params{4, 1};
  const std::uint64_t seed = 2;  // victim = 2 % 4 = 2
  auto scheduler = make_scheduler("rr-starve", seed, params.n);
  const AsyncRunResult res =
      run_async(params, bracha_factory(), bit_proposals({1, 1, 1, 1}),
                AsyncAdversary::none(), *scheduler);
  // Reliable links: the run still quiesces and everyone decides.
  EXPECT_TRUE(res.run.quiesced);
  for (ProcessId p = 0; p < params.n; ++p) {
    EXPECT_TRUE(res.run.decisions[p].has_value()) << "p" << p;
  }
}

}  // namespace
}  // namespace ba::async
