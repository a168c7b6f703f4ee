// Schedule exploration (src/async/explore.h): exhaustive enumeration of a
// correct protocol finds zero violations, the broken protocol yields a
// minimized certificate whose replay reproduces the recorded violation, the
// report is byte-identical for jobs in {1, 2, 8} (the determinism battery),
// sampling campaigns are seeded and resumable, the certificate text format
// round-trips with line-numbered decode errors, and golden reports pin the
// exact explored-schedule set of every async protocol.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ba.h"

namespace ba::async {
namespace {

ExploreTask task_for(const std::string& protocol, std::uint32_t n,
                     std::uint32_t t) {
  ExploreTask task;
  task.protocol = protocol;
  task.params = SystemParams{n, t};
  for (std::uint32_t p = 0; p < n; ++p) {
    task.proposals.push_back(static_cast<int>(p % 2));
  }
  return task;
}

TEST(ExploreExhaustive, BenOrIsSafeAcrossAllDepth3Prefixes) {
  const ExploreTask task = task_for("ben-or", 4, 1);
  ExploreOptions options;
  options.exhaustive = true;
  options.depth = 3;
  const ExploreReport report = explore(task, options);
  EXPECT_GT(report.schedules, 0u);
  EXPECT_EQ(report.violations, 0u);
  EXPECT_FALSE(report.certificate.has_value());
  EXPECT_EQ(report.quiesced, report.schedules);
  EXPECT_EQ(report.all_decided, report.schedules);
}

TEST(ExploreExhaustive, BrokenBenOrYieldsAMinimizedReplayableCertificate) {
  const ExploreTask task = task_for("ben-or-broken", 4, 1);
  ExploreOptions options;
  options.exhaustive = true;
  options.depth = 3;
  const ExploreReport report = explore(task, options);
  EXPECT_GT(report.violations, 0u);
  ASSERT_TRUE(report.certificate.has_value());
  const ScheduleCertificate& cert = *report.certificate;
  EXPECT_EQ(cert.property, "agreement");
  // Minimization: no certificate choice is redundant — dropping any single
  // choice (or truncating) would lose the violation, so the minimized
  // prefix can only be short. At this instance fifo alone already violates.
  EXPECT_LE(cert.choices.size(), options.depth);

  const AsyncRunResult replay = replay_certificate(cert);
  const auto violation = binary_consensus_safety(
      cert.params, cert.proposals, cert.faulty, replay.run.decisions);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->property, cert.property);
  EXPECT_EQ(violation->detail, cert.detail);
}

TEST(ExploreDeterminism, ExhaustiveReportIsIdenticalForJobs128) {
  for (const char* protocol : {"ben-or", "ben-or-broken"}) {
    ExploreTask task = task_for(protocol, 4, 1);
    ExploreOptions options;
    options.exhaustive = true;
    options.depth = 2;
    options.jobs = 1;
    const ExploreReport reference = explore(task, options);
    for (const std::uint32_t jobs : {2u, 8u}) {
      options.jobs = jobs;
      const ExploreReport got = explore(task, options);
      EXPECT_EQ(got.schedules, reference.schedules)
          << protocol << " jobs=" << jobs;
      EXPECT_EQ(got.deliveries, reference.deliveries)
          << protocol << " jobs=" << jobs;
      EXPECT_EQ(got.quiesced, reference.quiesced)
          << protocol << " jobs=" << jobs;
      EXPECT_EQ(got.all_decided, reference.all_decided)
          << protocol << " jobs=" << jobs;
      EXPECT_EQ(got.violations, reference.violations)
          << protocol << " jobs=" << jobs;
      EXPECT_EQ(got.digest, reference.digest)
          << protocol << " jobs=" << jobs;
      ASSERT_EQ(got.certificate.has_value(), reference.certificate.has_value())
          << protocol << " jobs=" << jobs;
      if (reference.certificate) {
        EXPECT_EQ(got.certificate->encode(), reference.certificate->encode())
            << protocol << " jobs=" << jobs;
      }
    }
  }
}

TEST(ExploreDeterminism, SamplingReportIsIdenticalForJobs128) {
  const ExploreTask task = task_for("ben-or", 5, 1);
  ExploreOptions options;
  options.samples = 48;
  options.seed = 11;
  options.jobs = 1;
  const ExploreReport reference = explore(task, options);
  EXPECT_EQ(reference.schedules, 48u);
  for (const std::uint32_t jobs : {2u, 8u}) {
    options.jobs = jobs;
    const ExploreReport got = explore(task, options);
    EXPECT_EQ(got.digest, reference.digest) << "jobs=" << jobs;
    EXPECT_EQ(got.deliveries, reference.deliveries) << "jobs=" << jobs;
    EXPECT_EQ(got.violations, reference.violations) << "jobs=" << jobs;
  }
}

TEST(ExploreSampling, CampaignsAreSeededAndResumable) {
  const ExploreTask task = task_for("ben-or", 4, 1);

  // Same (seed, index range) => identical report.
  ExploreOptions options;
  options.samples = 32;
  options.seed = 5;
  const ExploreReport once = explore(task, options);
  const ExploreReport again = explore(task, options);
  EXPECT_EQ(once.digest, again.digest);
  EXPECT_EQ(once.deliveries, again.deliveries);
  EXPECT_EQ(once.next_index, 32u);

  // A resumed campaign covers the same schedules as one long campaign:
  // each schedule is pinned by (seed, start_index + i), so the two halves
  // partition the full run's work exactly.
  ExploreOptions full;
  full.samples = 64;
  full.seed = 5;
  const ExploreReport whole = explore(task, full);
  ExploreOptions second_half = options;
  second_half.start_index = once.next_index;
  const ExploreReport rest = explore(task, second_half);
  EXPECT_EQ(rest.next_index, 64u);
  EXPECT_EQ(once.deliveries + rest.deliveries, whole.deliveries);
  EXPECT_EQ(once.quiesced + rest.quiesced, whole.quiesced);
  EXPECT_EQ(once.all_decided + rest.all_decided, whole.all_decided);
  EXPECT_EQ(once.schedules + rest.schedules, whole.schedules);

  // A different master seed drives different schedules.
  ExploreOptions reseeded = options;
  reseeded.seed = 6;
  EXPECT_NE(explore(task, reseeded).digest, once.digest);
}

TEST(ExploreErrors, PinnedMessages) {
  ExploreOptions options;
  try {
    ExploreTask task = task_for("warp-consensus", 4, 1);
    (void)explore(task, options);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "explore: unknown async protocol 'warp-consensus' "
                 "(ben-or | ben-or-broken | ben-or-local | bracha)");
  }
  try {
    ExploreTask task = task_for("ben-or", 4, 4);
    (void)explore(task, options);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "explore: invalid SystemParams");
  }
  try {
    ExploreTask task = task_for("ben-or", 4, 1);
    task.proposals.pop_back();
    (void)explore(task, options);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "explore: need exactly n proposal bits");
  }
  try {
    ExploreTask task = task_for("ben-or", 4, 1);
    task.faulty.insert(0);
    task.faulty.insert(1);
    (void)explore(task, options);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "explore: |faulty| exceeds t");
  }
  try {
    ExploreTask task = task_for("ben-or", 4, 1);
    task.completion_strategy = "telepathy";
    (void)explore(task, options);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "explore: unknown completion strategy 'telepathy' "
                 "(fifo | random | delay-decider | rr-starve)");
  }
}

TEST(ExploreFaulty, CrashedProcessShrinksTheInstanceSafely) {
  ExploreTask task = task_for("ben-or", 4, 1);
  task.faulty.insert(3);
  ExploreOptions options;
  options.samples = 32;
  const ExploreReport report = explore(task, options);
  EXPECT_EQ(report.schedules, 32u);
  EXPECT_EQ(report.violations, 0u);
}

TEST(Certificate, EncodeDecodeRoundTrips) {
  ScheduleCertificate cert;
  cert.protocol = "ben-or-broken";
  cert.params = SystemParams{4, 1};
  cert.proposals = {0, 1, 0, 1};
  cert.faulty.insert(2);
  cert.coin_seed = 77;
  cert.completion_strategy = "rr-starve";
  cert.completion_seed = 5;
  cert.max_deliveries = 4096;
  cert.choices = {8, 2, 0};
  cert.property = "agreement";
  cert.detail = "process 0 decided 0 but process 3 decided 1";

  const std::string text = cert.encode();
  EXPECT_EQ(text.rfind("ba-async-cert v1\n", 0), 0u);
  const ScheduleCertificate back = ScheduleCertificate::decode(text);
  EXPECT_EQ(back.protocol, cert.protocol);
  EXPECT_EQ(back.params.n, cert.params.n);
  EXPECT_EQ(back.params.t, cert.params.t);
  EXPECT_EQ(back.proposals, cert.proposals);
  EXPECT_EQ(back.faulty, cert.faulty);
  EXPECT_EQ(back.coin_seed, cert.coin_seed);
  EXPECT_EQ(back.completion_strategy, cert.completion_strategy);
  EXPECT_EQ(back.completion_seed, cert.completion_seed);
  EXPECT_EQ(back.max_deliveries, cert.max_deliveries);
  EXPECT_EQ(back.choices, cert.choices);
  EXPECT_EQ(back.property, cert.property);
  EXPECT_EQ(back.detail, cert.detail);
  EXPECT_EQ(back.encode(), text);
}

TEST(Certificate, DecodeErrorsAreLineNumbered) {
  try {
    (void)ScheduleCertificate::decode("not a certificate\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "certificate line 1: bad header (want 'ba-async-cert v1')");
  }
  try {
    (void)ScheduleCertificate::decode(
        "ba-async-cert v1\nprotocol ben-or\nn 4\nwrong 1\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "certificate line 4: expected 't', got 'wrong'");
  }
}

TEST(BinaryConsensusSafety, DiagnosesEachProperty) {
  const SystemParams params{4, 1};
  const std::vector<int> proposals = {0, 1, 0, 1};
  const ProcessSet no_faults;

  std::vector<std::optional<Value>> decisions(4, Value::bit(0));
  EXPECT_FALSE(binary_consensus_safety(params, proposals, no_faults,
                                       decisions)
                   .has_value());

  decisions[3] = Value::bit(1);
  auto disagree =
      binary_consensus_safety(params, proposals, no_faults, decisions);
  ASSERT_TRUE(disagree.has_value());
  EXPECT_EQ(disagree->property, "agreement");

  decisions.assign(4, Value{"seven"});
  auto non_bit =
      binary_consensus_safety(params, proposals, no_faults, decisions);
  ASSERT_TRUE(non_bit.has_value());
  EXPECT_EQ(non_bit->property, "integrity");

  decisions.assign(4, Value::bit(1));
  auto invalid = binary_consensus_safety(params, {0, 0, 0, 0}, no_faults,
                                         decisions);
  ASSERT_TRUE(invalid.has_value());
  EXPECT_EQ(invalid->property, "validity");

  // Faulty deciders are exempt; undecided processes are permissible.
  decisions.assign(4, std::nullopt);
  decisions[2] = Value{"garbage"};
  ProcessSet faulty;
  faulty.insert(2);
  EXPECT_FALSE(
      binary_consensus_safety(params, proposals, faulty, decisions)
          .has_value());
}

// Golden reports. Every expected value below was recorded from the explorer
// as it stood before the executor's pending pool and Ben-Or's replica state
// were flattened (commit ba5ada2). The jobs-invariance battery above cannot
// catch a change that moves the serial and parallel sides together; these
// pins can.
struct GoldenReport {
  const char* protocol;
  std::uint64_t schedules;
  std::uint64_t deliveries;
  std::uint64_t quiesced;
  std::uint64_t all_decided;
  std::uint64_t violations;
  std::uint64_t digest;
};

void expect_golden(const ExploreReport& got, const GoldenReport& want) {
  EXPECT_EQ(got.schedules, want.schedules);
  EXPECT_EQ(got.deliveries, want.deliveries);
  EXPECT_EQ(got.quiesced, want.quiesced);
  EXPECT_EQ(got.all_decided, want.all_decided);
  EXPECT_EQ(got.violations, want.violations);
  EXPECT_EQ(got.digest, want.digest);
  EXPECT_EQ(got.certificate.has_value(), want.violations != 0);
}

/// The ben-or-broken certificate at (4, 1), proposals 0101: fifo alone
/// already violates, so every minimized certificate has no choices.
std::string broken_certificate(const std::string& completion) {
  return "ba-async-cert v1\n"
         "protocol ben-or-broken\n"
         "n 4\n"
         "t 1\n"
         "proposals 0 1 0 1\n"
         "faulty\n"
         "coin-seed 1\n"
         "completion " + completion + "\n"
         "max-deliveries 100000\n"
         "choices\n"
         "property agreement\n"
         "detail process 0 decided 0 but process 3 decided 1\n";
}

TEST(ExploreGolden, ExhaustiveDepth3) {
  const GoldenReport golden[] = {
      {"ben-or", 1392, 100224, 1392, 1392, 0, 0xa9654a0a2626db0bull},
      {"ben-or-broken", 16, 768, 16, 16, 12, 0xf10adbf325333731ull},
      {"ben-or-local", 1392, 133632, 1392, 1392, 0, 0x272d74bc68e02d0eull},
      {"bracha", 120, 720, 120, 0, 0, 0x6e15445db78afb0eull},
  };
  for (const GoldenReport& want : golden) {
    SCOPED_TRACE(want.protocol);
    ExploreOptions options;
    options.exhaustive = true;
    options.depth = 3;
    const ExploreReport got = explore(task_for(want.protocol, 4, 1), options);
    expect_golden(got, want);
    if (got.certificate) {
      EXPECT_EQ(got.certificate->encode(), broken_certificate("fifo 1"));
    }
  }
}

TEST(ExploreGolden, Sampling64Seed7) {
  const GoldenReport golden[] = {
      {"ben-or", 64, 4608, 64, 64, 0, 0x839f747549a408aaull},
      {"ben-or-broken", 64, 3072, 64, 64, 59, 0x2067a9790da789bfull},
      {"ben-or-local", 64, 6144, 64, 64, 0, 0x4d10381d655da320ull},
      {"bracha", 64, 384, 64, 0, 0, 0xc6e5ab9327bb4ee7ull},
  };
  for (const GoldenReport& want : golden) {
    SCOPED_TRACE(want.protocol);
    ExploreOptions options;
    options.samples = 64;
    options.seed = 7;
    const ExploreReport got = explore(task_for(want.protocol, 4, 1), options);
    expect_golden(got, want);
    if (got.certificate) {
      EXPECT_EQ(got.certificate->encode(), broken_certificate("fifo 1"));
    }
  }
}

TEST(ExploreGolden, StarvingCompletionStrategiesAtDepth2) {
  // delay-decider and rr-starve read the pending pool beyond its head, so
  // they pin the live-pool view `Scheduler::pick` is given.
  struct Case {
    const char* strategy;
    GoldenReport want;
  };
  const Case cases[] = {
      {"delay-decider",
       {"ben-or", 132, 9504, 132, 132, 0, 0x1ebd9b46b70b14deull}},
      {"rr-starve", {"ben-or", 132, 9504, 132, 132, 0, 0x0f81da5ac407ee35ull}},
      {"delay-decider",
       {"ben-or-broken", 17, 816, 17, 17, 12, 0x32bbe27acff7eeb2ull}},
      {"rr-starve",
       {"ben-or-broken", 17, 816, 17, 17, 12, 0x5fd6f1663cf28d1eull}},
      {"delay-decider",
       {"ben-or-local", 132, 12672, 132, 132, 0, 0x8fb5757c1b971c81ull}},
      {"rr-starve",
       {"ben-or-local", 132, 12672, 132, 132, 0, 0x5423ed4aad9b0d2cull}},
      {"delay-decider", {"bracha", 30, 180, 30, 0, 0, 0xe5adedf3d3348ad6ull}},
      {"rr-starve", {"bracha", 30, 180, 30, 0, 0, 0xa9c3d3fb11e46152ull}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.want.protocol) + " / " + c.strategy);
    ExploreTask task = task_for(c.want.protocol, 4, 1);
    task.completion_strategy = c.strategy;
    task.completion_seed = 3;
    ExploreOptions options;
    options.exhaustive = true;
    options.depth = 2;
    const ExploreReport got = explore(task, options);
    expect_golden(got, c.want);
    if (got.certificate) {
      EXPECT_EQ(got.certificate->encode(),
                broken_certificate(std::string(c.strategy) + " 3"));
    }
  }
}

TEST(AsyncBackendIntegration, RegistrySpecDrivesTheScheduler) {
  // The engine-facing surface: `async:rr-starve,7` resolves to an
  // AsyncBackend whose scheduler config feeds run_async_protocol.
  const engine::BackendHandle handle = engine::make_backend("async:rr-starve,7");
  ASSERT_NE(handle, nullptr);
  const auto* backend = dynamic_cast<const AsyncBackend*>(handle.get());
  ASSERT_NE(backend, nullptr);
  EXPECT_EQ(backend->config().strategy, "rr-starve");
  EXPECT_EQ(backend->config().seed, 7u);

  std::vector<Value> proposals(4, Value::bit(1));
  const AsyncRunResult res = backend->run_async_protocol(
      SystemParams{4, 1}, bracha_factory(), proposals,
      AsyncAdversary::none());
  EXPECT_TRUE(res.run.quiesced);
  for (const auto& decision : res.run.decisions) {
    EXPECT_TRUE(decision.has_value());
  }
}

}  // namespace
}  // namespace ba::async
