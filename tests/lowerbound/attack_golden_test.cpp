// Golden reports for the Theorem 2 attack. Every expected value below was
// recorded from the attack engine as it stood before its fault-free runs
// stopped returning traces and the round loop stopped re-sorting outboxes
// (commit 075a21b). The jobs-invariance checks of the sweep compare two
// runs of the same code, so they cannot catch a change that moves both
// sides together; these pins can. Each row must hold on the lockstep
// executor and on the simulator in lock-step mode alike.

#include "lowerbound/attack.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "crypto/siphash.h"
#include "engine/registry.h"
#include "lowerbound/certificate_io.h"
#include "protocols/common.h"
#include "protocols/registry.h"

namespace ba::lowerbound {
namespace {

struct GoldenAttack {
  const char* protocol;
  SystemParams params;
  bool violation;
  std::uint64_t max_messages;
  std::optional<Round> critical_round;
  std::optional<int> default_bit;
  std::optional<int> family_bit;
  /// encode_certificate's size and its SipHash-2-4 under the all-zero key;
  /// both 0 when no certificate was constructed.
  std::size_t cert_bytes;
  std::uint64_t cert_digest;
  const char* narrative;
};

std::string optional_literal(const auto& v) {
  return v ? std::to_string(*v) : std::string("std::nullopt");
}

/// The row `report` would need, as a C++ initializer (printed on mismatch).
std::string literal(const GoldenAttack& want, const AttackReport& got,
                    std::size_t bytes, std::uint64_t digest) {
  char digest_hex[32];
  std::snprintf(digest_hex, sizeof digest_hex, "0x%016llxULL",
                static_cast<unsigned long long>(digest));
  std::string out = std::string("{\"") + want.protocol + "\", {" +
                    std::to_string(want.params.n) + ", " +
                    std::to_string(want.params.t) + "}, " +
                    (got.violation_found ? "true" : "false") + ", " +
                    std::to_string(got.max_message_complexity) + ", " +
                    optional_literal(got.critical_round) + ", " +
                    optional_literal(got.default_bit) + ", " +
                    optional_literal(got.family_bit) + ", " +
                    std::to_string(bytes) + ", " + digest_hex + ",\n \"";
  for (char c : got.narrative) {
    out += c == '\n' ? std::string("\\n\"\n \"") : std::string(1, c);
  }
  return out + "\"},";
}

void expect_golden(const GoldenAttack& want, const ProtocolFactory& protocol,
                   const char* backend) {
  AttackOptions options;
  options.backend = engine::make_backend(backend);
  const AttackReport got =
      attack_weak_consensus(want.params, protocol, options);
  std::size_t bytes = 0;
  std::uint64_t digest = 0;
  if (got.certificate) {
    const Bytes encoded = encode_certificate(*got.certificate);
    bytes = encoded.size();
    digest = crypto::siphash24(crypto::SipKey{}, encoded);
  }
  SCOPED_TRACE(std::string(want.protocol) + " (" +
               std::to_string(want.params.n) + ", " +
               std::to_string(want.params.t) + ") on " + backend +
               "; actual row:\n" + literal(want, got, bytes, digest));
  EXPECT_EQ(got.narrative, want.narrative);
  EXPECT_EQ(got.violation_found, want.violation);
  EXPECT_EQ(got.certificate.has_value(), want.violation);
  EXPECT_EQ(got.max_message_complexity, want.max_messages);
  EXPECT_EQ(got.bound, lemma1_bound(want.params.t));
  EXPECT_EQ(got.critical_round, want.critical_round);
  EXPECT_EQ(got.default_bit, want.default_bit);
  EXPECT_EQ(got.family_bit, want.family_bit);
  EXPECT_EQ(bytes, want.cert_bytes);
  EXPECT_EQ(digest, want.cert_digest);
}

constexpr const char* kBackends[] = {"lockstep", "sim:sync,1"};

constexpr const char* kSurvives =
    "decision of A in E_0^B(1): 0\n"
    "decision of A in E_1^B(1): 1\n"
    "decision of A in E_1^C(1): 1\n"
    "drilling into merge(E_0^B(1), E_1^C(1)) (A decides 0 vs 1)\n"
    "A decides 0 in the merged execution\n"
    "no swap_omission certificate constructible from merge(E_0^B(1), "
    "E_1^C(1)) (message complexity too high for the pigeonhole)\n";

TEST(AttackGolden, EveryRegisteredProtocol) {
  // eig-strong runs at (10, 3): its EIG tree at (16, 5) makes a single
  // attack take about a minute.
  const GoldenAttack golden[] = {
      {"silent", {8, 2}, true, 0, std::nullopt, std::nullopt, std::nullopt,
       860, 0xecc3c0e4abcce641ULL,
       "VIOLATION (WeakValidity): E_0 (fault-free, unanimous 0) decides 1 "
       "instead of 0\n"},
      {"silent", {16, 5}, true, 0, std::nullopt, std::nullopt, std::nullopt,
       1540, 0xb6ed59a14a400ef5ULL,
       "VIOLATION (WeakValidity): E_0 (fault-free, unanimous 0) decides 1 "
       "instead of 0\n"},
      {"beacon", {8, 2}, true, 7, std::nullopt, std::nullopt, std::nullopt,
       2090, 0x377a2fca8f83e43cULL,
       "VIOLATION (Agreement): E_0^{G(1)} with G={p6 }; isolated p6 (now "
       "correct after swap_omission) decides 1 while correct p1 decides 0\n"},
      {"beacon", {16, 5}, true, 15, std::nullopt, std::nullopt, std::nullopt,
       4124, 0x44881530d13977e5ULL,
       "VIOLATION (Agreement): E_0^{G(1)} with G={p14 }; isolated p14 (now "
       "correct after swap_omission) decides 1 while correct p1 decides 0\n"},
      {"gossip", {8, 2}, true, 48, std::nullopt, std::nullopt, std::nullopt,
       7891, 0x6f444defa805510fULL,
       "VIOLATION (Agreement): correct processes disagree within E_0^B(1)\n"},
      {"gossip", {16, 5}, true, 96, std::nullopt, std::nullopt, std::nullopt,
       15603, 0xa4f31a5dde46f5cdULL,
       "VIOLATION (Agreement): correct processes disagree within E_0^B(1)\n"},
      {"one-shot-echo", {8, 2}, false, 56, std::nullopt, 0, std::nullopt,
       0, 0,
       "decision of A in E_0^B(1): 0\n"
       "decision of A in E_1^B(1): 1\n"
       "decision of A in E_1^C(1): 1\n"
       "drilling into merge(E_0^B(1), E_1^C(1)) (A decides 0 vs 1)\n"
       "A decides 1 in the merged execution\n"
       "no swap_omission certificate constructible from merge(E_0^B(1), "
       "E_1^C(1)) (message complexity too high for the pigeonhole)\n"},
      {"one-shot-echo", {16, 5}, false, 240, std::nullopt, 0, std::nullopt,
       0, 0,
       "decision of A in E_0^B(1): 0\n"
       "decision of A in E_1^B(1): 1\n"
       "decision of A in E_1^C(1): 1\n"
       "drilling into merge(E_0^B(1), E_1^C(1)) (A decides 0 vs 1)\n"
       "A decides 1 in the merged execution\n"
       "no swap_omission certificate constructible from merge(E_0^B(1), "
       "E_1^C(1)) (message complexity too high for the pigeonhole)\n"},
      {"ds-weak", {8, 2}, false, 56, std::nullopt, 0, std::nullopt,
       0, 0,
       kSurvives},
      {"ds-weak", {16, 5}, false, 240, std::nullopt, 0, std::nullopt,
       0, 0,
       kSurvives},
      {"phase-king", {8, 2}, false, 357, std::nullopt, 0, std::nullopt,
       0, 0,
       kSurvives},
      {"phase-king", {16, 5}, false, 2970, std::nullopt, 0, std::nullopt,
       0, 0,
       kSurvives},
      {"phase-king-strong", {8, 2}, false, 357, std::nullopt, 0, std::nullopt,
       0, 0,
       kSurvives},
      {"phase-king-strong", {16, 5}, false, 2970, std::nullopt, 0, std::nullopt,
       0, 0,
       kSurvives},
      {"floodset", {8, 2}, false, 168, std::nullopt, 0, std::nullopt,
       0, 0,
       kSurvives},
      {"floodset", {16, 5}, false, 1440, std::nullopt, 0, std::nullopt,
       0, 0,
       kSurvives},
      {"eig-strong", {8, 2}, false, 168, std::nullopt, 0, std::nullopt,
       0, 0,
       kSurvives},
      {"eig-strong", {10, 3}, false, 360, std::nullopt, 0, std::nullopt,
       0, 0,
       kSurvives},
  };
  for (const GoldenAttack& want : golden) {
    const ProtocolFactory protocol =
        *protocols::make_protocol_by_name(want.protocol, want.params.n);
    for (const char* backend : kBackends) {
      expect_golden(want, protocol, backend);
    }
  }
}

/// A candidate that reaches the Lemma 4 scan (none of the registered
/// protocols does at these sizes). Everyone multicasts its proposal in
/// round 1; a process that hears from fewer than n - t others and may
/// alarm multicasts an alarm in round 2; a process decides 1 on any alarm
/// and its proposal otherwise. Isolating a group from round 1 raises its
/// alarm and isolating it from round 2 does not, so the decision of the
/// proposal-0 family flips at R = 1.
class AlarmCandidate final : public protocols::DecidingProcess {
 public:
  AlarmCandidate(const ProcessContext& ctx, bool even_only)
      : ctx_(ctx), may_alarm_(!even_only || ctx.self % 2 == 0) {}

  Outbox outbox_for_round(Round r) override {
    Outbox out;
    if (r == 1 || (r == 2 && alarmed_)) {
      for (ProcessId p = 0; p < ctx_.params.n; ++p) {
        if (p == ctx_.self) continue;
        out.push_back(Outgoing{p, r == 1 ? ctx_.proposal : Value{"alarm"}});
      }
    }
    return out;
  }

  void deliver(Round r, const Inbox& inbox) override {
    if (r == 1) {
      alarmed_ = may_alarm_ && inbox.size() < ctx_.params.n - ctx_.params.t;
    } else if (r == 2) {
      bool alarm = false;
      for (const Message& m : inbox) {
        alarm = alarm || m.payload == Value{"alarm"};
      }
      decide(alarm ? Value::bit(1) : ctx_.proposal);
    }
  }

 private:
  ProcessContext ctx_;
  bool may_alarm_;
  bool alarmed_{false};
};

ProtocolFactory alarm_candidate(bool even_only) {
  return [even_only](const ProcessContext& ctx) {
    return std::make_unique<AlarmCandidate>(ctx, even_only);
  };
}

TEST(AttackGolden, LemmaFourScanDrillsBothNeighbours) {
  // "alarm": E^C(R) agrees with E^B(R), so the engine drills E^B(R + 1).
  // "even-alarm": only even ids alarm, so the C group (odd here) stays
  // quiet, E^C(R) differs from E^B(R), and the engine drills E^B(R).
  const GoldenAttack golden[] = {
      {"alarm", {8, 2}, true, 56, 1, 1, 0,
       6587, 0x162c46e25d2e1d6bULL,
       "decision of A in E_0^B(1): 1\n"
       "using proposal-0 execution family\n"
       "R_max = 3\n"
       "critical round R = 1: A decides 1 in E^B(R) but 0 in E^B(R+1)\n"
       "decision of A in E_0^C(1): 1\n"
       "drilling into merge(E_0^B(2), E_0^C(1)) (A decides 0 vs 1)\n"
       "A decides 1 in the merged execution\n"
       "VIOLATION (Agreement): merge(E_0^B(2), E_0^C(1)): A disagrees with "
       "isolated group B; isolated p6 (now correct after swap_omission) "
       "decides 0 while correct p0 decides 1\n"},
      {"alarm", {16, 5}, true, 240, 1, 1, 0,
       22772, 0x3c85181f17ca30dcULL,
       "decision of A in E_0^B(1): 1\n"
       "using proposal-0 execution family\n"
       "R_max = 3\n"
       "critical round R = 1: A decides 1 in E^B(R) but 0 in E^B(R+1)\n"
       "decision of A in E_0^C(1): 1\n"
       "drilling into merge(E_0^B(2), E_0^C(1)) (A decides 0 vs 1)\n"
       "A decides 1 in the merged execution\n"
       "VIOLATION (Agreement): merge(E_0^B(2), E_0^C(1)): A disagrees with "
       "isolated group B; isolated p14 (now correct after swap_omission) "
       "decides 0 while correct p0 decides 1\n"},
      {"even-alarm", {8, 2}, false, 56, 1, 1, 0,
       0, 0,
       "decision of A in E_0^B(1): 1\n"
       "using proposal-0 execution family\n"
       "R_max = 3\n"
       "critical round R = 1: A decides 1 in E^B(R) but 0 in E^B(R+1)\n"
       "decision of A in E_0^C(1): 0\n"
       "drilling into merge(E_0^B(1), E_0^C(1)) (A decides 1 vs 0)\n"
       "A decides 1 in the merged execution\n"
       "no swap_omission certificate constructible from merge(E_0^B(1), "
       "E_0^C(1)) (message complexity too high for the pigeonhole)\n"},
      {"even-alarm", {16, 5}, false, 240, 1, 1, 0,
       0, 0,
       "decision of A in E_0^B(1): 1\n"
       "using proposal-0 execution family\n"
       "R_max = 3\n"
       "critical round R = 1: A decides 1 in E^B(R) but 0 in E^B(R+1)\n"
       "decision of A in E_0^C(1): 0\n"
       "drilling into merge(E_0^B(1), E_0^C(1)) (A decides 1 vs 0)\n"
       "A decides 1 in the merged execution\n"
       "no swap_omission certificate constructible from merge(E_0^B(1), "
       "E_0^C(1)) (message complexity too high for the pigeonhole)\n"},
  };
  for (const GoldenAttack& want : golden) {
    const bool even_only = std::string(want.protocol) == "even-alarm";
    for (const char* backend : kBackends) {
      expect_golden(want, alarm_candidate(even_only), backend);
    }
  }
}

}  // namespace
}  // namespace ba::lowerbound
