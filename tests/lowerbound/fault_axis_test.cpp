// The sweep's fault axis: message-vs-fault curves per grid point, on both
// execution substrates, plus the byte-identity contract for legacy (axis-
// less) sweeps. The curves are the paper's point made measurable: the
// static bound stays Omega(t^2) at every actual-fault count f — observed
// cost never exceeds it, however few processes actually misbehave.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ba.h"

namespace ba::lowerbound {
namespace {

SweepOptions axis_options(const char* kind) {
  SweepOptions options;
  options.fault_axis = faults::FaultSpec{};
  options.fault_axis->kind = *faults::find_fault_kind(kind);
  return options;
}

TEST(FaultAxis, ChartsOnePointPerFOnTheLockstepBackend) {
  const std::vector<SystemParams> grid = {{12, 11}};
  const SweepResult result =
      run_attack_sweep(standard_sweep_entries(), grid, axis_options("isolate"));
  EXPECT_EQ(result.fault_axis, "isolate:0");
  ASSERT_EQ(result.rows.size(), 4u);
  for (const SweepRow& row : result.rows) {
    // One curve point per f in 0..t, in order.
    ASSERT_EQ(row.fault_curve.size(), row.params.t + 1u) << row.protocol_name;
    for (std::uint32_t f = 0; f <= row.params.t; ++f) {
      const FaultCurvePoint& point = row.fault_curve[f];
      EXPECT_EQ(point.f, f);
      // The acceptance criterion: observed <= static bound at EVERY f.
      if (point.static_bound_f) {
        EXPECT_LE(point.messages, *point.static_bound_f)
            << row.protocol_name << " f=" << f;
      }
    }
    // The f = t bound equals the row's worst-case static bound (no
    // registered CommSpec weakens with f).
    if (row.static_bound) {
      EXPECT_EQ(row.fault_curve.back().static_bound_f, row.static_bound)
          << row.protocol_name;
    }
  }
}

TEST(FaultAxis, HoldsOnTheSimBackendToo) {
  SweepOptions options = axis_options("crash");
  options.attack.backend = engine::Registry::global().make(
      *engine::parse_backend_spec("sim:sync,1"));
  const std::vector<SystemParams> grid = {{12, 11}};
  const SweepResult result =
      run_attack_sweep(standard_sweep_entries(), grid, options);
  for (const SweepRow& row : result.rows) {
    ASSERT_EQ(row.fault_curve.size(), row.params.t + 1u) << row.protocol_name;
    for (const FaultCurvePoint& point : row.fault_curve) {
      if (point.static_bound_f) {
        EXPECT_LE(point.messages, *point.static_bound_f)
            << row.protocol_name << " f=" << point.f;
      }
    }
  }
}

TEST(FaultAxis, CurveIsDeterministicAcrossWorkerCounts) {
  // The curve runs are scheduled as pieces of their own, so a point's row is
  // assembled from several workers: it must still match the serial row.
  const std::vector<SystemParams> grid = {{12, 11}, {16, 15}};
  for (const char* backend : {"lockstep", "sim:sync,1"}) {
    SweepOptions options = axis_options("isolate");
    options.attack.backend = engine::make_backend(backend);
    const SweepResult serial =
        run_attack_sweep(standard_sweep_entries(), grid, options);
    ASSERT_EQ(serial.rows.size(), 8u) << backend;
    for (const unsigned jobs : {2u, 8u}) {
      options.jobs = jobs;
      const SweepResult pooled =
          run_attack_sweep(standard_sweep_entries(), grid, options);
      ASSERT_EQ(pooled.rows.size(), serial.rows.size()) << backend;
      for (std::size_t i = 0; i < serial.rows.size(); ++i) {
        EXPECT_EQ(encode_sweep_row_ndjson(pooled.rows[i]),
                  encode_sweep_row_ndjson(serial.rows[i]))
            << backend << " jobs=" << jobs << " row=" << i;
        EXPECT_EQ(pooled.rows[i], serial.rows[i])
            << backend << " jobs=" << jobs << " row=" << i;
      }
    }
  }
}

/// Sends nothing and decides 0 once round `decide_round` is delivered: a
/// protocol whose runs need more rounds than RunOptions' default cap.
class LateDecider final : public Process {
 public:
  explicit LateDecider(Round decide_round) : decide_round_(decide_round) {}
  Outbox outbox_for_round(Round) override { return {}; }
  void deliver(Round r, const Inbox&) override {
    if (r >= decide_round_) decision_ = Value::bit(0);
  }
  [[nodiscard]] std::optional<Value> decision() const override {
    return decision_;
  }

 private:
  Round decide_round_;
  std::optional<Value> decision_;
};

TEST(FaultAxis, CurveRunsUnderTheAttackRoundCap) {
  // Deciding at round 1200 is past RunOptions' 1000-round default but
  // within AttackOptions' 4000: the curve must use the attack's cap.
  const std::vector<SweepEntry> entries = {
      {"late-decider", [](const SystemParams&) -> ProtocolFactory {
         return [](const ProcessContext&) {
           return std::make_unique<LateDecider>(1200);
         };
       }}};
  const std::vector<SystemParams> grid = {{5, 2}};
  SweepOptions options = axis_options("crash");
  ASSERT_GT(options.attack.max_rounds, 1200u);
  const SweepResult uncapped = run_attack_sweep(entries, grid, options);
  ASSERT_EQ(uncapped.rows.size(), 1u);
  ASSERT_EQ(uncapped.rows[0].fault_curve.size(), 3u);
  for (const FaultCurvePoint& point : uncapped.rows[0].fault_curve) {
    EXPECT_TRUE(point.agree) << "f=" << point.f;
  }

  options.attack.max_rounds = 100;
  const SweepResult capped = run_attack_sweep(entries, grid, options);
  ASSERT_EQ(capped.rows.size(), 1u);
  ASSERT_EQ(capped.rows[0].fault_curve.size(), 3u);
  for (const FaultCurvePoint& point : capped.rows[0].fault_curve) {
    EXPECT_FALSE(point.agree) << "f=" << point.f;
  }
}

TEST(FaultAxis, NonSweepableKindsAreRejected) {
  const std::vector<SystemParams> grid = {{12, 11}};
  try {
    (void)run_attack_sweep(standard_sweep_entries(), grid,
                           axis_options("fault-free"));
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "sweep fault axis 'fault-free': want a sweepable fault kind "
                 "(crash mute isolate silent-byz noise-byz)");
  }
  EXPECT_THROW((void)run_attack_sweep(standard_sweep_entries(), grid,
                                      axis_options("random-omissions")),
               std::runtime_error);
}

TEST(FaultAxis, LegacySweepRowsStayByteIdentical) {
  // Golden NDJSON captured from the pre-fault-axis sweep binary
  // (`ba_cli sweep --jobs 1 --grid 12:11 --out`): an axis-less sweep must
  // reproduce these bytes exactly — no fault_curve field, same field order.
  const std::vector<std::string> golden = {
      R"({"protocol":"silent-default","n":12,"t":11,"messages":0,"bound":3,"static_bound":0,"violation":true,"kind":"WeakValidity","certificate_verified":true,"certificate_bytes":1200})",
      R"({"protocol":"leader-beacon","n":12,"t":11,"messages":11,"bound":3,"static_bound":11,"violation":true,"kind":"Agreement","certificate_verified":true,"certificate_bytes":3118})",
      R"({"protocol":"gossip-ring-2","n":12,"t":11,"messages":72,"bound":3,"static_bound":72,"violation":true,"kind":"Agreement","certificate_verified":true,"certificate_bytes":11756})",
      R"({"protocol":"dolev-strong-weak","n":12,"t":11,"messages":132,"bound":3,"static_bound":275,"violation":false,"kind":"","certificate_verified":false,"certificate_bytes":0})",
  };
  const std::vector<SystemParams> grid = {{12, 11}};
  const SweepResult result =
      run_attack_sweep(standard_sweep_entries(), grid, SweepOptions{});
  ASSERT_EQ(result.rows.size(), golden.size());
  EXPECT_TRUE(result.fault_axis.empty());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(encode_sweep_row_ndjson(result.rows[i]), golden[i]);
  }
}

TEST(FaultAxis, NdjsonCarriesTheCurveOnlyWhenSwept) {
  SweepRow row;
  row.protocol_name = "x";
  row.params = {4, 1};
  const std::string bare = encode_sweep_row_ndjson(row);
  EXPECT_EQ(bare.find("fault_curve"), std::string::npos);

  row.fault_curve.push_back({0, 5, 7, true});
  row.fault_curve.push_back({1, 6, std::nullopt, false});
  EXPECT_EQ(
      encode_sweep_row_ndjson(row).substr(bare.size() - 1),
      R"(,"fault_curve":[{"f":0,"messages":5,"static_bound_f":7,"agree":true},)"
      R"({"f":1,"messages":6,"static_bound_f":null,"agree":false}]})");
}

}  // namespace
}  // namespace ba::lowerbound
