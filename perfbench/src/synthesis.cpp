// synthesis: the Theorem 4 -> Algorithm 1 -> Theorem 2 pipeline over a set
// of agreement problems. Per problem: validity::solvability; when solvable,
// AgreementProblem::make_solver, then derive_reduction_params ->
// weak_consensus_from_any -> attack_weak_consensus. One task is one problem.
// The seed picks the sender index, the authenticator key and the constant.

#include <memory>
#include <stdexcept>

#include "core/ba.h"
#include "probe.h"
#include "workload.h"

namespace perfbench {
namespace {

using ba::SystemParams;
using ba::Value;

enum class Kind { kWeak, kStrong, kSender, kIc, kAnyProposed, kConstant };

const Kind kKinds[] = {Kind::kWeak, Kind::kStrong,      Kind::kSender,
                       Kind::kIc,   Kind::kAnyProposed, Kind::kConstant};
const SystemParams kPoints[] = {{5, 2}, {6, 3}, {7, 2},
                                {8, 3}, {8, 4}, {9, 3}};

/// The verdict Theorems 4 and 5 predict for a canned binary property.
ba::validity::SolvabilityVerdict predicted(Kind kind, const SystemParams& p) {
  ba::validity::SolvabilityVerdict v;
  if (kind == Kind::kConstant) {
    v.trivial = v.cc = true;
    v.authenticated_solvable = v.unauthenticated_solvable = true;
    return v;
  }
  // Weak, sender and IC validity always satisfy CC; strong and (binary)
  // any-proposed validity satisfy it iff n > 2t (Theorem 5).
  v.cc = (kind == Kind::kStrong || kind == Kind::kAnyProposed)
             ? p.n > 2 * p.t
             : true;
  v.authenticated_solvable = v.cc;
  v.unauthenticated_solvable = v.cc && p.n > 3 * p.t;
  return v;
}

struct Problem {
  Kind kind;
  ba::AgreementProblem problem;
  std::shared_ptr<const ba::crypto::Authenticator> auth;
  /// Constant property only: the value its trivial solver must decide.
  Value constant;
};

/// Per-stage clocks of the traced batch.
struct StageTimes {
  double solvability_s{0};
  double make_solver_s{0};
  double derive_s{0};
  double attack_s{0};
  std::uint64_t attacks{0};
};

class Synthesis final : public Workload {
 public:
  explicit Synthesis(const RunConfig& config) : config_(config) {}

  void setup() override {
    problems_.clear();
    const std::uint64_t mix = mix_seed(config_.seed);
    const Value constant = Value::bit(static_cast<int>(mix & 1));
    const std::vector<Value> constant_domain = {
        constant, Value::bit(1 - static_cast<int>(mix & 1))};
    for (const SystemParams& p : kPoints) {
      const auto auth = std::make_shared<const ba::crypto::Authenticator>(
          config_.seed, p.n);
      const auto sender = static_cast<ba::ProcessId>((mix >> 8) % p.n);
      for (Kind kind : kKinds) {
        problems_.push_back(
            {kind, ba::AgreementProblem{p, property(kind, p, sender,
                                                    constant_domain)},
             auth, constant});
      }
    }
    backend_ = ba::engine::make_backend("lockstep");
    // Warm-up: every property through the whole pipeline at the first point.
    for (std::size_t i = 0; i < std::size(kKinds); ++i) {
      (void)solve(problems_[i], backend_, nullptr);
    }
  }

  BatchResult run_batch() override {
    reset_counters();
    return batch(probe_backend(backend_, false), nullptr);
  }

  std::uint64_t check_against_reference() override { return 0; }

  std::uint64_t traced(double untraced_tasks_per_s,
                       LayerMetrics& out) override {
    reset_counters();
    StageTimes times;
    const Clock::time_point start = Clock::now();
    const BatchResult result = batch(probe_backend(backend_, true), &times);
    const double wall = seconds_since(start);
    const LayerCounters c = total_counters();
    const double engine_s = static_cast<double>(c.engine_ns) / 1e9;
    out["engine.run_calls"] = static_cast<double>(c.engine_calls);
    out["engine.run_s"] = engine_s;
    out["engine.run_s.lockstep"] =
        static_cast<double>(c.engine_ns_lockstep) / 1e9;
    out["runtime.msgs"] = static_cast<double>(c.msgs);
    out["runtime.rounds"] = static_cast<double>(c.rounds);
    out["protocols.step_calls"] = static_cast<double>(c.step_calls);
    out["protocols.step_s"] = static_cast<double>(c.step_ns) / 1e9;
    out["lowerbound.attack_calls"] = static_cast<double>(times.attacks);
    out["lowerbound.attack_s"] = times.attack_s;
    out["lowerbound.self_s"] = times.attack_s - engine_s;
    out["validity.solvability_s"] = times.solvability_s;
    out["validity.make_solver_s"] = times.make_solver_s;
    out["validity.problems"] = static_cast<double>(result.tasks);
    out["validity.input_configs"] =
        static_cast<double>(result.counts.validity_input_configs);
    out["reductions.derive_s"] = times.derive_s;
    out["trace.overhead"] =
        1.0 - static_cast<double>(result.tasks) / wall / untraced_tasks_per_s;
    return result.failed;
  }

 private:
  static ba::validity::ValidityProperty property(
      Kind kind, const SystemParams& p, ba::ProcessId sender,
      const std::vector<Value>& constant_domain) {
    switch (kind) {
      case Kind::kWeak:
        return ba::validity::weak_validity(p.n, p.t);
      case Kind::kStrong:
        return ba::validity::strong_validity(p.n, p.t);
      case Kind::kSender:
        return ba::validity::sender_validity(p.n, p.t, sender);
      case Kind::kIc:
        return ba::validity::ic_validity(p.n, p.t);
      case Kind::kAnyProposed:
        return ba::validity::any_proposed_validity(p.n, p.t);
      case Kind::kConstant:
        return ba::validity::constant_validity(p.n, p.t, constant_domain);
    }
    throw std::logic_error("unknown property kind");
  }

  /// Runs every problem through the pipeline; `times` (traced batch only)
  /// also gets per-stage clocks and the solver's steps are probed.
  BatchResult batch(const ba::engine::BackendHandle& backend,
                    StageTimes* times) const {
    BatchResult result;
    for (const Problem& pr : problems_) {
      ++result.tasks;
      const SystemParams& params = pr.problem.params();
      result.counts.validity_input_configs += ba::validity::count_input_configs(
          params.n, params.t, pr.problem.property().input_domain.size());
      if (!solve(pr, backend, times)) ++result.failed;
    }
    result.counts.runtime_msgs = total_counters().msgs;
    result.counts.runtime_rounds = total_counters().rounds;
    return result;
  }

  /// One problem through the pipeline; false when an oracle fails.
  static bool solve(const Problem& pr, const ba::engine::BackendHandle& backend,
                    StageTimes* times) {
    const SystemParams& params = pr.problem.params();
    const ba::validity::ValidityProperty& prop = pr.problem.property();
    Clock::time_point start = Clock::now();
    const ba::validity::SolvabilityVerdict verdict =
        ba::validity::solvability(prop, params.n, params.t);
    if (times) times->solvability_s += seconds_since(start);
    const ba::validity::SolvabilityVerdict want = predicted(pr.kind, params);
    if (verdict.trivial != want.trivial || verdict.cc != want.cc ||
        verdict.authenticated_solvable != want.authenticated_solvable ||
        verdict.unauthenticated_solvable != want.unauthenticated_solvable) {
      return false;
    }
    if (!verdict.authenticated_solvable) return true;

    start = Clock::now();
    std::optional<ba::ProtocolFactory> solver =
        pr.problem.make_solver(/*authenticated=*/true, pr.auth);
    if (times) times->make_solver_s += seconds_since(start);
    if (!solver) return false;
    if (times) solver = probe_protocol(std::move(*solver));
    if (verdict.trivial) {
      // Zero messages, and every process decides the seed's constant.
      const ba::RunResult res =
          backend->run_all_correct(params, *solver, pr.constant);
      return res.messages_sent_total == 0 &&
             res.unanimous_correct_decision() == pr.constant;
    }

    start = Clock::now();
    std::string error;
    const std::optional<ba::reductions::ReductionParams> rp =
        ba::reductions::derive_reduction_params(prop, params, *solver, &error);
    if (times) times->derive_s += seconds_since(start);
    if (!rp) return false;

    ba::lowerbound::AttackOptions options;
    options.backend = backend;
    start = Clock::now();
    const ba::lowerbound::AttackReport report =
        ba::lowerbound::attack_weak_consensus(
            params, ba::reductions::weak_consensus_from_any(*solver, *rp),
            options);
    if (times) {
      times->attack_s += seconds_since(start);
      ++times->attacks;
    }
    // The synthesized solver survives the attack and pays the t^2/32 bound.
    return !report.violation_found &&
           report.max_message_complexity >= report.bound;
  }

  RunConfig config_;
  std::vector<Problem> problems_;
  ba::engine::BackendHandle backend_;
};

}  // namespace

std::unique_ptr<Workload> make_synthesis(const RunConfig& config) {
  return std::make_unique<Synthesis>(config);
}

}  // namespace perfbench
