#include "core/ba.h"

#include <sstream>

#include "protocols/common.h"

namespace ba {

validity::SolvabilityVerdict AgreementProblem::analyze() const {
  return validity::solvability(property_, params_.n, params_.t);
}

namespace {

/// Zero-message solver for trivial problems: decide the always-admissible
/// value in round 1.
class TrivialSolver final : public protocols::DecidingProcess {
 public:
  explicit TrivialSolver(Value v) : v_(std::move(v)) {}
  Outbox outbox_for_round(Round) override { return {}; }
  void deliver(Round r, const Inbox&) override {
    if (r == 1) decide(v_);
  }

 private:
  Value v_;
};

}  // namespace

std::optional<ProtocolFactory> AgreementProblem::make_solver(
    bool authenticated,
    std::shared_ptr<const crypto::Authenticator> auth) const {
  if (auto trivial =
          validity::trivial_value(property_, params_.n, params_.t)) {
    Value v = *trivial;
    return ProtocolFactory{[v](const ProcessContext&) {
      return std::make_unique<TrivialSolver>(v);
    }};
  }
  if (!validity::satisfies_cc(property_, params_.n, params_.t)) {
    return std::nullopt;  // Theorem 4: CC is necessary
  }
  if (authenticated) {
    if (!auth) return std::nullopt;
    return reductions::agreement_from_ic(
        property_, params_,
        protocols::auth_interactive_consistency(std::move(auth)));
  }
  if (params_.n <= 3 * params_.t) return std::nullopt;  // FLM / Lemma 10
  return reductions::agreement_from_ic(property_, params_,
                                       protocols::eig_interactive_consistency());
}

std::optional<std::string> AgreementProblem::check_execution(
    const ExecutionTrace& trace) const {
  const validity::InputConfig c = input_conf(trace);
  for (ProcessId p = 0; p < trace.params.n; ++p) {
    if (trace.faulty.contains(p)) continue;
    const auto& d = trace.procs[p].decision;
    if (!d) continue;
    if (!property_.admissible(c, *d)) {
      std::ostringstream os;
      os << "correct p" << p << " decided inadmissible value " << *d;
      return os.str();
    }
  }
  return std::nullopt;
}

validity::InputConfig input_conf(const ExecutionTrace& trace) {
  std::vector<std::optional<Value>> slots(trace.params.n);
  for (ProcessId p = 0; p < trace.params.n; ++p) {
    if (!trace.faulty.contains(p)) slots[p] = trace.procs[p].proposal;
  }
  return validity::InputConfig{std::move(slots)};
}

}  // namespace ba
