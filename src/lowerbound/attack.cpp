#include "lowerbound/attack.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "adversary/omission.h"
#include "calculus/merge.h"
#include "lowerbound/lemma2.h"
#include "runtime/sync_system.h"

namespace ba::lowerbound {
namespace {

using calculus::IsolatedExecution;

class Engine {
 public:
  Engine(const SystemParams& params, const ProtocolFactory& protocol,
         const AttackOptions& options)
      : params_(params),
        protocol_(protocol),
        options_(options),
        backend_(options.backend ? *options.backend
                                 : engine::default_backend()) {
    if (!backend_.has_capability(engine::Capability::kTraces)) {
      throw std::invalid_argument("attack engine requires a backend with "
                                  "trace support (Capability::kTraces)");
    }
    report_.bound = lemma1_bound(params.t);
    const std::uint32_t g = std::max<std::uint32_t>(1, params.t / 4);
    b_ = options.group_b.value_or(
        ProcessSet::range(params.n - 2 * g, params.n - g));
    c_ = options.group_c.value_or(ProcessSet::range(params.n - g, params.n));
    if (b_.size() + c_.size() > params.t) {
      throw std::invalid_argument(
          "attack requires |B| + |C| <= t (need t >= 2)");
    }
  }

  AttackReport run() {
    // Step 0: fault-free executions E_0 and E_1 (sanity + R_max). Only
    // their R_max values outlive the check.
    const Round r_max0 = run_fault_free(0);
    if (done()) return finish();
    const Round r_max1 = run_fault_free(1);
    if (done()) return finish();

    int family;
    {  // The round-1 executions are dropped once the family is picked.
      // Step 1: the default bit — A's decision with B isolated from round 1.
      IsolatedExecution e0b1 = run_isolated(0, b_, 1);
      auto d0 = correct_decision(e0b1.trace, "E_0^B(1)");
      if (done()) return finish();
      report_.default_bit = d0->try_bit().value_or(-1);
      log_ << "decision of A in E_0^B(1): " << *d0 << "\n";

      // Step 2: pick the execution family with a Lemma 4 flip.
      if (*d0 != Value::bit(0)) {
        family = 0;  // decision at k=1 differs from the fault-free decision 0
      } else {
        IsolatedExecution e1b1 = run_isolated(1, b_, 1);
        auto d1 = correct_decision(e1b1.trace, "E_1^B(1)");
        if (done()) return finish();
        log_ << "decision of A in E_1^B(1): " << *d1 << "\n";
        if (*d1 != Value::bit(1)) {
          family = 1;
        } else {
          // d0 = 0 and d1 = 1: two round-1 mergeable pairs cannot both
          // agree (Lemma 3). Measure E_1^C(1) and drill whichever pair
          // differs.
          IsolatedExecution e1c1 = run_isolated(1, c_, 1);
          auto z = correct_decision(e1c1.trace, "E_1^C(1)");
          if (done()) return finish();
          log_ << "decision of A in E_1^C(1): " << *z << "\n";
          if (*z != *d0) {
            drill(e0b1, *d0, e1c1, *z, "merge(E_0^B(1), E_1^C(1))");
          } else {
            drill(e1b1, *d1, e1c1, *z, "merge(E_1^B(1), E_1^C(1))");
          }
          return finish();
        }
      }
    }
    report_.family_bit = family;
    log_ << "using proposal-" << family << " execution family\n";

    // Step 3: Lemma 4 — scan isolation rounds for the decision flip.
    const Round r_max = family == 0 ? r_max0 : r_max1;
    log_ << "R_max = " << r_max << "\n";

    // Only E^B(k-1) and E^B(k) are kept: a flip drills one of the two.
    std::optional<IsolatedExecution> prev, cur;
    std::vector<Value> decs;
    std::optional<Round> flip;
    for (Round k = 1; k <= r_max; ++k) {
      prev = std::move(cur);
      cur = run_isolated(family, b_, k);
      std::ostringstream name;
      name << "E_" << family << "^B(" << k << ")";
      auto d = correct_decision(cur->trace, name.str());
      if (done()) return finish();
      decs.push_back(*d);
      if (k >= 2 && decs[k - 1] != decs[k - 2]) {
        flip = k - 1;  // decision changes between E^B(k-1) and E^B(k)
        break;
      }
    }
    if (!flip) {
      log_ << "no decision flip up to R_max; protocol ignores its proposals "
              "in this family — inconclusive\n";
      return finish();
    }
    const Round r = *flip;
    report_.critical_round = r;
    log_ << "critical round R = " << r << ": A decides " << decs[r - 1]
         << " in E^B(R) but " << decs[r] << " in E^B(R+1)\n";

    // Step 4: Lemma 5 — compare against the C-family and merge.
    IsolatedExecution ec_r = run_isolated(family, c_, r);
    std::ostringstream cname;
    cname << "E_" << family << "^C(" << r << ")";
    auto z = correct_decision(ec_r.trace, cname.str());
    if (done()) return finish();
    log_ << "decision of A in " << cname.str() << ": " << *z << "\n";

    if (*z != decs[r - 1]) {
      std::ostringstream how;
      how << "merge(E_" << family << "^B(" << r << "), " << cname.str() << ")";
      drill(*prev, decs[r - 1], ec_r, *z, how.str());
    } else {
      std::ostringstream how;
      how << "merge(E_" << family << "^B(" << (r + 1) << "), " << cname.str()
          << ")";
      drill(*cur, decs[r], ec_r, *z, how.str());
    }
    return finish();
  }

 private:
  [[nodiscard]] bool done() const {
    return report_.violation_found || inconclusive_;
  }

  AttackReport finish() {
    report_.narrative = log_.str();
    return report_;
  }

  RunOptions run_opts() const {
    RunOptions o;
    o.max_rounds = options_.max_rounds;
    o.record_trace = true;
    return o;
  }

  void observe(const ExecutionTrace& e) {
    report_.max_message_complexity =
        std::max(report_.max_message_complexity, e.message_complexity());
  }

  /// Runs E_bit and returns its R_max: the latest decision round + 1 (at
  /// least 1). The trace itself is dropped, or moved into a certificate.
  Round run_fault_free(int bit) {
    RunResult res =
        backend_.run_all_correct(params_, protocol_, Value::bit(bit),
                                 run_opts());
    observe(res.trace);
    Round r_max = 1;
    for (const ProcessTrace& pt : res.trace.procs) {
      r_max = std::max(r_max, pt.decision_round + 1);
    }
    std::ostringstream name;
    name << "E_" << bit << " (fault-free, unanimous " << bit << ")";
    auto d = correct_decision(res.trace, name.str());
    if (done()) return r_max;
    if (*d != Value::bit(bit)) {
      // Fault-free unanimous execution deciding the other value: a direct
      // Weak Validity violation.
      ViolationCertificate cert;
      cert.kind = ViolationKind::kWeakValidity;
      cert.execution = std::move(res.trace);
      cert.witness_a = 0;
      std::ostringstream os;
      os << name.str() << " decides " << *d << " instead of " << bit;
      cert.narrative = os.str();
      emit(std::move(cert));
    }
    return r_max;
  }

  IsolatedExecution run_isolated(int bit, const ProcessSet& g, Round k) {
    std::vector<Value> proposals(params_.n, Value::bit(bit));
    RunResult res = backend_.run(params_, protocol_, proposals,
                                 isolate_group(g, k), run_opts());
    observe(res.trace);
    // Lemma 2 applies to this execution directly (partition (G-bar, G, {})):
    // an isolated member with few omissions that disagrees with the correct
    // processes already yields a certificate, without any merging.
    if (options_.direct_lemma2 && !report_.violation_found) {
      std::ostringstream name;
      name << "E_" << bit << "^{G(" << k << ")} with G={";
      for (ProcessId p : g) name << 'p' << p << ' ';
      name << '}';
      if (auto cert = find_lemma2_violation(res.trace, g, name.str())) {
        emit(std::move(*cert));
      }
    }
    return IsolatedExecution{std::move(res.trace), g, k};
  }

  /// The unanimous decision of the correct processes of `e`; emits a direct
  /// certificate (and returns nullopt) on disagreement / non-termination.
  std::optional<Value> correct_decision(const ExecutionTrace& e,
                                        const std::string& name) {
    ProcessId undecided = kNoProcess;
    ProcessId first = kNoProcess;
    for (ProcessId p = 0; p < params_.n; ++p) {
      if (e.faulty.contains(p)) continue;
      if (!e.procs[p].decision.has_value()) {
        undecided = p;
        continue;
      }
      if (first == kNoProcess) {
        first = p;
      } else if (*e.procs[first].decision != *e.procs[p].decision) {
        ViolationCertificate cert;
        cert.kind = ViolationKind::kAgreement;
        cert.execution = e;
        cert.witness_a = first;
        cert.witness_b = p;
        cert.narrative = "correct processes disagree within " + name;
        emit(std::move(cert));
        return std::nullopt;
      }
    }
    if (undecided != kNoProcess) {
      if (e.quiesced) {
        ViolationCertificate cert;
        cert.kind = ViolationKind::kTermination;
        cert.execution = e;
        cert.witness_a = undecided;
        cert.narrative = "correct process undecided in quiesced " + name;
        emit(std::move(cert));
      } else {
        log_ << name << ": undecided correct process and no quiescence; "
             << "inconclusive\n";
        inconclusive_ = true;
      }
      return std::nullopt;
    }
    return *e.procs[first].decision;
  }

  /// Lemma 5's contradiction: merge two mergeable executions whose A-group
  /// decisions differ, then extract a Lemma 2 violation.
  void drill(const IsolatedExecution& eb, const Value& b1,
             const IsolatedExecution& ec, const Value& b2,
             const std::string& how) {
    log_ << "drilling into " << how << " (A decides " << b1 << " vs " << b2
         << ")\n";
    ExecutionTrace merged =
        calculus::merge(params_, protocol_, eb, ec, options_.max_rounds);
    observe(merged);

    auto b_a = correct_decision(merged, how);
    if (done()) return;
    log_ << "A decides " << *b_a << " in the merged execution\n";

    if (*b_a != b1) {
      if (auto cert = find_lemma2_violation(
              merged, eb.group, how + ": A disagrees with isolated group B")) {
        emit(std::move(*cert));
        return;
      }
    }
    if (*b_a != b2) {
      if (auto cert = find_lemma2_violation(
              merged, ec.group, how + ": A disagrees with isolated group C")) {
        emit(std::move(*cert));
        return;
      }
    }
    // The Lemma 3 contradiction also requires Lemma 2 to hold at the two
    // SOURCE executions (the proof applies it to the partitions
    // (A u C, B, {}) and (A u B, C, {})): a violation may surface there
    // rather than inside the merge.
    if (auto cert = find_lemma2_violation(
            eb.trace, eb.group, how + ": Lemma 2 fails at the B-source")) {
      emit(std::move(*cert));
      return;
    }
    if (auto cert = find_lemma2_violation(
            ec.trace, ec.group, how + ": Lemma 2 fails at the C-source")) {
      emit(std::move(*cert));
      return;
    }
    log_ << "no swap_omission certificate constructible from " << how
         << " (message complexity too high for the pigeonhole)\n";
  }

  void emit(ViolationCertificate cert) {
    if (report_.violation_found) return;  // first certificate wins
    log_ << "VIOLATION (" << to_string(cert.kind) << "): " << cert.narrative
         << "\n";
    report_.violation_found = true;
    report_.certificate = std::move(cert);
  }

  SystemParams params_;
  const ProtocolFactory& protocol_;
  AttackOptions options_;
  const engine::ExecutionBackend& backend_;
  AttackReport report_;
  ProcessSet b_, c_;
  std::ostringstream log_;
  bool inconclusive_{false};
};

}  // namespace

AttackReport attack_weak_consensus(const SystemParams& params,
                                   const ProtocolFactory& protocol,
                                   const AttackOptions& options) {
  return Engine(params, protocol, options).run();
}

}  // namespace ba::lowerbound
