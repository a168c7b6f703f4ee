#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "analysis/lint.h"
#include "runtime/serde.h"

namespace ba::sim {
namespace {

// One delivery as the receiver's network sees it, for the reorder metric.
struct Arrival {
  SimTime latency{0};
  ProcessId sender{kNoProcess};
};

// Deliveries that arrive out of canonical order at one receiver in one
// round. A message lands at round_start + latency, and equal latencies land
// in routing order, which is ascending sender; so arrival order is
// (latency, sender), and every step down in sender along it is one
// reordered delivery. `arrivals` comes in routing order.
std::uint64_t count_reordered(std::vector<Arrival>& arrivals) {
  const auto by_latency = [](const Arrival& a, const Arrival& b) {
    return a.latency < b.latency;
  };
  // Latencies that never decrease along routing order leave arrival order
  // equal to it: nothing is reordered.
  if (std::is_sorted(arrivals.begin(), arrivals.end(), by_latency)) return 0;
  // Senders are distinct within a (receiver, round), so sorting on the
  // pair is the stable sort by latency, without its scratch buffer.
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& a, const Arrival& b) {
              return std::tie(a.latency, a.sender) <
                     std::tie(b.latency, b.sender);
            });
  std::uint64_t descents = 0;
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    if (arrivals[i].sender < arrivals[i - 1].sender) ++descents;
  }
  return descents;
}

}  // namespace

SimResult simulate(const SystemParams& params, const ProtocolFactory& protocol,
                   const std::vector<Value>& proposals,
                   const Adversary& adversary, const FaultPlan& plan,
                   const SimConfig& config) {
  if (!params.valid()) throw std::invalid_argument("invalid SystemParams");
  if (proposals.size() != params.n) {
    throw std::invalid_argument("proposals.size() != n");
  }
  if (config.round_ticks == 0) {
    throw std::invalid_argument("round_ticks must be >= 1");
  }
  if (!plan.valid_for(params.n)) {
    throw std::invalid_argument("fault plan references processes >= n");
  }
  if (config.lint_trace && !config.record_trace) {
    throw std::invalid_argument(
        "SimConfig::lint_trace requires record_trace: there is no trace to "
        "lint when recording is off");
  }

  // Compile the fault plan into the static adversary and fold in the link
  // model's lag group, so every drop the simulation can produce is an
  // omission attributable to a declared-faulty process.
  Adversary adv = plan.apply_to(adversary);
  const ProcessSet& lag = config.link.required_faulty();
  if (!lag.empty()) adv.faulty = adv.faulty.set_union(lag);
  if (adv.faulty.size() > params.t) {
    throw std::invalid_argument(
        "combined faulty set (adversary + plan + link lag group) exceeds t");
  }
  if (!adv.byzantine.is_subset_of(adv.faulty)) {
    throw std::invalid_argument("byzantine set must be a subset of faulty");
  }
  if (!adv.byzantine.empty() && !adv.byzantine_factory) {
    throw std::invalid_argument("byzantine set without byzantine_factory");
  }

  const std::uint32_t n = params.n;
  std::vector<std::unique_ptr<Process>> replicas(n);
  for (ProcessId p = 0; p < n; ++p) {
    ProcessContext ctx{params, p, proposals[p]};
    replicas[p] = adv.is_byzantine(p) ? adv.byzantine_factory(ctx)
                                      : protocol(ctx);
    if (!replicas[p]) throw std::runtime_error("factory returned null");
  }

  SimResult out;
  RunResult& result = out.run;
  result.decisions.assign(n, std::nullopt);
  result.trace.params = params;
  result.trace.faulty = adv.faulty;
  result.trace.procs.resize(n);
  for (ProcessId p = 0; p < n; ++p) {
    result.trace.procs[p].proposal = proposals[p];
  }
  const bool tracing = config.record_trace;
  const bool metering = config.collect_metrics;
  out.metrics.reset(n);

  RoundScratch scratch;
  scratch.prepare(adv, n, tracing);

  const SimTime dt = config.round_ticks;
  std::uint64_t delivered = 0;
  // Per-receiver arrivals of the current round, for the reorder metric.
  std::vector<std::vector<Arrival>> arrivals(metering ? n : 0);

  for (Round r = 1; r <= config.max_rounds; ++r) {
    // Phase 1 mirrors run_execution exactly: every process's round-r sends
    // are a function of its state at the start of round r, normalized
    // before any routing happens.
    std::uint64_t sent_in_round = 0;
    for (ProcessId p = 0; p < n; ++p) {
      normalize_outbox_into(replicas[p]->outbox_for_round(r), p, r, n,
                            scratch.seen, scratch.outs[p]);
      scratch.inboxes[p].clear();
      if (metering) arrivals[p].clear();
      if (tracing) {
        RoundEvents& re = scratch.events[p];
        re.sent.clear();
        // Exact size when every message is sent (no send-omission check).
        if (scratch.may_drop_send[p] == 0) {
          re.sent.reserve(scratch.outs[p].size());
        }
        re.send_omitted.clear();
        re.received.clear();
        re.receive_omitted.clear();
      }
    }

    // Phase 2: route through the link model. Omissions are decided at send
    // time (the predicates are time-invariant over message identities).
    // Every surviving message takes its latency: within the round it is
    // delivered, past the round boundary it is late. Routing visits senders
    // in ascending order, so trace events are staged in the lockstep
    // executor's canonical order and every inbox is sender-sorted.
    for (ProcessId p = 0; p < n; ++p) {
      const bool correct_sender = scratch.faulty[p] == 0;
      const bool check_send = scratch.may_drop_send[p] != 0;
      for (Message& m : scratch.outs[p]) {
        if (check_send && adv.send_omit(m.key())) {
          if (tracing) scratch.events[p].send_omitted.push_back(m);
          if (metering) ++out.metrics.link(p, m.receiver).dropped;
          continue;
        }
        ++sent_in_round;
        ++result.messages_sent_total;
        if (correct_sender) ++result.messages_sent_by_correct;
        if (tracing) scratch.events[p].sent.push_back(m);
        if (metering) ++out.metrics.sent_by[p];
        if (scratch.may_drop_receive[m.receiver] != 0 &&
            adv.receive_omit(m.key())) {
          if (tracing) {
            scratch.events[m.receiver].receive_omitted.push_back(m);
          }
          if (metering) ++out.metrics.link(p, m.receiver).dropped;
          continue;
        }
        SimTime lat = config.link.latency(m.key(), dt);
        if (lat > dt) {
          // Late: the round-based state machine can never see this
          // message — it is an omission pinned on the (declared faulty)
          // lagging receiver.
          if (tracing) {
            scratch.events[m.receiver].receive_omitted.push_back(m);
          }
          if (metering) ++out.metrics.link(p, m.receiver).late;
          continue;
        }
        // Fault-plan delay stays within model bounds: it can push a
        // delivery to the round boundary but never past it.
        lat = std::min(lat + plan.extra_delay(m.key()), dt);
        ++delivered;
        if (metering) {
          LinkStats& l = out.metrics.link(p, m.receiver);
          ++l.delivered;
          l.payload_bytes += encoded_size(m.payload);
          ++out.metrics.delivered_to[m.receiver];
          ++out.metrics.deliveries;
          out.metrics.latency.record(lat);
          arrivals[m.receiver].push_back(Arrival{lat, p});
        }
        scratch.inboxes[m.receiver].push_back(std::move(m));
      }
    }
    if (metering) {
      for (ProcessId p = 0; p < n; ++p) {
        out.metrics.reordered += count_reordered(arrivals[p]);
      }
    }

    // Phase 3: deliver the canonical inboxes at the round boundary.
    for (ProcessId p = 0; p < n; ++p) {
      Inbox& inbox = scratch.inboxes[p];
      assert(inbox_sorted_by_sender(inbox));
      if (tracing) scratch.events[p].received = inbox;
      replicas[p]->deliver(r, inbox);
      if (!result.decisions[p].has_value()) {
        if (auto d = replicas[p]->decision()) {
          result.decisions[p] = d;
          result.trace.procs[p].decision = d;
          result.trace.procs[p].decision_round = r;
        }
      }
    }
    if (tracing) {
      for (ProcessId p = 0; p < n; ++p) {
        result.trace.procs[p].rounds.push_back(std::move(scratch.events[p]));
      }
    }
    result.rounds_executed = r;
    result.trace.rounds = r;

    if (config.stop_on_quiescence && sent_in_round == 0) {
      bool all_quiescent = true;
      for (ProcessId p = 0; p < n; ++p) {
        if (!replicas[p]->quiescent()) {
          all_quiescent = false;
          break;
        }
      }
      if (all_quiescent) {
        result.quiesced = true;
        result.trace.quiesced = true;
        break;
      }
    }
  }
  // The event-level view of the loop: each round starts, delivers its
  // messages one by one and ends at its boundary.
  out.events_processed = 2 * std::uint64_t{result.rounds_executed} + delivered;
  out.end_time = SimTime{result.rounds_executed} * dt;

  if (config.lint_trace) {
    analysis::LintOptions lint_options;
    lint_options.message_budget = config.message_budget;
    result.lint =
        analysis::lint_execution(result.trace, protocol, lint_options);
  }
  // Surface the network observations through the backend-neutral seam
  // (engine::ExecutionBackend consumers read RunResult::net; SimResult
  // keeps its own copy for the simulator-native callers).
  if (metering) result.net = out.metrics;
  return out;
}

SimResult simulate(const SystemParams& params, const ProtocolFactory& protocol,
                   const std::vector<Value>& proposals,
                   const Adversary& adversary, const SimConfig& config) {
  return simulate(params, protocol, proposals, adversary, FaultPlan{}, config);
}

}  // namespace ba::sim
