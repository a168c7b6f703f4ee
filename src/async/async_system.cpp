#include "async/async_system.h"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <utility>

#include "analysis/lint.h"

namespace ba::async {
namespace {

/// One recorded event, materialized into the virtual-round trace at the end
/// of the run (so the hot loop never touches n * rounds storage). Kept only
/// when the run records its trace.
struct SendRecord {
  std::uint64_t seq;  // == virtual round
  ProcessId sender;
  ProcessId receiver;
  Value payload;
  bool delivered{false};
};

}  // namespace

AsyncRunResult run_async(const SystemParams& params,
                         const AsyncProtocolFactory& protocol,
                         const std::vector<Value>& proposals,
                         const AsyncAdversary& adversary, Scheduler& scheduler,
                         const AsyncRunOptions& options) {
  if (!params.valid()) {
    throw std::invalid_argument("run_async: invalid SystemParams");
  }
  if (proposals.size() != params.n) {
    throw std::invalid_argument("run_async: need exactly n proposals");
  }
  if (options.lint_trace && !options.record_trace) {
    throw std::invalid_argument(
        "run_async: lint_trace requires record_trace (an empty trace would "
        "lint vacuously)");
  }

  const std::uint32_t n = params.n;
  AsyncRunResult out;
  out.run.decisions.assign(n, std::nullopt);

  // Replicas: honest factory for correct processes, the Byzantine override
  // for adversary.byzantine, nothing at all for crashed-from-start faulty
  // processes (they stay silent and ignore deliveries).
  std::vector<std::unique_ptr<AsyncProcess>> procs(n);
  for (ProcessId p = 0; p < n; ++p) {
    if (adversary.is_crashed(p)) continue;
    const AsyncContext ctx{params, p, proposals[p]};
    procs[p] = adversary.is_byzantine(p) ? adversary.byzantine_factory(ctx)
                                         : protocol(ctx);
  }

  std::vector<SendRecord> sends;  // index == seq - 1; traced runs only
  // The in-flight pool in send order: live messages are pending[head..).
  // The delivered prefix is dropped once it outgrows the live part, so
  // memory stays O(in flight) and each delivery is amortised O(1) + O(idx).
  std::vector<PendingMessage> pending;
  std::size_t head = 0;
  std::vector<std::uint64_t> deliveries_to(n, 0);
  std::vector<Round> decision_round(n, kNoRound);

  auto enqueue = [&](ProcessId sender, Outbox&& outbox) {
    for (Outgoing& o : outbox) {
      if (o.to == sender || o.to >= n) continue;  // A.1.1: no self, in-range
      // The send counter issues seq: 1-based, in send order.
      const std::uint64_t seq = ++out.run.messages_sent_total;
      if (options.record_trace) {
        sends.push_back(SendRecord{seq, sender, o.to, o.payload, false});
      }
      pending.push_back(PendingMessage{seq, sender, o.to,
                                       std::move(o.payload)});
      if (!adversary.is_faulty(sender)) out.run.messages_sent_by_correct++;
    }
  };

  auto note_decision = [&](ProcessId p) {
    if (out.run.decisions[p]) return;
    if (auto d = procs[p]->decision()) {
      out.run.decisions[p] = std::move(d);
      // Virtual round of the decision: the latest send sequence issued so
      // far (floored at 1 — the trace is padded to one round if a process
      // decides before any message exists).
      decision_round[p] =
          static_cast<Round>(
              std::max<std::uint64_t>(out.run.messages_sent_total, 1));
    }
  };

  for (ProcessId p = 0; p < n; ++p) {
    if (!procs[p]) continue;
    enqueue(p, procs[p]->on_start());
  }
  for (ProcessId p = 0; p < n; ++p) {
    if (procs[p]) note_decision(p);
  }

  while (head < pending.size() && out.deliveries < options.max_deliveries &&
         (!options.stop_after || out.deliveries < *options.stop_after)) {
    const std::span<const PendingMessage> live(pending.data() + head,
                                               pending.size() - head);
    const std::size_t idx = scheduler.pick(live, deliveries_to);
    if (idx >= live.size()) {
      throw std::logic_error("async scheduler picked out of range");
    }
    out.schedule.push_back(static_cast<std::uint32_t>(idx));
    // Take live[idx] out: the idx older messages move up one slot and the
    // head advances, so a FIFO pick (idx 0) moves nothing.
    const auto first = pending.begin() + static_cast<std::ptrdiff_t>(head);
    PendingMessage msg = std::move(first[static_cast<std::ptrdiff_t>(idx)]);
    std::move_backward(first, first + static_cast<std::ptrdiff_t>(idx),
                       first + static_cast<std::ptrdiff_t>(idx) + 1);
    if (++head > pending.size() / 2) {
      pending.erase(pending.begin(),
                    pending.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
    }
    out.deliveries++;
    deliveries_to[msg.receiver]++;
    if (options.record_trace) sends[msg.seq - 1].delivered = true;
    AsyncProcess* receiver = procs[msg.receiver].get();
    if (receiver != nullptr && !receiver->halted()) {
      enqueue(msg.receiver, receiver->on_message(msg.sender, msg.payload));
      note_decision(msg.receiver);
    }
  }

  out.run.quiesced = head == pending.size();
  const bool any_decided = std::any_of(
      out.run.decisions.begin(), out.run.decisions.end(),
      [](const std::optional<Value>& d) { return d.has_value(); });
  const std::uint64_t virtual_rounds =
      std::max<std::uint64_t>(out.run.messages_sent_total,
                              any_decided ? 1 : 0);
  out.run.rounds_executed = static_cast<Round>(virtual_rounds);

  if (options.record_trace) {
    ExecutionTrace& trace = out.run.trace;
    trace.params = params;
    trace.faulty = adversary.faulty;
    trace.rounds = static_cast<Round>(virtual_rounds);
    trace.quiesced = out.run.quiesced;
    trace.procs.resize(n);
    for (ProcessId p = 0; p < n; ++p) {
      trace.procs[p].proposal = proposals[p];
      trace.procs[p].rounds.resize(virtual_rounds);
      trace.procs[p].decision = out.run.decisions[p];
      trace.procs[p].decision_round = decision_round[p];
    }
    for (const SendRecord& s : sends) {
      const Message m{s.sender, s.receiver, static_cast<Round>(s.seq),
                      s.payload};
      RoundEvents& sender_round = trace.procs[s.sender].rounds[s.seq - 1];
      sender_round.sent.push_back(m);
      RoundEvents& receiver_round = trace.procs[s.receiver].rounds[s.seq - 1];
      if (s.delivered) {
        receiver_round.received.push_back(m);
      } else {
        // In flight at the cut: the async linter reads these as pending
        // deliveries, not adversary omissions.
        receiver_round.receive_omitted.push_back(m);
      }
    }
  }

  if (options.lint_trace) {
    analysis::LintOptions lint_options;
    lint_options.async_model = true;
    lint_options.message_budget = options.message_budget;
    out.run.lint = analysis::lint_trace(out.run.trace, lint_options);
  }

  if (options.capture_pending) {
    pending.erase(pending.begin(),
                  pending.begin() + static_cast<std::ptrdiff_t>(head));
    out.pending = std::move(pending);
  }
  return out;
}

}  // namespace ba::async
