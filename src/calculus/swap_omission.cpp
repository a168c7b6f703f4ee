#include "calculus/swap_omission.h"

#include <algorithm>
#include <set>
#include <sstream>

namespace ba::calculus {
namespace {

std::set<MsgKey> all_receive_omitted(const ProcessTrace& pt) {
  std::set<MsgKey> keys;
  for (const RoundEvents& re : pt.rounds) {
    for (const Message& m : re.receive_omitted) keys.insert(m.key());
  }
  return keys;
}

bool any_send_omitted(const ProcessTrace& pt) {
  for (const RoundEvents& re : pt.rounds) {
    if (!re.send_omitted.empty()) return true;
  }
  return false;
}

}  // namespace

SwapResult swap_omission(const ExecutionTrace& e, ProcessId p_i) {
  // Line 2: M <- all messages receive-omitted by p_i.
  const std::set<MsgKey> m_set = all_receive_omitted(e.procs.at(p_i));

  SwapResult out;
  out.subject = p_i;
  out.execution = e;
  ExecutionTrace& ep = out.execution;
  ProcessSet new_faulty;  // line 3

  for (ProcessId z = 0; z < e.params.n; ++z) {
    ProcessTrace& pt = ep.procs[z];
    bool faulty = false;
    for (RoundEvents& re : pt.rounds) {
      // Move each sent message in M to send-omitted (lines 7-9).
      std::vector<Message> still_sent;
      for (Message& m : re.sent) {
        if (m_set.contains(m.key())) {
          re.send_omitted.push_back(m);
        } else {
          still_sent.push_back(m);
        }
      }
      re.sent = std::move(still_sent);
      // Remove M from receive-omissions (only p_i has them; line 9).
      std::erase_if(re.receive_omitted, [&](const Message& m) {
        return m_set.contains(m.key());
      });
      if (!re.send_omitted.empty() || !re.receive_omitted.empty()) {
        faulty = true;  // line 10
      }
    }
    if (faulty) new_faulty.insert(z);  // line 11
  }
  ep.faulty = new_faulty;
  return out;
}

SwapPreconditions check_swap_preconditions(const ExecutionTrace& e,
                                           ProcessId p_i) {
  SwapPreconditions pre;
  const ProcessTrace& pt = e.procs.at(p_i);

  if (any_send_omitted(pt)) {
    pre.error = "subject commits send-omissions";
    return pre;
  }

  // Blame set S: senders of messages p_i receive-omitted.
  ProcessSet blame;
  std::set<MsgKey> m_set = all_receive_omitted(pt);
  for (const MsgKey& k : m_set) blame.insert(k.sender);

  // Predicted F': every process that still commits an omission after the
  // swap. That is: (old faulty minus p_i if p_i only had those omissions)
  // union blame — computed exactly by simulating the membership test. M
  // holds only messages addressed to p_i, so only those are looked up.
  const auto in_m = [&](const Message& m) {
    return m.receiver == p_i && m_set.contains(m.key());
  };
  ProcessSet predicted;
  for (ProcessId z = 0; z < e.params.n; ++z) {
    bool faulty = false;
    for (const RoundEvents& re : e.procs[z].rounds) {
      for (const Message& m : re.sent) {
        if (in_m(m)) faulty = true;  // will send-omit
      }
      if (!re.send_omitted.empty()) faulty = true;
      for (const Message& m : re.receive_omitted) {
        if (!in_m(m)) faulty = true;  // keeps an omission
      }
    }
    if (faulty) predicted.insert(z);
  }
  if (predicted.size() > e.params.t) {
    std::ostringstream os;
    os << "|F'| = " << predicted.size() << " exceeds t = " << e.params.t;
    pre.error = os.str();
    return pre;
  }
  if (predicted.contains(p_i)) {
    pre.error = "subject still faulty after swap";
    return pre;
  }

  // Witness: a process correct in E, distinct from p_i, none of whose sent
  // messages were omitted by p_i (so it is correct in E' too).
  for (ProcessId h = 0; h < e.params.n; ++h) {
    if (h == p_i || e.faulty.contains(h) || predicted.contains(h)) continue;
    pre.ok = true;
    pre.witness_correct = h;
    pre.new_faulty = predicted;
    return pre;
  }
  pre.error = "no correct witness process survives the swap";
  return pre;
}

}  // namespace ba::calculus
