#include "probe.h"

#include <cstring>
#include <deque>
#include <memory>
#include <mutex>

namespace perfbench {
namespace {

struct alignas(64) Slot {
  LayerCounters counters;
};

std::mutex& slots_mutex() {
  static std::mutex mu;
  return mu;
}

// A deque keeps slot addresses stable while threads come and go (every
// parallel sweep spins up a fresh pool).
std::deque<Slot>& slots() {
  static std::deque<Slot> all;
  return all;
}

class ProbedBackend final : public ba::engine::ExecutionBackend {
 public:
  ProbedBackend(ba::engine::BackendHandle inner, bool timed)
      : inner_(std::move(inner)), timed_(timed) {}

  [[nodiscard]] ba::RunResult run(
      const ba::SystemParams& params, const ba::ProtocolFactory& protocol,
      const std::vector<ba::Value>& proposals, const ba::Adversary& adversary,
      const ba::RunOptions& options = {}) const override;
  [[nodiscard]] const char* name() const override { return inner_->name(); }
  [[nodiscard]] ba::engine::Capabilities capabilities() const override {
    return inner_->capabilities();
  }

 private:
  ba::engine::BackendHandle inner_;
  bool timed_;
};

class ProbedProcess final : public ba::Process {
 public:
  explicit ProbedProcess(std::unique_ptr<ba::Process> inner)
      : inner_(std::move(inner)) {}

  ba::Outbox outbox_for_round(ba::Round r) override {
    const Clock::time_point start = Clock::now();
    ba::Outbox out = inner_->outbox_for_round(r);
    record(start);
    return out;
  }
  void deliver(ba::Round r, const ba::Inbox& inbox) override {
    const Clock::time_point start = Clock::now();
    inner_->deliver(r, inbox);
    record(start);
  }
  [[nodiscard]] std::optional<ba::Value> decision() const override {
    return inner_->decision();
  }
  [[nodiscard]] bool quiescent() const override { return inner_->quiescent(); }

 private:
  static void record(Clock::time_point start) {
    LayerCounters& c = local_counters();
    c.step_ns += elapsed_ns(start);
    ++c.step_calls;
  }

  std::unique_ptr<ba::Process> inner_;
};

ba::RunResult ProbedBackend::run(const ba::SystemParams& params,
                                 const ba::ProtocolFactory& protocol,
                                 const std::vector<ba::Value>& proposals,
                                 const ba::Adversary& adversary,
                                 const ba::RunOptions& options) const {
  const Clock::time_point start = timed_ ? Clock::now() : Clock::time_point{};
  ba::RunResult res =
      inner_->run(params, protocol, proposals, adversary, options);
  LayerCounters& c = local_counters();
  if (timed_) {
    const std::uint64_t ns = elapsed_ns(start);
    c.engine_ns += ns;
    if (std::strcmp(inner_->name(), "sim") == 0) {
      c.engine_ns_sim += ns;
    } else {
      c.engine_ns_lockstep += ns;
    }
  }
  ++c.engine_calls;
  c.msgs += res.messages_sent_total;
  c.rounds += res.rounds_executed;
  return res;
}

}  // namespace

LayerCounters& LayerCounters::operator+=(const LayerCounters& o) {
  engine_calls += o.engine_calls;
  engine_ns += o.engine_ns;
  engine_ns_lockstep += o.engine_ns_lockstep;
  engine_ns_sim += o.engine_ns_sim;
  msgs += o.msgs;
  rounds += o.rounds;
  step_calls += o.step_calls;
  step_ns += o.step_ns;
  point_ns += o.point_ns;
  return *this;
}

LayerCounters& local_counters() {
  thread_local LayerCounters* mine = [] {
    const std::lock_guard<std::mutex> lock(slots_mutex());
    return &slots().emplace_back().counters;
  }();
  return *mine;
}

LayerCounters total_counters() {
  const std::lock_guard<std::mutex> lock(slots_mutex());
  LayerCounters sum;
  for (const Slot& s : slots()) sum += s.counters;
  return sum;
}

void reset_counters() {
  const std::lock_guard<std::mutex> lock(slots_mutex());
  for (Slot& s : slots()) s.counters = LayerCounters{};
}

ba::engine::BackendHandle probe_backend(ba::engine::BackendHandle inner,
                                        bool timed) {
  return std::make_shared<const ProbedBackend>(std::move(inner), timed);
}

ba::ProtocolFactory probe_protocol(ba::ProtocolFactory inner) {
  return [inner = std::move(inner)](const ba::ProcessContext& ctx)
             -> std::unique_ptr<ba::Process> {
    return std::make_unique<ProbedProcess>(inner(ctx));
  };
}

}  // namespace perfbench
