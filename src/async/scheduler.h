#pragma once

// Adversarial delivery schedulers for the asynchronous executor.
//
// In the asynchronous model the network adversary's whole power is the
// delivery ORDER: every sent message is eventually delivered, but the
// adversary picks which in-flight message arrives next. A `Scheduler` is
// that adversary as a strategy object — the executor (async/async_system.h)
// asks it to pick one message from the pending pool before every delivery.
//
// Strategies (all deterministic given their construction arguments):
//   fifo           deliver in global send order — the most benign schedule
//   random         seeded uniform pick (splitmix64 stream; the sampling
//                  mode of async/explore.h runs one seed per schedule)
//   delay-decider  starve the most-advanced process: always deliver to the
//                  receiver that has received the FEWEST messages so far,
//                  keeping everyone maximally far from their next quorum
//   rr-starve      round-robin across receivers, except one seed-selected
//                  victim that is served only when it is the sole receiver
//                  with pending traffic (maximal single-process starvation
//                  under reliable links)
//
// What `pick` sees: a span over the executor's live in-flight pool, in send
// order. An index is relative to that span, so scripted choices and
// certificates name the same message however the executor stores the pool.
//
// Determinism contract: `pick` must be a pure function of the scheduler's
// own state and its arguments. The explored-schedule replay machinery and
// the jobs∈{1,2,8} byte-identity battery depend on it.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "runtime/types.h"
#include "runtime/value.h"

namespace ba::async {

/// One in-flight message. `seq` is the global 1-based send-sequence number —
/// the executor also uses it as the message's virtual round in recorded
/// traces, so (sender, receiver, seq) is a unique A.1.1 identity. The
/// registered protocols build their payload tag atoms ("bo1", "echo", ...)
/// once per thread, so equal payloads often share storage; compare them by
/// value, never by identity.
struct PendingMessage {
  std::uint64_t seq{0};
  ProcessId sender{kNoProcess};
  ProcessId receiver{kNoProcess};
  Value payload;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Picks the index (into `pending`, the non-empty live pool in send
  /// order) of the next message to deliver. `deliveries_to[p]` counts
  /// messages delivered to process p so far.
  virtual std::size_t pick(std::span<const PendingMessage> pending,
                           const std::vector<std::uint64_t>& deliveries_to) = 0;

  [[nodiscard]] virtual const char* name() const = 0;
};

/// The strategy tokens `make_scheduler` accepts, sorted, joined by " | " —
/// shared by every error message and usage string that enumerates them.
[[nodiscard]] const char* scheduler_strategy_list();

[[nodiscard]] bool scheduler_strategy_known(const std::string& strategy);

/// Builds a scheduler. `n` is the system size (rr-starve picks its victim
/// mod n); `seed` feeds the seeded strategies and is ignored by the rest.
/// Throws std::invalid_argument naming the known strategies on an unknown
/// token.
[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler(
    const std::string& strategy, std::uint64_t seed, std::uint32_t n);

/// Wraps a base scheduler with a scripted choice prefix: delivery i takes
/// `choices[i]` (clamped to the pending pool) while the prefix lasts, then
/// control passes to `base`. This is how explored schedules branch and how
/// failing-schedule certificates replay (async/explore.h).
class ScriptedScheduler final : public Scheduler {
 public:
  ScriptedScheduler(std::vector<std::uint32_t> choices,
                    std::unique_ptr<Scheduler> base)
      : choices_(std::move(choices)), base_(std::move(base)) {}

  std::size_t pick(std::span<const PendingMessage> pending,
                   const std::vector<std::uint64_t>& deliveries_to) override {
    if (next_ < choices_.size()) {
      const std::size_t c = choices_[next_++];
      return c < pending.size() ? c : pending.size() - 1;
    }
    return base_->pick(pending, deliveries_to);
  }

  [[nodiscard]] const char* name() const override { return "scripted"; }

 private:
  std::vector<std::uint32_t> choices_;
  std::unique_ptr<Scheduler> base_;
  std::size_t next_{0};
};

}  // namespace ba::async
