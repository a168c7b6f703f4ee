#include "async/scheduler.h"

#include <limits>
#include <optional>
#include <stdexcept>

namespace ba::async {
namespace {

class FifoScheduler final : public Scheduler {
 public:
  std::size_t pick(std::span<const PendingMessage> /*pending*/,
                   const std::vector<std::uint64_t>& /*deliveries_to*/)
      override {
    return 0;  // pending is kept in send order
  }
  [[nodiscard]] const char* name() const override { return "fifo"; }
};

class RandomScheduler final : public Scheduler {
 public:
  explicit RandomScheduler(std::uint64_t seed) : state_(seed) {}

  std::size_t pick(std::span<const PendingMessage> pending,
                   const std::vector<std::uint64_t>& /*deliveries_to*/)
      override {
    return static_cast<std::size_t>(next() % pending.size());
  }
  [[nodiscard]] const char* name() const override { return "random"; }

 private:
  std::uint64_t next() {
    // splitmix64: a full-period counter-based stream; the modulo bias is
    // irrelevant for schedule sampling.
    state_ += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t state_;
};

class DelayDeciderScheduler final : public Scheduler {
 public:
  std::size_t pick(std::span<const PendingMessage> pending,
                   const std::vector<std::uint64_t>& deliveries_to) override {
    // Serve the least-served receiver: the process closest to a quorum is
    // exactly the one we refuse to feed. Ties break toward the oldest
    // message, so the strategy stays a total, deterministic order.
    std::size_t best = 0;
    std::uint64_t best_served = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const std::uint64_t served = deliveries_to[pending[i].receiver];
      if (served < best_served) {
        best_served = served;
        best = i;
      }
    }
    return best;
  }
  [[nodiscard]] const char* name() const override { return "delay-decider"; }
};

class RoundRobinStarveScheduler final : public Scheduler {
 public:
  RoundRobinStarveScheduler(std::uint64_t seed, std::uint32_t n)
      : n_(n), victim_(static_cast<ProcessId>(seed % (n == 0 ? 1 : n))) {}

  std::size_t pick(std::span<const PendingMessage> pending,
                   const std::vector<std::uint64_t>& /*deliveries_to*/)
      override {
    // Round-robin over receivers, skipping the victim; the victim is served
    // only when it is the sole receiver with pending traffic (reliable
    // links require eventual delivery before quiescence).
    for (std::uint32_t off = 1; off <= n_; ++off) {
      const ProcessId r = static_cast<ProcessId>((cursor_ + off) % n_);
      if (r == victim_) continue;
      if (const auto idx = earliest_to(pending, r)) {
        cursor_ = r;
        return *idx;
      }
    }
    cursor_ = victim_;
    return *earliest_to(pending, victim_);
  }
  [[nodiscard]] const char* name() const override { return "rr-starve"; }

 private:
  static std::optional<std::size_t> earliest_to(
      std::span<const PendingMessage> pending, ProcessId r) {
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (pending[i].receiver == r) return i;
    }
    return std::nullopt;
  }

  std::uint32_t n_;
  ProcessId victim_;
  ProcessId cursor_{0};
};

}  // namespace

const char* scheduler_strategy_list() {
  return "fifo | random | delay-decider | rr-starve";
}

bool scheduler_strategy_known(const std::string& strategy) {
  return strategy == "fifo" || strategy == "random" ||
         strategy == "delay-decider" || strategy == "rr-starve";
}

std::unique_ptr<Scheduler> make_scheduler(const std::string& strategy,
                                          std::uint64_t seed,
                                          std::uint32_t n) {
  if (strategy == "fifo") return std::make_unique<FifoScheduler>();
  if (strategy == "random") return std::make_unique<RandomScheduler>(seed);
  if (strategy == "delay-decider") {
    return std::make_unique<DelayDeciderScheduler>();
  }
  if (strategy == "rr-starve") {
    return std::make_unique<RoundRobinStarveScheduler>(seed, n);
  }
  throw std::invalid_argument("unknown async scheduler strategy '" + strategy +
                              "' (" + scheduler_strategy_list() + ")");
}

}  // namespace ba::async
