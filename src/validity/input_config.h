#pragma once

// Input configurations (§4.1): an assignment of proposals to the correct
// processes. A configuration over a system of n processes with at most t
// faults has x slots filled, n - t <= x <= n; an empty slot (nullopt) means
// the process is faulty in the corresponding executions.

#include <functional>
#include <optional>
#include <vector>

#include "runtime/types.h"
#include "runtime/value.h"

namespace ba::validity {

class InputConfig {
 public:
  InputConfig() = default;
  explicit InputConfig(std::vector<std::optional<Value>> slots)
      : slots_(std::move(slots)) {}

  /// A configuration with all n processes correct (c in I_n).
  static InputConfig full(std::vector<Value> proposals);
  /// All n processes correct, all proposing `v`.
  static InputConfig uniform(std::uint32_t n, const Value& v);

  [[nodiscard]] std::size_t n() const { return slots_.size(); }
  [[nodiscard]] const std::optional<Value>& operator[](std::size_t i) const {
    return slots_[i];
  }
  [[nodiscard]] std::optional<Value>& operator[](std::size_t i) {
    return slots_[i];
  }

  /// pi(c): the set of correct processes.
  [[nodiscard]] ProcessSet correct() const;
  [[nodiscard]] std::size_t num_correct() const;
  [[nodiscard]] bool is_full() const { return num_correct() == n(); }

  /// The containment relation: *this ⊒ other iff pi(other) ⊆ pi(*this) and
  /// proposals coincide on pi(other).
  [[nodiscard]] bool contains(const InputConfig& other) const;

  /// Restriction of this configuration to the processes in `keep`
  /// (slots outside `keep` become empty).
  [[nodiscard]] InputConfig restrict_to(const ProcessSet& keep) const;

  /// Do all filled slots hold the same value? Returns it if so and the
  /// configuration is non-empty.
  [[nodiscard]] std::optional<Value> uniform_value() const;

  /// Encodes as a Value (vector of ["c", v] / ["f"] slots) — used when a
  /// decision *is* an input configuration (interactive consistency).
  [[nodiscard]] Value to_value() const;
  static std::optional<InputConfig> from_value(const Value& v);

  friend bool operator==(const InputConfig&, const InputConfig&) = default;
  /// Lexicographic order so configurations can key ordered containers.
  friend bool operator<(const InputConfig& a, const InputConfig& b);

 private:
  std::vector<std::optional<Value>> slots_;
};

/// Enumerates Cnt(c) = { c' | c ⊒ c' , |pi(c')| >= n - t }, invoking `fn` on
/// each (including c itself). Stops early if `fn` returns false. Returns
/// false iff stopped early.
bool for_each_contained(const InputConfig& c, std::uint32_t t,
                        const std::function<bool(const InputConfig&)>& fn);

/// Walks level x of I (every configuration with exactly x correct processes)
/// in for_each_input_config's order, rewriting one slot buffer in place
/// rather than building a configuration per visit. A configuration's
/// correct processes are visited in ascending order, each with the index of
/// its proposal in the domain. `domain` must outlive the walker.
class LevelWalk {
 public:
  LevelWalk(std::uint32_t n, const std::vector<Value>& domain)
      : domain_(domain),
        config_(std::vector<std::optional<Value>>(n)),
        ids_(n),
        digits_(n) {}

  /// Calls fn() at each configuration of level x; stops when it returns
  /// false. Returns false iff stopped.
  template <class Fn>
  bool walk(std::uint32_t x, Fn&& fn) {
    x_ = x;
    return visit(0, x, fn);
  }

  [[nodiscard]] const InputConfig& config() const { return config_; }
  /// The k-th correct process of the current configuration, ascending.
  [[nodiscard]] std::uint32_t id(std::size_t k) const { return ids_[k]; }
  /// The index in V_I of the k-th correct process's proposal.
  [[nodiscard]] std::uint32_t digit(std::size_t k) const { return digits_[k]; }

 private:
  template <class Fn>
  bool visit(std::uint32_t i, std::uint32_t left, Fn& fn) {
    const auto n = static_cast<std::uint32_t>(config_.n());
    if (i == n) return fn();
    if (n - i > left) {
      config_[i].reset();
      if (!visit(i + 1, left, fn)) return false;
    }
    if (left > 0) {
      const std::uint32_t k = x_ - left;
      ids_[k] = i;
      for (std::uint32_t v = 0; v < domain_.size(); ++v) {
        config_[i] = domain_[v];
        digits_[k] = v;
        if (!visit(i + 1, left - 1, fn)) return false;
      }
      config_[i].reset();
    }
    return true;
  }

  const std::vector<Value>& domain_;
  InputConfig config_;
  std::uint32_t x_{0};
  std::vector<std::uint32_t> ids_;
  std::vector<std::uint32_t> digits_;
};

/// Enumerates every input configuration in I over the finite proposal domain
/// `input_domain` for an (n, t) system, level by level (LevelWalk). Stops
/// early if `fn` returns false. The configuration `fn` sees is valid only
/// for the duration of the call.
bool for_each_input_config(std::uint32_t n, std::uint32_t t,
                           const std::vector<Value>& input_domain,
                           const std::function<bool(const InputConfig&)>& fn);

/// The number of configurations in I with exactly x correct processes,
/// C(n, x) * domain_size^x, saturating at UINT64_MAX.
std::uint64_t count_level_configs(std::uint32_t n, std::uint32_t x,
                                  std::size_t domain_size);

/// |I| for the given parameters (to size experiments), saturating at
/// UINT64_MAX.
std::uint64_t count_input_configs(std::uint32_t n, std::uint32_t t,
                                  std::size_t domain_size);

}  // namespace ba::validity
