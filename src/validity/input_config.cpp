#include "validity/input_config.h"

#include <algorithm>
#include <limits>

namespace ba::validity {

InputConfig InputConfig::full(std::vector<Value> proposals) {
  std::vector<std::optional<Value>> slots;
  slots.reserve(proposals.size());
  for (Value& v : proposals) slots.emplace_back(std::move(v));
  return InputConfig{std::move(slots)};
}

InputConfig InputConfig::uniform(std::uint32_t n, const Value& v) {
  return full(std::vector<Value>(n, v));
}

ProcessSet InputConfig::correct() const {
  ProcessSet s;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].has_value()) s.insert(static_cast<ProcessId>(i));
  }
  return s;
}

std::size_t InputConfig::num_correct() const {
  return static_cast<std::size_t>(
      std::count_if(slots_.begin(), slots_.end(),
                    [](const auto& s) { return s.has_value(); }));
}

bool InputConfig::contains(const InputConfig& other) const {
  if (n() != other.n()) return false;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!other.slots_[i].has_value()) continue;
    if (!slots_[i].has_value() || *slots_[i] != *other.slots_[i]) return false;
  }
  return true;
}

InputConfig InputConfig::restrict_to(const ProcessSet& keep) const {
  InputConfig out = *this;
  for (std::size_t i = 0; i < out.slots_.size(); ++i) {
    if (!keep.contains(static_cast<ProcessId>(i))) out.slots_[i].reset();
  }
  return out;
}

std::optional<Value> InputConfig::uniform_value() const {
  std::optional<Value> seen;
  for (const auto& s : slots_) {
    if (!s.has_value()) continue;
    if (!seen) {
      seen = s;
    } else if (*seen != *s) {
      return std::nullopt;
    }
  }
  return seen;
}

Value InputConfig::to_value() const {
  ValueVec out;
  out.reserve(slots_.size());
  for (const auto& s : slots_) {
    if (s.has_value()) {
      out.push_back(Value{ValueVec{Value{"c"}, *s}});
    } else {
      out.push_back(Value{ValueVec{Value{"f"}}});
    }
  }
  return Value{std::move(out)};
}

std::optional<InputConfig> InputConfig::from_value(const Value& v) {
  if (!v.is_vec()) return std::nullopt;
  std::vector<std::optional<Value>> slots;
  slots.reserve(v.as_vec().size());
  for (const Value& e : v.as_vec()) {
    if (!e.is_vec() || e.as_vec().empty() || !e.as_vec()[0].is_str()) {
      return std::nullopt;
    }
    const std::string& tag = e.as_vec()[0].as_str();
    if (tag == "c" && e.as_vec().size() == 2) {
      slots.emplace_back(e.as_vec()[1]);
    } else if (tag == "f" && e.as_vec().size() == 1) {
      slots.emplace_back(std::nullopt);
    } else {
      return std::nullopt;
    }
  }
  return InputConfig{std::move(slots)};
}

bool operator<(const InputConfig& a, const InputConfig& b) {
  return a.to_value() < b.to_value();
}

bool for_each_contained(const InputConfig& c, std::uint32_t t,
                        const std::function<bool(const InputConfig&)>& fn) {
  const ProcessSet correct = c.correct();
  const std::size_t x = correct.size();
  const std::size_t n = c.n();
  if (n < static_cast<std::size_t>(t)) return true;
  const std::size_t min_keep = n - t;
  if (x < min_keep) return true;  // c itself is malformed; nothing contained
  const std::size_t max_drop = x - min_keep;

  // Enumerate subsets of pi(c) to drop, of size 0..max_drop.
  const std::vector<ProcessId>& ids = correct.ids();
  std::vector<std::size_t> chosen;  // indices into ids to drop

  std::function<bool(std::size_t, std::size_t)> rec =
      [&](std::size_t start, std::size_t remaining) -> bool {
    if (remaining == 0) {
      ProcessSet keep = correct;
      for (std::size_t idx : chosen) keep.erase(ids[idx]);
      return fn(c.restrict_to(keep));
    }
    for (std::size_t i = start; i + remaining <= ids.size(); ++i) {
      chosen.push_back(i);
      const bool cont = rec(i + 1, remaining - 1);
      chosen.pop_back();
      if (!cont) return false;
    }
    return true;
  };

  for (std::size_t drop = 0; drop <= max_drop; ++drop) {
    if (!rec(0, drop)) return false;
  }
  return true;
}

bool for_each_input_config(std::uint32_t n, std::uint32_t t,
                           const std::vector<Value>& input_domain,
                           const std::function<bool(const InputConfig&)>& fn) {
  LevelWalk walk(n, input_domain);
  for (std::uint32_t x = n - t; x <= n; ++x) {
    if (!walk.walk(x, [&] { return fn(walk.config()); })) return false;
  }
  return true;
}

namespace {

constexpr std::uint64_t kSaturated = std::numeric_limits<std::uint64_t>::max();

std::uint64_t saturating_mul(std::uint64_t a, std::uint64_t b) {
  std::uint64_t r = 0;
  return __builtin_mul_overflow(a, b, &r) ? kSaturated : r;
}

std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) {
  std::uint64_t r = 0;
  return __builtin_add_overflow(a, b, &r) ? kSaturated : r;
}

/// C(a, b), saturating. With b <= a / 2 every partial product C(a, i) is at
/// most the result, so the first one past UINT64_MAX decides saturation.
std::uint64_t saturating_binom(std::uint64_t a, std::uint64_t b) {
  if (b > a) return 0;
  b = std::min(b, a - b);
  unsigned __int128 r = 1;
  for (std::uint64_t i = 0; i < b; ++i) {
    r = r * (a - i) / (i + 1);
    if (r > kSaturated) return kSaturated;
  }
  return static_cast<std::uint64_t>(r);
}

}  // namespace

std::uint64_t count_level_configs(std::uint32_t n, std::uint32_t x,
                                  std::size_t domain_size) {
  std::uint64_t configs = saturating_binom(n, x);
  for (std::uint32_t i = 0; i < x; ++i) {
    configs = saturating_mul(configs, domain_size);
  }
  return configs;
}

std::uint64_t count_input_configs(std::uint32_t n, std::uint32_t t,
                                  std::size_t domain_size) {
  std::uint64_t total = 0;
  for (std::uint32_t x = n - t; x <= n; ++x) {
    total = saturating_add(total, count_level_configs(n, x, domain_size));
  }
  return total;
}

}  // namespace ba::validity
