#include "validity/solvability.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace ba::validity {

std::vector<Value> containment_intersection(const ValidityProperty& val,
                                            std::uint32_t t,
                                            const InputConfig& c) {
  std::vector<Value> alive = val.output_domain;
  for_each_contained(c, t, [&](const InputConfig& contained) {
    std::erase_if(alive, [&](const Value& v) {
      return !val.admissible(contained, v);
    });
    return !alive.empty();  // stop early once empty
  });
  return alive;
}

std::optional<Value> gamma(const ValidityProperty& val, std::uint32_t t,
                           const InputConfig& c) {
  std::vector<Value> inter = containment_intersection(val, t, c);
  if (inter.empty()) return std::nullopt;
  return inter.front();
}

namespace {

/// `configs` as a table size. Throws rather than let a saturated count or
/// an unallocatable size through.
std::size_t table_size(std::uint64_t configs) {
  if (configs == std::numeric_limits<std::uint64_t>::max() ||
      configs > std::vector<std::uint64_t>().max_size()) {
    throw std::length_error("satisfies_cc: I is too large to tabulate");
  }
  return static_cast<std::size_t>(configs);
}

}  // namespace

std::optional<Value> trivial_value(const ValidityProperty& val,
                                   std::uint32_t n, std::uint32_t t) {
  for (const Value& v : val.output_domain) {
    bool always = true;
    for_each_input_config(n, t, val.input_domain, [&](const InputConfig& c) {
      always = val.admissible(c, v);
      return always;
    });
    if (always) return v;
  }
  return std::nullopt;
}

bool is_trivial(const ValidityProperty& val, std::uint32_t n,
                std::uint32_t t) {
  return trivial_value(val, n, t).has_value();
}

bool satisfies_cc(const ValidityProperty& val, std::uint32_t n,
                  std::uint32_t t, InputConfig* witness) {
  const std::size_t d = val.input_domain.size();
  const std::size_t m = val.output_domain.size();

  // A configuration's slot in its level's table is
  //   colex-rank(pi(c)) * d^x + sum_k digit(k) * d^k,
  // where colex-rank = sum_k C(id(k), k + 1). Dropping position j keeps the
  // terms below j and shifts those above it down one position. C(a, b) and
  // d^a are the level sizes count_level_configs(a, b, 1) and (a, a, d).
  const std::size_t stride = std::size_t{n} + 1;
  std::vector<std::uint64_t> binom(stride * stride);
  std::vector<std::uint64_t> pw(stride);
  for (std::uint32_t a = 0; a <= n; ++a) {
    for (std::uint32_t b = 0; b <= n; ++b) {
      binom[a * stride + b] = count_level_configs(a, b, 1);
    }
    pw[a] = count_level_configs(a, a, d);
  }
  auto choose = [&](std::size_t a, std::size_t b) {
    return binom[a * stride + b];
  };

  // One pass over I per 64-value block of V_O keeps a single word per
  // configuration live. Int(c) is empty iff it is empty in every block, so
  // the passes before the last record, per configuration of I, whether all
  // blocks so far came out empty; the last pass stops at the first
  // configuration that is empty throughout.
  const std::size_t blocks = std::max<std::size_t>(1, (m + 63) / 64);
  std::vector<bool> empty_so_far;
  if (blocks > 1) empty_so_far.resize(table_size(count_input_configs(n, t, d)));

  LevelWalk walk(n, val.input_domain);
  std::vector<std::uint64_t> rank_prefix(stride, 0);
  std::vector<std::uint64_t> digit_prefix(stride, 0);
  std::vector<std::uint64_t> prev;
  std::vector<std::uint64_t> cur;
  for (std::size_t block = 0; block < blocks; ++block) {
    const std::size_t width = std::min<std::size_t>(64, m - 64 * block);
    const std::uint64_t block_mask =
        width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
    const bool last = block + 1 == blocks;
    std::size_t level_offset = 0;
    for (std::uint32_t x = n - t; x <= n; ++x) {
      cur.resize(table_size(count_level_configs(n, x, d)));
      const bool bottom = x == n - t;
      const bool complete = walk.walk(x, [&] {
        for (std::uint32_t k = 0; k < x; ++k) {
          rank_prefix[k + 1] = rank_prefix[k] + choose(walk.id(k), k + 1);
          digit_prefix[k + 1] = digit_prefix[k] + walk.digit(k) * pw[k];
        }
        std::uint64_t alive = block_mask;
        if (!bottom) {
          // Int(c) starts as the AND of Int(c \ i) over every i in pi(c).
          std::uint64_t rank_suffix = 0;
          std::uint64_t digit_suffix = 0;
          for (std::uint32_t j = x; j-- > 0 && alive != 0;) {
            alive &= prev[(rank_prefix[j] + rank_suffix) * pw[x - 1] +
                          digit_prefix[j] + digit_suffix];
            rank_suffix += choose(walk.id(j), j);
            if (j > 0) digit_suffix += walk.digit(j) * pw[j - 1];
          }
        }
        for (std::uint64_t bits = alive; bits != 0; bits &= bits - 1) {
          const auto b = static_cast<unsigned>(std::countr_zero(bits));
          if (!val.admissible(walk.config(),
                              val.output_domain[64 * block + b])) {
            alive &= ~(std::uint64_t{1} << b);
          }
        }
        const std::uint64_t index = rank_prefix[x] * pw[x] + digit_prefix[x];
        cur[index] = alive;
        const bool empty =
            alive == 0 && (block == 0 || empty_so_far[level_offset + index]);
        if (!last) {
          empty_so_far[level_offset + index] = empty;
        } else if (empty) {
          if (witness) *witness = walk.config();
          return false;
        }
        return true;
      });
      if (!complete) return false;
      level_offset += cur.size();
      std::swap(prev, cur);
    }
  }
  return true;
}

std::string SolvabilityVerdict::summary() const {
  std::ostringstream os;
  os << (trivial ? "trivial" : "non-trivial") << ", CC "
     << (cc ? "holds" : "fails") << ", authenticated: "
     << (authenticated_solvable ? "solvable" : "UNSOLVABLE")
     << ", unauthenticated: "
     << (unauthenticated_solvable ? "solvable" : "UNSOLVABLE");
  return os.str();
}

SolvabilityVerdict solvability(const ValidityProperty& val, std::uint32_t n,
                               std::uint32_t t) {
  SolvabilityVerdict v;
  v.trivial = is_trivial(val, n, t);
  InputConfig witness;
  v.cc = satisfies_cc(val, n, t, &witness);
  if (!v.cc) v.cc_witness = witness;
  if (v.trivial) {
    // Decide the always-admissible value with zero communication.
    v.authenticated_solvable = true;
    v.unauthenticated_solvable = true;
  } else {
    v.authenticated_solvable = v.cc;                 // Theorem 4(a)
    v.unauthenticated_solvable = v.cc && n > 3 * t;  // Theorem 4(b)
  }
  return v;
}

}  // namespace ba::validity
