#include "validity/input_config.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>

#include "validity/properties.h"

namespace ba::validity {
namespace {

InputConfig cfg(std::vector<std::optional<Value>> slots) {
  return InputConfig{std::move(slots)};
}

TEST(InputConfig, BasicAccessors) {
  InputConfig c = cfg({Value{1}, std::nullopt, Value{3}});
  EXPECT_EQ(c.n(), 3u);
  EXPECT_EQ(c.num_correct(), 2u);
  EXPECT_FALSE(c.is_full());
  EXPECT_EQ(c.correct(), ProcessSet({0, 2}));
  EXPECT_EQ(*c[0], Value{1});
  EXPECT_FALSE(c[1].has_value());
}

TEST(InputConfig, UniformAndFull) {
  InputConfig c = InputConfig::uniform(4, Value::bit(1));
  EXPECT_TRUE(c.is_full());
  EXPECT_EQ(c.uniform_value(), Value::bit(1));
  InputConfig mixed = InputConfig::full({Value{0}, Value{1}});
  EXPECT_EQ(mixed.uniform_value(), std::nullopt);
}

TEST(InputConfig, ContainmentRelation) {
  // The paper's example (§4.2): with n = 3, [(p0,v0),(p1,v1),(p2,v2)]
  // contains [(p0,v0),(p2,v2)] but not [(p0,v0),(p2,v2')].
  InputConfig full3 = InputConfig::full({Value{"v0"}, Value{"v1"},
                                         Value{"v2"}});
  InputConfig sub = cfg({Value{"v0"}, std::nullopt, Value{"v2"}});
  InputConfig sub_bad = cfg({Value{"v0"}, std::nullopt, Value{"v2'"}});
  EXPECT_TRUE(full3.contains(sub));
  EXPECT_FALSE(full3.contains(sub_bad));
  EXPECT_FALSE(sub.contains(full3));  // containment cannot add processes
  EXPECT_TRUE(full3.contains(full3));  // reflexive
  EXPECT_TRUE(sub.contains(sub));
}

TEST(InputConfig, RestrictTo) {
  InputConfig full3 = InputConfig::full({Value{0}, Value{1}, Value{2}});
  InputConfig r = full3.restrict_to(ProcessSet{{0, 2}});
  EXPECT_EQ(r.num_correct(), 2u);
  EXPECT_TRUE(full3.contains(r));
  EXPECT_EQ(*r[2], Value{2});
  EXPECT_FALSE(r[1].has_value());
}

TEST(InputConfig, ValueRoundTrip) {
  InputConfig c = cfg({Value{7}, std::nullopt, Value{"x"}});
  auto back = InputConfig::from_value(c.to_value());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, c);
  EXPECT_EQ(InputConfig::from_value(Value{"junk"}), std::nullopt);
}

TEST(ForEachContained, EnumeratesExactlyCnt) {
  // n = 4, t = 2, c full: Cnt(c) = all restrictions keeping >= 2 slots:
  // C(4,4) + C(4,3) + C(4,2) = 1 + 4 + 6 = 11.
  InputConfig c = InputConfig::uniform(4, Value::bit(0));
  std::set<InputConfig> seen;
  for_each_contained(c, 2, [&](const InputConfig& sub) {
    EXPECT_TRUE(c.contains(sub));
    EXPECT_GE(sub.num_correct(), 2u);
    seen.insert(sub);
    return true;
  });
  EXPECT_EQ(seen.size(), 11u);
}

TEST(ForEachContained, PartialConfigsEnumerateFromTheirSize) {
  // n = 4, t = 2, |pi(c)| = 3: subsets of size 2 or 3: C(3,3)+C(3,2) = 4.
  InputConfig c = cfg({Value{0}, Value{0}, Value{0}, std::nullopt});
  int count = 0;
  for_each_contained(c, 2, [&](const InputConfig&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 4);
}

TEST(ForEachContained, EarlyStop) {
  InputConfig c = InputConfig::uniform(4, Value::bit(0));
  int count = 0;
  bool completed = for_each_contained(c, 2, [&](const InputConfig&) {
    return ++count < 3;
  });
  EXPECT_FALSE(completed);
  EXPECT_EQ(count, 3);
}

TEST(ForEachInputConfig, CountsMatchFormula) {
  // n = 3, t = 1, binary: C(3,2)*4 + C(3,3)*8 = 12 + 8 = 20.
  std::vector<Value> domain{Value::bit(0), Value::bit(1)};
  std::set<InputConfig> seen;
  for_each_input_config(3, 1, domain, [&](const InputConfig& c) {
    EXPECT_GE(c.num_correct(), 2u);
    seen.insert(c);
    return true;
  });
  EXPECT_EQ(seen.size(), 20u);
  EXPECT_EQ(count_input_configs(3, 1, 2), 20u);
}

TEST(ForEachInputConfig, LargerCounts) {
  EXPECT_EQ(count_input_configs(4, 2, 2), 6 * 4 + 4 * 8 + 16u);  // 72
  std::size_t count = 0;
  for_each_input_config(4, 2, {Value::bit(0), Value::bit(1)},
                        [&](const InputConfig&) {
                          ++count;
                          return true;
                        });
  EXPECT_EQ(count, 72u);
  // Ternary domain.
  EXPECT_EQ(count_input_configs(3, 1, 3), 3 * 9 + 27u);
}

TEST(ForEachInputConfig, OrderIsPinned) {
  // Levels ascend; within a level slot 0 varies slowest, and a faulty slot
  // precedes each proposal in domain order.
  std::vector<std::string> seen;
  for_each_input_config(3, 1, {Value::bit(0), Value::bit(1)},
                        [&](const InputConfig& c) {
                          std::string s;
                          for (std::size_t i = 0; i < c.n(); ++i) {
                            s += c[i] ? c[i]->to_string() : "-";
                          }
                          seen.push_back(s);
                          return true;
                        });
  const std::vector<std::string> want = {
      "-00", "-01", "-10", "-11", "0-0", "0-1", "00-", "01-", "1-0", "1-1",
      "10-", "11-", "000", "001", "010", "011", "100", "101", "110", "111"};
  EXPECT_EQ(seen, want);
}

TEST(ForEachInputConfig, CountsMatchBruteForce) {
  for (std::uint32_t n = 1; n <= 5; ++n) {
    for (std::uint32_t t = 0; t <= n; ++t) {
      for (std::size_t d = 1; d <= 3; ++d) {
        std::uint64_t brute = 0;
        for_each_input_config(n, t, int_domain(d), [&](const InputConfig&) {
          ++brute;
          return true;
        });
        EXPECT_EQ(count_input_configs(n, t, d), brute)
            << "n=" << n << " t=" << t << " d=" << d;
      }
    }
  }
}

TEST(ForEachInputConfig, CountsSaturateInsteadOfWrapping) {
  // Exact just below 2^64 ...
  EXPECT_EQ(count_input_configs(40, 20, 2), 12041538755408953344ull);
  // ... saturating once the sum passes it (3.6e19 at (41, 20, 2)) or a
  // single level does (C(64, 32) * 2^32 at (64, 32, 2)).
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(count_input_configs(41, 20, 2), kMax);
  EXPECT_EQ(count_input_configs(64, 32, 2), kMax);
  EXPECT_EQ(count_level_configs(64, 32, 2), kMax);
  EXPECT_EQ(count_input_configs(40, 20, 3), kMax);
  // C(67, 33) fits in 64 bits though its partial products do not;
  // C(68, 34) does not fit.
  EXPECT_EQ(count_level_configs(67, 33, 1), 14226520737620288370ull);
  EXPECT_EQ(count_level_configs(68, 34, 1), kMax);
}

TEST(ForEachInputConfig, TZeroEnumeratesOnlyFullConfigs) {
  std::size_t count = 0;
  for_each_input_config(3, 0, {Value::bit(0), Value::bit(1)},
                        [&](const InputConfig& c) {
                          EXPECT_TRUE(c.is_full());
                          ++count;
                          return true;
                        });
  EXPECT_EQ(count, 8u);
}

}  // namespace
}  // namespace ba::validity
