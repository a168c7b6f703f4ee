// Seeded random-structure tests for the Value/serde layer: round-trips,
// ordering laws, and hash consistency over deeply nested random values.

#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "crypto/signature.h"
#include "crypto/siphash.h"
#include "runtime/serde.h"
#include "runtime/value.h"

namespace ba {
namespace {

/// Deterministic pseudo-random value generator (seeded, bounded depth).
class ValueGen {
 public:
  explicit ValueGen(std::uint64_t seed) : seed_(seed) {}

  Value next(int max_depth = 4) {
    const std::uint64_t r = roll();
    if (max_depth == 0) return leaf(r);
    switch (r % 6) {
      case 0:
      case 1:
      case 2:
        return leaf(r);
      default: {
        const std::size_t len = roll() % 4;
        ValueVec vec;
        vec.reserve(len);
        for (std::size_t i = 0; i < len; ++i) {
          vec.push_back(next(max_depth - 1));
        }
        return Value{std::move(vec)};
      }
    }
  }

 private:
  Value leaf(std::uint64_t r) {
    switch (r % 4) {
      case 0:
        return Value::null();
      case 1:
        return Value{(r & 8) != 0};
      case 2: {
        // Difference of two full-range rolls; wrap in uint64 first — the
        // subtraction overflows int64 for about half of all pairs.
        const std::uint64_t d = roll() - roll();
        return Value{static_cast<std::int64_t>(d)};
      }
      default: {
        std::string s;
        const std::size_t len = roll() % 9;
        for (std::size_t i = 0; i < len; ++i) {
          s.push_back(static_cast<char>('a' + roll() % 26));
        }
        return Value{std::move(s)};
      }
    }
  }

  std::uint64_t roll() {
    counter_++;
    std::array<std::uint8_t, 8> buf{};
    for (int i = 0; i < 8; ++i) {
      buf[i] = static_cast<std::uint8_t>(counter_ >> (8 * i));
    }
    return crypto::siphash24(crypto::derive_key(seed_, 0xf222), buf);
  }

  std::uint64_t seed_;
  std::uint64_t counter_{0};
};

class ValueFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ValueFuzz, SerdeRoundTrip) {
  ValueGen gen(GetParam());
  for (int i = 0; i < 50; ++i) {
    const Value v = gen.next();
    EXPECT_EQ(decode_value(encode_value(v)), v) << v;
  }
}

TEST_P(ValueFuzz, EncodedSizeMatchesEncoding) {
  ValueGen gen(GetParam() * 31 + 5);
  for (int i = 0; i < 50; ++i) {
    const Value v = gen.next(5);
    EXPECT_EQ(encoded_size(v), encode_value(v).size()) << v;
  }
}

TEST_P(ValueFuzz, EqualityConsistentWithEncodingAndHash) {
  ValueGen g1(GetParam());
  ValueGen g2(GetParam());
  for (int i = 0; i < 50; ++i) {
    const Value a = g1.next();
    const Value b = g2.next();
    ASSERT_EQ(a, b);  // same seed => same stream
    EXPECT_EQ(a.hash(), b.hash());
    EXPECT_EQ(encode_value(a), encode_value(b));
  }
}

TEST_P(ValueFuzz, OrderingLaws) {
  ValueGen gen(GetParam() * 131 + 7);
  std::vector<Value> vs;
  for (int i = 0; i < 20; ++i) vs.push_back(gen.next(3));
  for (const Value& a : vs) {
    for (const Value& b : vs) {
      // Trichotomy.
      EXPECT_EQ((a < b) + (b < a) + (a == b), 1);
      // Equality iff identical encodings.
      EXPECT_EQ(a == b, encode_value(a) == encode_value(b));
      for (const Value& c : vs) {
        if (a < b && b < c) EXPECT_LT(a, c);  // transitivity
      }
    }
  }
}

TEST_P(ValueFuzz, DistinctValuesDistinctEncodings) {
  ValueGen gen(GetParam() * 977 + 3);
  std::vector<Value> vs;
  for (int i = 0; i < 40; ++i) vs.push_back(gen.next(3));
  for (std::size_t i = 0; i < vs.size(); ++i) {
    for (std::size_t j = i + 1; j < vs.size(); ++j) {
      if (!(vs[i] == vs[j])) {
        EXPECT_NE(encode_value(vs[i]), encode_value(vs[j]));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueFuzz, ::testing::Range(0, 8));

class ChainFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ChainFuzz, RandomChainsVerifyAndResistTampering) {
  const std::uint64_t seed = GetParam();
  const std::uint32_t n = 6;
  auto auth = std::make_shared<crypto::Authenticator>(seed, n);
  ValueGen gen(seed);

  for (int trial = 0; trial < 10; ++trial) {
    crypto::SigChain chain(gen.next(2));
    // Random distinct signer sequence.
    std::vector<ProcessId> order{0, 1, 2, 3, 4, 5};
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[(seed + trial + i) % (i + 1)]);
    }
    const std::size_t len = 1 + (seed + trial) % 5;
    for (std::size_t i = 0; i < len; ++i) {
      chain.extend(crypto::Signer(auth, order[i]));
    }
    EXPECT_TRUE(chain.verify(*auth, len, order[0]));
    EXPECT_FALSE(chain.verify(*auth, len + 1, order[0]));

    // Any single-byte tamper of the encoding must break verification (or
    // the decode).
    Bytes enc = encode_value(chain.to_value());
    Bytes bad = enc;
    bad[bad.size() / 2] ^= 0x01;
    Value decoded;
    try {
      decoded = decode_value(bad);
    } catch (const SerdeError&) {
      continue;  // tamper destroyed the framing: fine
    }
    auto reparsed = crypto::SigChain::from_value(decoded);
    if (reparsed) {
      EXPECT_FALSE(reparsed->verify(*auth, len, order[0]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainFuzz, ::testing::Range(1, 9));

}  // namespace
}  // namespace ba
