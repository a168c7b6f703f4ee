#include "runtime/serde.h"

#include <gtest/gtest.h>

namespace ba {
namespace {

TEST(Serde, PrimitivesRoundTrip) {
  BytesWriter w;
  w.u8(0xab);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.str("hello");

  BytesReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.done());
}

TEST(Serde, ValueRoundTrip) {
  const std::vector<Value> cases{
      Value::null(),
      Value{true},
      Value{false},
      Value{-7},
      Value{std::int64_t{1234567890123}},
      Value{""},
      Value{"payload"},
      Value{ValueVec{}},
      Value::vec({Value{"chain"}, Value{1}, Value::vec({0, 1})}),
  };
  for (const Value& v : cases) {
    EXPECT_EQ(decode_value(encode_value(v)), v) << v;
  }
}

TEST(Serde, EncodedSizeIsTheEncodingLength) {
  const std::vector<Value> cases{
      Value::null(),
      Value{true},
      Value{false},
      Value{0},
      Value{std::int64_t{-1234567890123}},
      Value{""},
      Value{"payload"},
      Value{ValueVec{}},
      Value::vec({Value{ValueVec{}}}),
      Value::vec({Value{"chain"}, Value{1}, Value::vec({0, 1})}),
      Value::vec({Value::vec({Value::vec({Value::null(), Value{""}})}),
                  Value{true}}),
  };
  for (const Value& v : cases) {
    EXPECT_EQ(encoded_size(v), encode_value(v).size()) << v;
  }
}

TEST(Serde, DistinctValuesDistinctEncodings) {
  EXPECT_NE(encode_value(Value{0}), encode_value(Value{false}));
  EXPECT_NE(encode_value(Value{"1"}), encode_value(Value{1}));
  EXPECT_NE(encode_value(Value::vec({1})), encode_value(Value::vec({1, 1})));
}

TEST(Serde, TruncatedInputThrows) {
  Bytes b = encode_value(Value{"hello world"});
  b.pop_back();
  EXPECT_THROW(decode_value(b), SerdeError);
}

TEST(Serde, TrailingBytesThrow) {
  Bytes b = encode_value(Value{1});
  b.push_back(0);
  EXPECT_THROW(decode_value(b), SerdeError);
}

TEST(Serde, BadTagThrows) {
  Bytes b{0x99};
  EXPECT_THROW(decode_value(b), SerdeError);
}

TEST(Serde, EmptyReaderReportsDone) {
  BytesReader r(std::span<const std::uint8_t>{});
  EXPECT_TRUE(r.done());
  EXPECT_THROW(r.u8(), SerdeError);
}

}  // namespace
}  // namespace ba
