#include "runtime/serde.h"

namespace ba {

void BytesWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out_.push_back((v >> (8 * i)) & 0xff);
}

void BytesWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out_.push_back((v >> (8 * i)) & 0xff);
}

void BytesWriter::str(const std::string& s) {
  u64(s.size());
  out_.insert(out_.end(), s.begin(), s.end());
}

void BytesWriter::bytes(const Bytes& b) {
  u64(b.size());
  out_.insert(out_.end(), b.begin(), b.end());
}

void BytesWriter::value(const Value& v) {
  u8(static_cast<std::uint8_t>(v.kind()));
  switch (v.kind()) {
    case Value::Kind::kNull:
      break;
    case Value::Kind::kBool:
      u8(v.as_bool() ? 1 : 0);
      break;
    case Value::Kind::kInt:
      i64(v.as_int());
      break;
    case Value::Kind::kStr:
      str(v.as_str());
      break;
    case Value::Kind::kVec:
      u64(v.as_vec().size());
      for (const Value& e : v.as_vec()) value(e);
      break;
  }
}

void BytesReader::need(std::size_t k) {
  if (remaining() < k) throw SerdeError("truncated input");
}

std::uint8_t BytesReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint32_t BytesReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  }
  return v;
}

std::uint64_t BytesReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  }
  return v;
}

std::string BytesReader::str() {
  std::uint64_t len = u64();
  need(len);
  std::string s(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                data_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
  pos_ += len;
  return s;
}

Bytes BytesReader::bytes() {
  std::uint64_t len = u64();
  need(len);
  Bytes b(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
          data_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
  pos_ += len;
  return b;
}

Value BytesReader::value() {
  auto kind = static_cast<Value::Kind>(u8());
  switch (kind) {
    case Value::Kind::kNull:
      return Value::null();
    case Value::Kind::kBool:
      return Value{u8() != 0};
    case Value::Kind::kInt:
      return Value{i64()};
    case Value::Kind::kStr:
      return Value{str()};
    case Value::Kind::kVec: {
      std::uint64_t len = u64();
      // Each element takes at least one byte: reject corrupted length
      // fields before any allocation is attempted.
      if (len > remaining()) throw SerdeError("vector length exceeds input");
      ValueVec vec;
      vec.reserve(len);
      for (std::uint64_t i = 0; i < len; ++i) vec.push_back(value());
      return Value{std::move(vec)};
    }
  }
  throw SerdeError("bad value tag");
}

Bytes encode_value(const Value& v) {
  BytesWriter w;
  w.value(v);
  return w.take();
}

std::size_t encoded_size(const Value& v) {
  // Mirrors BytesWriter::value: a one-byte kind tag, then the body, with
  // every length written as a u64.
  switch (v.kind()) {
    case Value::Kind::kNull:
      return 1;
    case Value::Kind::kBool:
      return 1 + 1;
    case Value::Kind::kInt:
      return 1 + 8;
    case Value::Kind::kStr:
      return 1 + 8 + v.as_str().size();
    case Value::Kind::kVec: {
      std::size_t size = 1 + 8;
      for (const Value& e : v.as_vec()) size += encoded_size(e);
      return size;
    }
  }
  throw SerdeError("bad value kind");
}

Value decode_value(std::span<const std::uint8_t> data) {
  BytesReader r(data);
  Value v = r.value();
  if (!r.done()) throw SerdeError("trailing bytes");
  return v;
}

}  // namespace ba
