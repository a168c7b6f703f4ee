#pragma once

// Canonical binary serialization. Used to derive signing bytes for the
// authentication substrate and stable hashes for execution comparison.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/value.h"

namespace ba {

using Bytes = std::vector<std::uint8_t>;

class BytesWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void str(const std::string& s);
  void bytes(const Bytes& b);
  void value(const Value& v);

  [[nodiscard]] const Bytes& data() const { return out_; }
  [[nodiscard]] Bytes take() { return std::move(out_); }

 private:
  Bytes out_;
};

class SerdeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class BytesReader {
 public:
  explicit BytesReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::string str();
  Bytes bytes();
  Value value();

  [[nodiscard]] bool done() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  void need(std::size_t k);

  std::span<const std::uint8_t> data_;
  std::size_t pos_{0};
};

/// Canonical byte encoding of a value (round-trips via BytesReader::value).
Bytes encode_value(const Value& v);
/// Length of `encode_value(v)`, computed without encoding or allocating.
std::size_t encoded_size(const Value& v);
Value decode_value(std::span<const std::uint8_t> data);

}  // namespace ba
