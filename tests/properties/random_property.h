#pragma once

// Seeded random validity properties for the (n, t) = (4, 1) system, shared
// by the random-validity property tests and the containment-condition
// equivalence test.

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "core/ba.h"

namespace ba::test_support {

inline constexpr std::uint32_t kRandomN = 4;
inline constexpr std::uint32_t kRandomT = 1;

/// A random validity property over binary proposals and decisions {0,1,2},
/// seeded: each input configuration maps to a random non-empty subset of the
/// output domain.
inline validity::ValidityProperty random_property(std::uint64_t seed) {
  validity::ValidityProperty p;
  p.name = "random-" + std::to_string(seed);
  p.input_domain = validity::binary_domain();
  p.output_domain = validity::int_domain(3);

  auto table = std::make_shared<std::map<Value, std::uint8_t>>();
  validity::for_each_input_config(
      kRandomN, kRandomT, p.input_domain,
      [&](const validity::InputConfig& c) {
        const Bytes enc = encode_value(c.to_value());
        std::uint8_t mask = static_cast<std::uint8_t>(
            crypto::siphash24(crypto::derive_key(seed, 0x7ab1e), enc) % 7 +
            1);  // 1..7: non-empty subset of 3 values
        (*table)[c.to_value()] = mask;
        return true;
      });
  p.admissible = [table](const validity::InputConfig& c, const Value& v) {
    auto it = table->find(c.to_value());
    if (it == table->end()) return true;  // out-of-model configs: anything
    if (!v.is_int() || v.as_int() < 0 || v.as_int() > 2) return false;
    return ((it->second >> v.as_int()) & 1) != 0;
  };
  return p;
}

}  // namespace ba::test_support
