// FNV-1a/64 over length-delimited chunks: each chunk's bytes, then a 0xff
// sentinel, so concatenation cannot alias two different inputs ("ab"+"c"
// and "a"+"bc" hash apart). The service's job digest (the result-cache
// key) and the bench reports' config digest both use it.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace steersim {

class Fnv1a {
 public:
  Fnv1a& mix(std::string_view chunk) {
    for (const char c : chunk) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= kPrime;
    }
    hash_ ^= 0xff;
    hash_ *= kPrime;
    return *this;
  }
  std::uint64_t value() const { return hash_; }
  /// 16 lowercase hex digits.
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  static constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t hash_ = 14695981039346656037ull;
};

}  // namespace steersim
