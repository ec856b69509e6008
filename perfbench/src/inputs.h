// The benchmark's own inputs: random streams, scrambled-zipfian key
// choice, Poisson arrival times and self-describing values. Nothing here
// comes from the simulator's sources, so no change under src/ can alter
// what the program is asked to do for a given seed.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

namespace perfbench {

inline uint64_t splitmix64(uint64_t& x) {
  uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline uint64_t mix(uint64_t a, uint64_t b) {
  uint64_t x = a ^ (b * 0xd6e8feb86659fd93ULL);
  return splitmix64(x);
}

/// xoshiro256** seeded through splitmix64.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    for (uint64_t& w : s_) w = splitmix64(seed);
  }
  uint64_t next() {
    const uint64_t r = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return r;
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  static uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

/// YCSB's zipfian generator (Gray et al.) with the item rank scrambled by
/// a hash, so hot keys spread over shards and lock stripes.
class ScrambledZipfian {
 public:
  explicit ScrambledZipfian(uint64_t n, double theta = 0.99) : n_(n) {
    for (uint64_t i = 1; i <= n; ++i) {
      zetan_ += 1.0 / std::pow(double(i), theta);
    }
    const double zeta2 = 1.0 + std::pow(0.5, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan_);
    half_pow_theta_ = std::pow(0.5, theta);
  }
  uint64_t next(Rng& rng) const {
    const double u = rng.unit();
    const double uz = u * zetan_;
    uint64_t rank;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < 1.0 + half_pow_theta_) {
      rank = 1;
    } else {
      rank = static_cast<uint64_t>(double(n_) *
                                   std::pow(eta_ * u - eta_ + 1.0, alpha_));
      if (rank >= n_) rank = n_ - 1;
    }
    return mix(rank, 0x5ca1ab1e) % n_;
  }

 private:
  uint64_t n_;
  double zetan_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
  double half_pow_theta_ = 0;
};

/// Exponential inter-arrival gap in nanoseconds for `rate` ops/s.
inline double poisson_gap_ns(Rng& rng, double rate) {
  return -std::log(1.0 - rng.unit()) * 1e9 / rate;
}

/// Values carry their identity: [magic][key][writer op id][filler], the
/// filler a stream derived from (key, op id), so a read or a recovered
/// image names exactly which write produced it and any torn or mixed
/// bytes fail the check.
inline constexpr uint64_t kValueMagic = 0x31764c4156425050ULL;  // "PPBVALv1"
inline constexpr size_t kValueHeader = 24;

inline void fill_value(uint8_t* out, size_t size, uint64_t key,
                       uint64_t op) {
  std::memcpy(out, &kValueMagic, 8);
  std::memcpy(out + 8, &key, 8);
  std::memcpy(out + 16, &op, 8);
  uint64_t x = mix(key, op) | 1;
  for (size_t i = kValueHeader; i + 8 <= size; i += 8) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::memcpy(out + i, &x, 8);
  }
}

inline std::vector<uint8_t> make_value(size_t size, uint64_t key,
                                       uint64_t op) {
  std::vector<uint8_t> v(size);
  fill_value(v.data(), size, key, op);
  return v;
}

/// Decodes a benchmark value. Returns false when the bytes are not one
/// (no magic, wrong size, or filler that does not match the header).
inline bool decode_value(const uint8_t* v, size_t size, uint64_t* key,
                         uint64_t* op) {
  if (size < kValueHeader || size % 8 != 0) return false;
  uint64_t magic = 0;
  std::memcpy(&magic, v, 8);
  if (magic != kValueMagic) return false;
  std::memcpy(key, v + 8, 8);
  std::memcpy(op, v + 16, 8);
  uint64_t x = mix(*key, *op) | 1;
  for (size_t i = kValueHeader; i + 8 <= size; i += 8) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    uint64_t w = 0;
    std::memcpy(&w, v + i, 8);
    if (w != x) return false;
  }
  return true;
}

}  // namespace perfbench
