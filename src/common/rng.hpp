#pragma once
// Deterministic pseudo-random number generation for qcgen.
//
// Every stochastic component in the library (noise channels, the simulated
// language model, Monte-Carlo experiment loops) draws from an explicit Rng
// instance so that experiments are exactly reproducible from a single seed.
// The generator is xoshiro256** seeded through SplitMix64, which is both
// fast and statistically strong enough for Monte-Carlo work.

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace qcgen {

/// SplitMix64 step; used for seeding and as a cheap stateless mixer.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** PRNG with convenience distributions.
///
/// Satisfies UniformRandomBitGenerator so it can also be handed to
/// <random> distributions if ever needed, but the built-in helpers below
/// are preferred because their output is stable across standard libraries.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  /// Raw 64 random bits.
  result_type operator()() noexcept { return next(); }
  result_type next() noexcept {
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): 53 random mantissa bits.
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_int(std::uint64_t n);
  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Bernoulli trial with success probability p (clamped to [0,1]); draws
  /// nothing when p <= 0 or p >= 1.
  bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }
  /// Standard normal via Box-Muller (cached spare value).
  double normal() noexcept;
  /// Normal with given mean / stddev.
  double normal(double mean, double stddev) noexcept;
  /// Samples an index from an unnormalised non-negative weight vector.
  /// Throws std::invalid_argument if weights are empty or sum to zero.
  std::size_t discrete(std::span<const double> weights);
  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = uniform_int(static_cast<std::uint64_t>(i));
      std::swap(v[i - 1], v[j]);
    }
  }
  /// Uniformly chosen element; throws std::invalid_argument on empty input.
  template <typename T>
  const T& choice(std::span<const T> v) {
    if (v.empty()) throw std::invalid_argument("Rng::choice on empty span");
    return v[uniform_int(static_cast<std::uint64_t>(v.size()))];
  }
  template <typename T>
  const T& choice(const std::vector<T>& v) {
    return choice(std::span<const T>(v));
  }

  /// Derives an independent child generator (stable stream splitting).
  Rng split() noexcept;

 private:
  std::array<std::uint64_t, 4> state_{};
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

/// Stable 64-bit FNV-1a hash of a string, for deriving per-key substreams.
std::uint64_t fnv1a64(std::string_view s) noexcept;

}  // namespace qcgen
