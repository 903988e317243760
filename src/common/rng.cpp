#include "common/rng.hpp"

#include <cmath>
#include <numbers>
#include <string_view>

namespace qcgen {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("Rng::uniform_int(0)");
  // Rejection sampling to remove modulo bias.
  const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % n;
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  // The +1 wraps to zero exactly when [lo, hi] covers every int64 value;
  // any raw 64-bit draw is then already uniform over the range.
  if (span == 0) return static_cast<std::int64_t>(next());
  return lo + static_cast<std::int64_t>(uniform_int(span));
}

double Rng::normal() noexcept {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  spare_normal_ = mag * std::sin(2.0 * std::numbers::pi * u2);
  has_spare_normal_ = true;
  return mag * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

std::size_t Rng::discrete(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("Rng::discrete: negative weight");
    total += w;
  }
  if (weights.empty() || total <= 0.0) {
    throw std::invalid_argument("Rng::discrete: empty or zero-sum weights");
  }
  double x = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;  // numeric edge: land on the last bucket
}

Rng Rng::split() noexcept {
  // Two draws feed a SplitMix chain so the child stream is decorrelated.
  std::uint64_t s = next() ^ std::rotl(next(), 23);
  return Rng(splitmix64(s));
}

std::uint64_t fnv1a64(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace qcgen
