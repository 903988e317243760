#include "arith.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string>

namespace qcgen::perfbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

std::size_t samples_beyond(std::size_t n, double p) {
  // Rounded before ceil so that e.g. 0.99 * 1000 = 990 exactly.
  const double at = std::round(p / 100.0 * static_cast<double>(n) * 1e6) / 1e6;
  const auto covered = static_cast<std::size_t>(std::ceil(at));
  return covered >= n ? 0 : n - covered;
}

double highest_supported_percentile(std::size_t n, std::size_t min_beyond) {
  static constexpr double kLadder[] = {99.99, 99.9, 99.0, 95.0, 90.0, 50.0};
  for (const double p : kLadder) {
    if (samples_beyond(n, p) >= min_beyond) return p;
  }
  return 0.0;
}

double peak_rss_mb() {
  // VmHWM rather than getrusage: ru_maxrss survives exec, so it would
  // report the launching process's peak when that was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

}  // namespace qcgen::perfbench
