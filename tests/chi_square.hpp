// Two-sample chi-square homogeneity machinery, used by the engine
// conformance suite (conformance_test: every face against native) and the
// omission-process law tests (omission_process_test: leap legs and round
// tallies against per-delivery should_omit). Header-only on purpose: CMake
// registers every tests/*.cpp as its own ctest binary.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <map>
#include <utility>
#include <vector>

namespace ppfs::testing {

using Counts = std::vector<std::size_t>;

// Two-sample chi-square homogeneity over outcome categories, pooling rare
// categories (expected count < 5) into one bucket. Returns (stat, df).
inline std::pair<double, std::size_t> chi_square_homogeneity(
    const std::map<Counts, std::size_t>& a, const std::map<Counts, std::size_t>& b,
    std::size_t na, std::size_t nb) {
  // Collect category totals, pool the rare tail.
  std::map<Counts, std::size_t> totals;
  for (const auto& [k, v] : a) totals[k] += v;
  for (const auto& [k, v] : b) totals[k] += v;
  const double n = static_cast<double>(na + nb);
  std::vector<std::array<double, 2>> cells;  // [sample a, sample b] per category
  std::array<double, 2> pooled{0.0, 0.0};
  double pooled_total = 0.0;
  for (const auto& [k, total] : totals) {
    const double oa = a.count(k) ? static_cast<double>(a.at(k)) : 0.0;
    const double ob = b.count(k) ? static_cast<double>(b.at(k)) : 0.0;
    // Expected count in the smaller sample if the distributions agree.
    const double min_expected =
        static_cast<double>(total) * static_cast<double>(std::min(na, nb)) / n;
    if (min_expected < 5.0) {
      pooled[0] += oa;
      pooled[1] += ob;
      pooled_total += static_cast<double>(total);
    } else {
      cells.push_back({oa, ob});
    }
  }
  if (pooled_total > 0.0) cells.push_back(pooled);
  if (cells.size() < 2) return {0.0, 0};  // distributions essentially constant

  double stat = 0.0;
  const double frac_a = static_cast<double>(na) / n;
  const double frac_b = static_cast<double>(nb) / n;
  for (const auto& cell : cells) {
    const double total = cell[0] + cell[1];
    const double ea = total * frac_a;
    const double eb = total * frac_b;
    if (ea > 0.0) stat += (cell[0] - ea) * (cell[0] - ea) / ea;
    if (eb > 0.0) stat += (cell[1] - eb) * (cell[1] - eb) / eb;
  }
  return {stat, cells.size() - 1};
}

// Generous acceptance threshold: mean + 5 sigma of a chi-square with `df`
// degrees of freedom, plus slack for tiny df. With fixed seeds the tests
// are deterministic; the margin is against honest sampling noise, not
// against real distribution mismatches, which blow far past it.
inline double chi_square_limit(std::size_t df) {
  const double d = static_cast<double>(df);
  return d + 5.0 * std::sqrt(2.0 * d) + 8.0;
}

}  // namespace ppfs::testing
