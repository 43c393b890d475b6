// Pins the round face's samplers (engine/batch/leap_sampling.hpp) to
// fixed-seed values, so a change that must keep every draw — a faster
// lgamma path, a cheaper round-length search — is checked here rather
// than by comparing runs by hand:
//   * sample_round_length over n in {2^16+1, 10^6, 10^7, 10^9} and both a
//     small and a large cap;
//   * sample_hypergeometric on its exact-trials branch and its inversion
//     branch, with round-sized and with population-sized arguments;
//   * detail::binomial_inversion (the round's omission count);
//   * a RoundSystem trajectory: beacon-or on IT under uo at n = 10^7.
// Two checks back the pins: detail::log_gamma equals lgamma_r bit for bit
// across and just past its table, and sample_round_length equals a plain
// bisection that evaluates the survival function at every midpoint, over
// 10^6 random (n, u, cap) including n = 10^9, where the floating-point
// survival function is not monotone. The leap's geometric inversion is
// checked the same way: leap::geometric_inversion equals the plain libm
// quotient floor(log(u) / log1p(-p)), capped, over random and
// near-integer quotients.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <vector>

#include "core/models.hpp"
#include "core/rule_matrix.hpp"
#include "engine/batch/batch_system.hpp"
#include "engine/batch/leap_sampling.hpp"
#include "engine/batch/round_system.hpp"
#include "protocols/oneway.hpp"
#include "sched/omission_process.hpp"

namespace ppfs {
namespace {

// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

constexpr std::size_t kDraws = 2000;

TEST(RoundPin, RoundLength) {
  struct Case {
    std::uint64_t n;
    std::size_t cap;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {(1u << 16) + 1, 4096, 0xaad91cb0bbf014c0},
      {(1u << 16) + 1, 1u << 22, 0xe8173d3bd1e7a7c3},
      {1'000'000, 4096, 0xcafc59b1736557a6},
      {1'000'000, 1u << 22, 0xf4677b1735b7025a},
      {10'000'000, 4096, 0x8381337efc3e3694},
      {10'000'000, 1u << 22, 0x7746e68bbe3a8c65},
      {1'000'000'000, 4096, 0x823523d18920d7d0},
      {1'000'000'000, 1u << 22, 0xf71c3a78bedab9e4},
  };
  for (const Case& c : cases) {
    Rng rng(c.n ^ c.cap);
    Digest d;
    for (std::size_t k = 0; k < kDraws; ++k)
      d.add(leap::sample_round_length(c.n, rng, c.cap));
    d.add(rng.draw_count());
    EXPECT_EQ(d.h, c.digest) << "n=" << c.n << " cap=" << c.cap
                             << " digest 0x" << std::hex << d.h;
  }
}

TEST(RoundPin, Hypergeometric) {
  struct Case {
    std::uint64_t pool, succ, m;
    std::uint64_t digest;
  };
  const Case cases[] = {
      // Exact without-replacement trials (smallest side <= 64).
      {1000, 300, 40, 0xf1b7fd53d3825084},
      {10'000'000, 9'999'990, 5000, 0xba11551d1e2abd6f},
      // Inversion on round-sized arguments (all <= 2^16).
      {6000, 2500, 3000, 0x344faed97186247a},
      {5600, 700, 2800, 0xb4c90c5f36210865},
      // Inversion with the pool ~ n (the composition split).
      {10'000'000, 3'000'000, 5600, 0x967c190eb005b9e9},
      {1'000'000'000, 400'000'000, 60'000, 0x933b7a331118627b},
  };
  for (const Case& c : cases) {
    Rng rng(c.pool + c.succ + c.m);
    Digest d;
    for (std::size_t k = 0; k < kDraws; ++k)
      d.add(leap::sample_hypergeometric(c.pool, c.succ, c.m, rng));
    d.add(rng.draw_count());
    EXPECT_EQ(d.h, c.digest) << "(" << c.pool << ", " << c.succ << ", " << c.m
                             << ") digest 0x" << std::hex << d.h;
  }
}

TEST(RoundPin, BinomialInversion) {
  struct Case {
    std::uint64_t n;
    double p;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {3000, 0.1, 0xeb4bf3557b852dcd},
      {50'000, 0.02, 0x6b7f22c90a678842},
      {200'000, 0.5, 0xb35750d9467f421a},
      {3, 0.3, 0x237da86383f6d286}};
  for (const Case& c : cases) {
    Rng rng(c.n);
    Digest d;
    for (std::size_t k = 0; k < kDraws; ++k)
      d.add(leap::detail::binomial_inversion(c.n, c.p, rng));
    d.add(rng.draw_count());
    EXPECT_EQ(d.h, c.digest) << "(" << c.n << ", " << c.p << ") digest 0x"
                             << std::hex << d.h;
  }
}

TEST(RoundPin, BeaconOrRoundTrajectory) {
  // beacon-or's registry layout: one beacon (state 2), every other agent
  // at bit 0; IT lifted to its omissive closure under uo.
  constexpr std::size_t n = 10'000'000;
  constexpr std::size_t kRounds = 2000;
  std::vector<std::size_t> counts(3, 0);
  counts[0] = n - 1;
  counts[2] = 1;
  RuleMatrix rules = RuleMatrix::compile(make_it_or_with_beacon(),
                                         omissive_closure(Model::IT), {0, 2});
  counts.resize(rules.num_states(), 0);
  BatchSystem sys(std::move(rules), counts);
  sys.set_omission_process(parse_adversary_spec("uo"));
  RoundSystem round(sys);
  Rng rng(20260730);
  Digest d;
  for (std::size_t k = 0; k < kRounds; ++k) {
    const BatchDelta delta = round.advance(std::size_t{1} << 22, rng);
    d.add(delta.interactions);
    d.add(delta.omissions);
    for (const std::size_t c : sys.counts()) d.add(c);
  }
  d.add(sys.steps());
  d.add(sys.omissions());
  d.add(rng.draw_count());
  EXPECT_EQ(d.h, 0x0f7df3817d5116c0u) << "digest 0x" << std::hex << d.h;
}

TEST(RoundPin, LogGammaIsLgammaBitForBit) {
  constexpr std::size_t kTable = std::size_t{1} << 16;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const auto ref = [](double x) {
    int sign = 0;
    return ::lgamma_r(x, &sign);
  };
  for (std::size_t x = 1; x <= kTable + 4096; ++x) {
    const double dx = static_cast<double>(x);
    ASSERT_EQ(bits(leap::detail::log_gamma(dx)), bits(ref(dx))) << "x=" << x;
  }
  for (const double x : {0.5, 1.5, 2.25, 100.5, 65535.5, 65536.5, 1e9 + 1.0})
    EXPECT_EQ(bits(leap::detail::log_gamma(x)), bits(ref(x))) << "x=" << x;
}

// sample_round_length's large-n branch with the survival function
// evaluated at every bisection midpoint.
std::size_t reference_round_length(std::uint64_t n, Rng& rng,
                                   std::size_t cap) {
  const std::uint64_t t = n * (n - 1);
  const std::size_t max_len = std::min(cap, static_cast<std::size_t>(n / 2));
  double u = rng.uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  const double lu = std::log(u);
  const double lg_n = leap::detail::log_gamma(static_cast<double>(n) + 1.0);
  const double lt = std::log(static_cast<double>(t));
  const auto ls = [&](std::size_t i) {
    return lg_n -
           leap::detail::log_gamma(static_cast<double>(n - 2 * i) + 1.0) -
           static_cast<double>(i) * lt;
  };
  if (ls(max_len) > lu) return max_len;
  std::size_t lo = 1;
  std::size_t hi = max_len;
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    (ls(mid) > lu ? lo : hi) = mid;
  }
  return lo;
}

TEST(RoundPin, RoundLengthMatchesPlainBisection) {
  constexpr std::size_t kCases = 1'000'000;
  Rng params(7);
  std::size_t at_billion = 0;
  for (std::size_t k = 0; k < kCases; ++k) {
    std::uint64_t n;
    switch (params.below(4)) {
      case 0: n = 1'000'000'000; break;
      case 1: n = 1'000'000'000 - params.below(1u << 20); break;
      default:  // log-uniform over (2^16, 2^32)
        n = static_cast<std::uint64_t>(
            std::exp2(16.0 + 16.0 * params.uniform()));
        n = std::clamp<std::uint64_t>(n, (1u << 16) + 1, 0xffffffffULL);
    }
    std::size_t cap;
    switch (params.below(4)) {
      case 0: cap = 1 + params.below(4096); break;
      case 1: cap = std::size_t{1} << 22; break;
      case 2: cap = 1 + params.below(n); break;
      default: cap = n; break;
    }
    at_billion += n >= 999'000'000 && n <= 1'000'000'000 ? 1 : 0;
    Rng a(k);
    Rng b(k);
    const std::size_t got = leap::sample_round_length(n, a, cap);
    const std::size_t want = reference_round_length(n, b, cap);
    ASSERT_EQ(got, want) << "n=" << n << " cap=" << cap << " seed=" << k;
    ASSERT_EQ(a.draw_count(), b.draw_count());
  }
  EXPECT_GT(at_billion, kCases / 3);
}

std::size_t reference_inversion(double u, double p, std::size_t cap) {
  const double g = std::floor(std::log(u) / std::log1p(-p));
  if (g >= static_cast<double>(cap)) return cap;
  return static_cast<std::size_t>(g);
}

// Half the cases draw u uniformly; the other half put the quotient within
// a few ulps of an integer j (u = (1 - p)^j, nudged), where the bracket
// cannot decide and log1p must. Caps land below, at and above the answer.
TEST(RoundPin, GeometricInversionMatchesLibmQuotient) {
  constexpr std::size_t kCases = 2'000'000;
  Rng params(11);
  std::size_t near_integer = 0;
  for (std::size_t k = 0; k < kCases; ++k) {
    const double p = std::exp2(-6.0 - 34.0 * params.uniform());
    double u = params.uniform();
    if (k % 2 == 1) {
      const double j = std::floor(std::exp2(24.0 * params.uniform()));
      u = std::exp(j * std::log1p(-p));
      const int nudge = static_cast<int>(params.below(17)) - 8;  // ulps
      for (int i = 0; i < std::abs(nudge); ++i)
        u = std::nextafter(u, nudge > 0 ? 1.0 : 0.0);
      ++near_integer;
    }
    if (u <= 0.0) u = 0x1.0p-53;
    if (u >= 1.0) continue;
    const std::size_t free = reference_inversion(u, p, std::numeric_limits<std::size_t>::max());
    std::size_t cap;
    switch (params.below(4)) {
      case 0: cap = std::size_t{1} << 40; break;
      case 1: cap = free; break;
      case 2: cap = free + 1; break;
      default: cap = 1 + params.below(free + 1); break;
    }
    ASSERT_EQ(leap::geometric_inversion(u, p, cap),
              reference_inversion(u, p, cap))
        << "u=" << u << " p=" << p << " cap=" << cap;
  }
  EXPECT_GT(near_integer, kCases / 3);
}

}  // namespace
}  // namespace ppfs
