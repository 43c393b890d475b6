// DynamicPairSampler (engine/batch/alias_sampler.hpp): the dynamic
// weighted sampler behind the batch engine's incremental changing-pair
// weights. Covers the Fenwick and alias regimes (both must realize the
// same weights/total distribution), the lazy alias rebuild policy, the
// shared invariant-check machinery (weighted_scan /
// SamplerInvariantError), and the BatchSystem audit: the incrementally
// maintained class weight must equal the O(q^2) reference rescan at
// every point of a real run.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "engine/batch/alias_sampler.hpp"
#include "engine/batch/batch_system.hpp"
#include "protocols/registry.hpp"
#include "util/rng.hpp"

namespace ppfs {
namespace {

// Frequency check with a 5-sigma-ish band: binomial sd plus slack.
void expect_frequencies(const std::vector<std::uint64_t>& weights,
                        const std::vector<std::size_t>& hits,
                        std::size_t draws, const char* label) {
  std::uint64_t total = 0;
  for (const std::uint64_t w : weights) total += w;
  ASSERT_GT(total, 0u);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double p = static_cast<double>(weights[i]) / static_cast<double>(total);
    const double expect = static_cast<double>(draws) * p;
    const double sd = std::sqrt(expect * (1.0 - p));
    EXPECT_NEAR(static_cast<double>(hits[i]), expect, 5.0 * sd + 10.0)
        << label << " slot " << i;
    if (weights[i] == 0) {
      EXPECT_EQ(hits[i], 0u) << label << " slot " << i;
    }
  }
}

TEST(DynamicPairSampler, FenwickRegimeMatchesWeights) {
  // Interleaving set() with draws keeps the alias permanently invalid, so
  // every draw is a Fenwick descent.
  const std::vector<std::uint64_t> weights{10, 0, 5, 1, 24, 0, 8};
  DynamicPairSampler s;
  s.reset(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) s.set(i, weights[i]);
  EXPECT_EQ(s.total(), 48u);
  Rng rng(11);
  const std::size_t draws = 48'000;
  std::vector<std::size_t> hits(weights.size(), 0);
  for (std::size_t d = 0; d < draws; ++d) {
    ++hits[s.draw(rng)];
    s.set(d % weights.size(), weights[d % weights.size()]);  // same weight...
    s.set(0, 11);  // ...but a real change invalidates the alias
    s.set(0, 10);
  }
  EXPECT_EQ(s.alias_builds(), 0u);
  EXPECT_EQ(s.fenwick_draws(), draws);
  expect_frequencies(weights, hits, draws, "fenwick");
}

// The Fenwick face maps its one below(total) draw to the smallest slot
// whose prefix sum exceeds it. Slot counts below, at and past the leaf
// block size (and many blocks) must all give the linear scan's slot, and
// the block tree must stay the one a rebuild produces.
TEST(DynamicPairSampler, FenwickPickIsThePrefixScanAcrossBlocks) {
  Rng gen(17);
  for (const std::size_t k : {1u, 2u, 7u, 8u, 9u, 16u, 17u, 100u, 1000u}) {
    DynamicPairSampler s;
    s.reset(k);
    std::vector<std::uint64_t> w(k, 0);
    for (std::size_t round = 0; round < 4000; ++round) {
      // A changed weight every round keeps the Fenwick face serving.
      const std::size_t i = gen.below(k);
      const std::uint64_t old = w[i];
      while (w[i] == old) w[i] = gen.chance(0.3) ? 0 : 1 + gen.below(1000);
      s.set(i, w[i]);
      if (s.total() == 0) continue;
      Rng a(round);
      Rng b(round);
      const std::size_t got = s.draw(a);
      const std::uint64_t pick = b.below(s.total());
      EXPECT_EQ(got, weighted_scan(k, pick, "test",
                                   [&](std::size_t j) { return w[j]; }))
          << "k=" << k << " round " << round;
    }
    EXPECT_NO_THROW(s.audit_invariants());
  }
}

TEST(DynamicPairSampler, AliasRegimeMatchesWeights) {
  const std::vector<std::uint64_t> weights{7, 1, 0, 40, 3, 13};
  DynamicPairSampler s;
  s.reset(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) s.set(i, weights[i]);
  Rng rng(12);
  const std::size_t draws = 64'000;
  std::vector<std::size_t> hits(weights.size(), 0);
  for (std::size_t d = 0; d < draws; ++d) ++hits[s.draw(rng)];
  // Draws without updates amortize past the rebuild threshold quickly.
  EXPECT_EQ(s.alias_builds(), 1u);
  EXPECT_GT(s.alias_draws(), draws / 2);
  expect_frequencies(weights, hits, draws, "alias");
}

TEST(DynamicPairSampler, RebuildPolicyIsLazy) {
  DynamicPairSampler s;
  s.reset(4);
  for (std::size_t i = 0; i < 4; ++i) s.set(i, i + 1);
  Rng rng(13);
  // The alias table is only worth building once draws since the last
  // update amortize the O(k) build: the first size() draws stay Fenwick.
  for (std::size_t d = 0; d < 3; ++d) (void)s.draw(rng);
  EXPECT_EQ(s.alias_builds(), 0u);
  (void)s.draw(rng);
  EXPECT_EQ(s.alias_builds(), 1u);
  // Re-setting an identical weight is a no-op and keeps the table.
  s.set(2, 3);
  (void)s.draw(rng);
  EXPECT_EQ(s.alias_builds(), 1u);
  // A real change invalidates; the next build waits for amortization.
  s.set(2, 100);
  (void)s.draw(rng);
  EXPECT_EQ(s.alias_builds(), 1u);
  for (std::size_t d = 0; d < 4; ++d) (void)s.draw(rng);
  EXPECT_EQ(s.alias_builds(), 2u);
}

TEST(DynamicPairSampler, HugeWeightsSurviveAliasBuild) {
  // Vose thresholds are w_i * k in 128-bit; totals near the n = 10^9
  // scale (T = n(n-1) ~ 10^18) must not overflow the bucket math.
  const std::uint64_t big = 900'000'000'000'000'000ULL;  // 9e17
  const std::vector<std::uint64_t> weights{big, big / 3, 1, big / 7};
  DynamicPairSampler s;
  s.reset(weights.size());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    s.set(i, weights[i]);
    total += weights[i];
  }
  EXPECT_EQ(s.total(), total);
  Rng rng(14);
  const std::size_t draws = 32'000;
  std::vector<std::size_t> hits(weights.size(), 0);
  for (std::size_t d = 0; d < draws; ++d) ++hits[s.draw(rng)];
  EXPECT_GE(s.alias_builds(), 1u);
  expect_frequencies(weights, hits, draws, "huge");
}

TEST(DynamicPairSampler, DrawOnEmptyTotalRaisesInvariant) {
  DynamicPairSampler s;
  s.reset(3);
  Rng rng(15);
  EXPECT_THROW((void)s.draw(rng), SamplerInvariantError);
  s.set(1, 5);
  s.set(1, 0);
  EXPECT_THROW((void)s.draw(rng), SamplerInvariantError);
}

TEST(WeightedScan, CoversExactPrefixAndRaisesStructuredError) {
  const std::vector<std::uint64_t> w{4, 0, 3, 2};
  const auto at = [&](std::size_t i) { return w[i]; };
  // Every pick inside the total maps to the exact prefix slot.
  EXPECT_EQ(weighted_scan(w.size(), 0, "t", at), 0u);
  EXPECT_EQ(weighted_scan(w.size(), 3, "t", at), 0u);
  EXPECT_EQ(weighted_scan(w.size(), 4, "t", at), 2u);
  EXPECT_EQ(weighted_scan(w.size(), 6, "t", at), 2u);
  EXPECT_EQ(weighted_scan(w.size(), 7, "t", at), 3u);
  EXPECT_EQ(weighted_scan(w.size(), 8, "t", at), 3u);
  // The rounding edge the former bare logic_error hid: a pick at/past the
  // covered weight is an invariant violation carrying enough state to
  // debug (context, the offending pick, the weight actually covered).
  try {
    (void)weighted_scan(w.size(), 9, "edge-context", at);
    FAIL() << "expected SamplerInvariantError";
  } catch (const SamplerInvariantError& e) {
    EXPECT_EQ(e.pick(), 9u);
    EXPECT_EQ(e.covered(), 9u);
    EXPECT_NE(std::string(e.what()).find("edge-context"), std::string::npos);
  }
}

TEST(BatchSystemWeights, IncrementalWeightMatchesAuditMidRun) {
  // The incrementally maintained class weight (dirty-state flush into the
  // pair samplers) must equal the O(q^2) reference rescan at every
  // observation point of a real run, for every registry workload.
  for (const Workload& w : standard_workloads(24)) {
    BatchSystem sys(w.protocol, w.initial);
    Rng rng(16);
    for (int i = 0; i < 40 && !sys.silent(); ++i) {
      (void)sys.advance(1 + (i % 7), rng);
      EXPECT_EQ(sys.changing_weight(InteractionClass::Real),
                sys.audit_changing_weight(InteractionClass::Real))
          << w.name << " after batch " << i;
    }
  }
}

TEST(BatchSystemWeights, FireDensityTracksAuditWeight) {
  const Workload w = find_workload("or", 32);
  BatchSystem sys(w.protocol, w.initial);
  Rng rng(17);
  (void)sys.advance(40, rng);
  const double t = 32.0 * 31.0;
  EXPECT_DOUBLE_EQ(
      sys.fire_density(),
      static_cast<double>(sys.audit_changing_weight(InteractionClass::Real)) /
          t);
}

}  // namespace
}  // namespace ppfs
