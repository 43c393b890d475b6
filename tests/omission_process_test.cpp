// OmissionProcess: the extracted Def. 1–2 insertion state machine, its
// batch-side views, the CLI adversary-spec parser, the exact
// burst-capped leap sampler the batch engines use to honor max_burst,
// the round face's per-round omission count, and the exact binomial
// sampler behind it.
#include "sched/omission_process.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "chi_square.hpp"
#include "engine/batch/leap_sampling.hpp"
#include "sched/adversary.hpp"

namespace ppfs {

// Reaches the capped-round path directly, so tests can run it at a
// rate^(cap+1) far above the gate that sample_round_omissions applies.
struct OmissionProcessTestPeer {
  static std::size_t capped_round(OmissionProcess& proc,
                                  std::size_t deliveries, Rng& rng) {
    return proc.sample_capped_round(deliveries, rng);
  }
};

namespace {

AdversaryParams uo(double rate) {
  AdversaryParams p;
  p.kind = AdversaryKind::UO;
  p.rate = rate;
  return p;
}

TEST(OmissionProcess, ZeroRateIsNeverActive) {
  OmissionProcess proc(uo(0.0));
  Rng rng(1);
  EXPECT_FALSE(proc.active(0));
  for (int i = 0; i < 200; ++i) EXPECT_FALSE(proc.should_omit(rng, i));
  EXPECT_EQ(proc.emitted(), 0u);
}

TEST(OmissionProcess, BudgetExhaustionIsAbsorbing) {
  AdversaryParams p = uo(1.0);
  p.kind = AdversaryKind::Budget;
  p.max_omissions = 5;
  p.max_burst = 100;
  OmissionProcess proc(p);
  Rng rng(2);
  std::size_t om = 0;
  for (int i = 0; i < 100; ++i) om += proc.should_omit(rng, i) ? 1 : 0;
  EXPECT_EQ(om, 5u);
  EXPECT_EQ(proc.remaining_budget(), 0u);
  EXPECT_FALSE(proc.active(1000));
}

TEST(OmissionProcess, No1ForcesBudgetOne) {
  AdversaryParams p = uo(1.0);
  p.kind = AdversaryKind::NO1;
  OmissionProcess proc(p);
  Rng rng(3);
  std::size_t om = 0;
  for (int i = 0; i < 100; ++i) om += proc.should_omit(rng, i) ? 1 : 0;
  EXPECT_EQ(om, 1u);
}

TEST(OmissionProcess, NoGoesQuietAtTheHorizon) {
  AdversaryParams p = uo(1.0);
  p.kind = AdversaryKind::NO;
  p.quiet_after = 10;
  p.max_burst = 100;
  OmissionProcess proc(p);
  Rng rng(4);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_TRUE(proc.should_omit(rng, i));
  EXPECT_FALSE(proc.active(10));
  for (std::size_t i = 10; i < 50; ++i) EXPECT_FALSE(proc.should_omit(rng, i));
}

TEST(OmissionProcess, BurstCapForcesRealDeliveries) {
  AdversaryParams p = uo(1.0);
  p.max_burst = 3;
  OmissionProcess proc(p);
  Rng rng(5);
  // rate 1 with burst cap 3: pattern omit,omit,omit,real repeating.
  for (int block = 0; block < 5; ++block) {
    for (int k = 0; k < 3; ++k)
      EXPECT_TRUE(proc.should_omit(rng, block * 4 + k));
    EXPECT_FALSE(proc.should_omit(rng, block * 4 + 3));
  }
}

TEST(OmissionProcess, NoteOmissionsFeedsTheBudget) {
  AdversaryParams p = uo(0.5);
  p.kind = AdversaryKind::Budget;
  p.max_omissions = 10;
  OmissionProcess proc(p);
  EXPECT_TRUE(proc.active(0));
  proc.note_omissions(9);
  EXPECT_TRUE(proc.active(0));
  EXPECT_EQ(proc.remaining_budget(), 1u);
  proc.note_omissions(1);
  EXPECT_FALSE(proc.active(0));
}

TEST(OmissionProcess, AdversaryWrapperDelegatesToTheProcess) {
  // Same params + same seed: the wrapper's omission pattern equals the
  // bare process's should_omit stream (the wrapper draws victims from the
  // same rng after each insertion, so compare via a scripted base that
  // consumes no randomness and the process on a cloned rng).
  AdversaryParams p = uo(0.4);
  p.max_burst = 2;
  std::vector<Interaction> script(200, Interaction{0, 1, false});
  OmissionAdversary adv(std::make_unique<ScriptedScheduler>(script, nullptr), 4,
                        p);
  adv.set_victim_picker([](Rng&, std::size_t) { return Interaction{2, 3, false}; });
  OmissionProcess proc(p);
  Rng rng_a(7), rng_b(7);
  for (std::size_t i = 0; i < script.size(); ++i) {
    const bool wrapper_omits = adv.next(rng_a, i).omissive;
    const bool process_omits = proc.should_omit(rng_b, i);
    EXPECT_EQ(wrapper_omits, process_omits) << "step " << i;
  }
  EXPECT_EQ(adv.omissions_emitted(), proc.emitted());
}

TEST(OmissionProcess, BurstCapReachability) {
  AdversaryParams p = uo(0.5);
  p.max_burst = 4;
  {
    OmissionProcess proc(p);  // unbounded budget: always reachable
    EXPECT_TRUE(proc.burst_cap_reachable());
  }
  p.kind = AdversaryKind::Budget;
  p.max_omissions = 3;  // 3 insertions can never fill a burst of 4
  {
    OmissionProcess proc(p);
    EXPECT_FALSE(proc.burst_cap_reachable());
  }
  p.max_omissions = 5;
  {
    OmissionProcess proc(p);
    EXPECT_TRUE(proc.burst_cap_reachable());
    proc.note_omissions(2);  // remaining 3 < cap, burst 0: unreachable now
    EXPECT_FALSE(proc.burst_cap_reachable());
    proc.set_burst(2);  // ...unless a burst is already under way
    EXPECT_TRUE(proc.burst_cap_reachable());
  }
  p.max_burst = std::numeric_limits<std::size_t>::max();
  p.max_omissions = std::numeric_limits<std::size_t>::max();
  OmissionProcess proc(p);
  EXPECT_FALSE(proc.burst_cap_reachable());
}

// The exact burst-capped leg must realize the same joint distribution of
// (deliveries, omissions, fired, end burst state) as simulating the
// within-burst chain one delivery at a time with should_omit semantics.
TEST(BurstLeap, CappedLegMatchesPerDeliverySimulation) {
  using Counts = ppfs::testing::Counts;
  struct Case {
    double rate;
    std::uint64_t w, t;
    std::size_t max_burst, burst0, budget, cap;
  };
  const Case cases[] = {
      {0.5, 3, 20, 2, 0, std::numeric_limits<std::size_t>::max(), 40},
      {0.7, 1, 8, 3, 2, 5, 25},   // mid-burst entry + budget exhaustion
      {0.3, 0, 10, 1, 0, std::numeric_limits<std::size_t>::max(), 12},  // w = 0
      {1.0, 5, 9, 4, 1, std::numeric_limits<std::size_t>::max(), 30},   // rate 1
      {0.9, 7, 50, 2, 0, 3, 18},
  };
  const std::size_t trials = 4000;
  int case_idx = 0;
  for (const Case& c : cases) {
    std::map<Counts, std::size_t> leg_dist, ref_dist;
    Rng rng_leg(5000 + case_idx), rng_ref(9000 + case_idx);
    for (std::size_t i = 0; i < trials; ++i) {
      std::size_t burst = c.burst0;
      const leap::BurstLeg leg = leap::sample_capped_burst_leg(
          c.rate, c.w, c.t, c.max_burst, burst, c.budget, c.cap, rng_leg);
      ++leg_dist[Counts{leg.deliveries, leg.omissions, leg.fire ? 1u : 0u,
                        burst}];
      // Reference: one delivery at a time, should_omit semantics.
      std::size_t b = c.burst0, deliveries = 0, omissions = 0;
      bool fire = false;
      while (deliveries < c.cap) {
        const bool om =
            omissions < c.budget && b < c.max_burst && rng_ref.chance(c.rate);
        ++deliveries;
        if (om) {
          ++omissions;
          ++b;
          continue;
        }
        b = 0;
        if (rng_ref.below(c.t) < c.w) {
          fire = true;
          break;
        }
      }
      ++ref_dist[Counts{deliveries, omissions, fire ? 1u : 0u, b}];
    }
    const auto [stat, df] = ppfs::testing::chi_square_homogeneity(
        leg_dist, ref_dist, trials, trials);
    EXPECT_LE(stat, ppfs::testing::chi_square_limit(df))
        << "case " << case_idx << ": chi2=" << stat << " df=" << df;
    ++case_idx;
  }
}

// One round's (omissions, final burst, emitted) under `count`, against
// the same number of should_omit() calls from the same starting state.
// Without a cap the burst counter is dead state, so it is left out.
struct RoundCell {
  std::string label;
  AdversaryParams params;
  std::size_t burst0;
  std::size_t deliveries;
};

using RoundCounter =
    std::function<std::size_t(OmissionProcess&, std::size_t, Rng&)>;

void expect_round_law(const RoundCell& c, const RoundCounter& count,
                      std::size_t trials, std::uint64_t seed) {
  using Counts = ppfs::testing::Counts;
  std::map<Counts, std::size_t> got, ref;
  const bool has_cap =
      c.params.max_burst != std::numeric_limits<std::size_t>::max();
  const auto key = [has_cap](std::size_t om, const OmissionProcess& proc) {
    return Counts{om, has_cap ? proc.burst() : 0, proc.emitted()};
  };
  Rng rng_got(seed), rng_ref(seed + 1);
  for (std::size_t i = 0; i < trials; ++i) {
    OmissionProcess a(c.params);
    a.set_burst(c.burst0);
    const std::size_t om = count(a, c.deliveries, rng_got);
    ++got[key(om, a)];
    OmissionProcess b(c.params);
    b.set_burst(c.burst0);
    std::size_t ref_om = 0;
    for (std::size_t j = 0; j < c.deliveries; ++j)
      ref_om += b.should_omit(rng_ref, j) ? 1 : 0;
    ++ref[key(ref_om, b)];
  }
  const auto [stat, df] =
      ppfs::testing::chi_square_homogeneity(got, ref, trials, trials);
  EXPECT_GT(df, 0u) << c.label << ": degenerate law";
  EXPECT_LE(stat, ppfs::testing::chi_square_limit(df))
      << c.label << ": chi2=" << stat << " df=" << df;
}

AdversaryParams capped(double rate, std::size_t max_burst) {
  AdversaryParams p = uo(rate);
  p.max_burst = max_burst;
  return p;
}

// sample_round_omissions on both sides of the long-run gate, from an
// empty and a full burst, with a binding budget, and uncapped.
TEST(RoundOmissions, JointLawMatchesPerDeliveryChain) {
  AdversaryParams budget = capped(0.4, 3);
  budget.kind = AdversaryKind::Budget;
  budget.max_omissions = 12;
  const std::size_t inf = std::numeric_limits<std::size_t>::max();
  const RoundCell cells[] = {
      {"fast p=0.1 K=8 b0=0", capped(0.1, 8), 0, 300},
      {"fast p=0.1 K=8 b0=K", capped(0.1, 8), 8, 300},
      {"fast p=0.3 K=6 b0=4", capped(0.3, 6), 4, 150},
      {"walk p=0.5 K=2 b0=0", capped(0.5, 2), 0, 40},
      {"walk p=0.5 K=2 b0=K", capped(0.5, 2), 2, 40},
      {"budget binds", budget, 1, 60},
      {"burst=inf", capped(0.2, inf), 0, 300},
  };
  std::uint64_t seed = 31000;
  for (const RoundCell& c : cells) {
    expect_round_law(
        c,
        [](OmissionProcess& proc, std::size_t l, Rng& rng) {
          return proc.sample_round_omissions(l, 0, rng);
        },
        20000, seed);
    seed += 2;
  }
}

// The capped-round path forced at rates where long runs are common, so
// its long-run branch (and the explicit-placement fallback) carry much
// of the mass.
TEST(RoundOmissions, LongRunBranchMatchesPerDeliveryChain) {
  const RoundCell cells[] = {
      {"p=0.5 K=2 b0=0", capped(0.5, 2), 0, 30},
      {"p=0.5 K=2 b0=K", capped(0.5, 2), 2, 30},
      {"p=0.3 K=3 b0=1", capped(0.3, 3), 1, 60},
      {"p=0.8 K=4 b0=0", capped(0.8, 4), 0, 25},
      {"p=0.2 K=1 b0=1", capped(0.2, 1), 1, 50},
  };
  std::uint64_t seed = 32000;
  for (const RoundCell& c : cells) {
    expect_round_law(c, OmissionProcessTestPeer::capped_round, 20000, seed);
    seed += 2;
  }
}

// The dense-round adversary (uo:0.1, default cap 8) at a typical round
// length: the per-delivery walk drew one coin per delivery here.
TEST(RoundOmissions, CappedRoundDrawsAreConstantPerRound) {
  OmissionProcess proc(capped(0.1, 8));
  Rng rng(33000);
  const std::size_t calls = 2000;
  for (std::size_t i = 0; i < calls; ++i)
    (void)proc.sample_round_omissions(1944, 0, rng);
  const double per_call =
      static_cast<double>(rng.draw_count()) / static_cast<double>(calls);
  EXPECT_LT(per_call, 16.0);
}

// The inclusion-exclusion run probability against enumeration of every
// placement, wherever the series claims to be well-conditioned.
TEST(LongRunProbability, MatchesEnumeration) {
  std::size_t checked = 0;
  for (std::size_t slots = 0; slots <= 14; ++slots) {
    for (std::size_t m = 1; m <= 5; ++m) {
      std::vector<double> with_run(slots + 1, 0.0), all(slots + 1, 0.0);
      for (std::uint32_t bits = 0; bits < (1u << slots); ++bits) {
        std::size_t ones = 0, run = 0;
        bool long_run = false;
        for (std::size_t j = 0; j < slots; ++j) {
          if (bits >> j & 1u) {
            ++ones;
            long_run = long_run || ++run >= m;
          } else {
            run = 0;
          }
        }
        all[ones] += 1.0;
        if (long_run) with_run[ones] += 1.0;
      }
      for (std::size_t ones = 0; ones <= slots; ++ones) {
        const auto rho = leap::long_run_probability(slots, ones, m);
        if (!rho) continue;
        EXPECT_NEAR(*rho, with_run[ones] / all[ones], 1e-12)
            << "slots=" << slots << " ones=" << ones << " m=" << m;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 200u);
}

// leap::detail::binomial_inversion against the exact Binomial(n, p) pmf,
// with bins of expected count below 5 pooled.
TEST(BinomialInversion, MatchesTheExactPmf) {
  const std::size_t samples = 20000;
  std::uint64_t seed = 34000;
  for (const std::uint64_t n : {1ull, 7ull, 64ull, 1944ull, 1000000ull}) {
    for (const double p : {1e-3, 0.1, 0.5, 0.97}) {
      Rng rng(seed++);
      std::map<std::uint64_t, std::size_t> seen;
      for (std::size_t i = 0; i < samples; ++i) {
        const std::uint64_t k = leap::detail::binomial_inversion(n, p, rng);
        ASSERT_LE(k, n);
        ++seen[k];
      }
      const double dn = static_cast<double>(n);
      double stat = 0.0;
      std::size_t bins = 0;
      double pooled_e = 0.0;
      double pooled_o = 0.0;
      for (std::uint64_t k = 0; k <= n; ++k) {
        const double dk = static_cast<double>(k);
        const double e =
            static_cast<double>(samples) *
            std::exp(std::lgamma(dn + 1) - std::lgamma(dk + 1) -
                     std::lgamma(dn - dk + 1) + dk * std::log(p) +
                     (dn - dk) * std::log1p(-p));
        const auto it = seen.find(k);
        const double o = it == seen.end() ? 0.0 : static_cast<double>(it->second);
        if (e < 5.0) {
          pooled_e += e;
          pooled_o += o;
          continue;
        }
        stat += (o - e) * (o - e) / e;
        ++bins;
      }
      if (pooled_e > 0.0) {
        stat += (pooled_o - pooled_e) * (pooled_o - pooled_e) / pooled_e;
        ++bins;
      }
      const std::size_t df = bins > 1 ? bins - 1 : 0;
      EXPECT_LE(stat, ppfs::testing::chi_square_limit(df))
          << "n=" << n << " p=" << p << ": chi2=" << stat << " df=" << df;
    }
  }
}

TEST(BinomialInversion, EdgesAreDeterministicAndDrawFree) {
  Rng rng(35000);
  EXPECT_EQ(leap::detail::binomial_inversion(100, 0.0, rng), 0u);
  EXPECT_EQ(leap::detail::binomial_inversion(100, 1.0, rng), 100u);
  EXPECT_EQ(leap::detail::binomial_inversion(0, 0.5, rng), 0u);
  EXPECT_EQ(rng.draw_count(), 0u);
}

TEST(ParseAdversarySpec, AcceptsTheDocumentedForms) {
  EXPECT_EQ(parse_adversary_spec("none").rate, 0.0);
  const AdversaryParams u = parse_adversary_spec("uo:0.25");
  EXPECT_EQ(u.kind, AdversaryKind::UO);
  EXPECT_DOUBLE_EQ(u.rate, 0.25);
  const AdversaryParams d = parse_adversary_spec("uo");
  EXPECT_DOUBLE_EQ(d.rate, 0.1);  // default rate
  const AdversaryParams n = parse_adversary_spec("no:5000:0.3");
  EXPECT_EQ(n.kind, AdversaryKind::NO);
  EXPECT_EQ(n.quiet_after, 5000u);
  EXPECT_DOUBLE_EQ(n.rate, 0.3);
  const AdversaryParams n1 = parse_adversary_spec("no1");
  EXPECT_EQ(n1.kind, AdversaryKind::NO1);
  EXPECT_EQ(n1.max_omissions, 1u);
  const AdversaryParams b = parse_adversary_spec("budget:1000");
  EXPECT_EQ(b.kind, AdversaryKind::Budget);
  EXPECT_EQ(b.max_omissions, 1000u);
  EXPECT_EQ(b.max_burst, 8u);  // the documented default
}

TEST(ParseAdversarySpec, AcceptsBurstCapOverrides) {
  const AdversaryParams a = parse_adversary_spec("uo:0.25:burst=3");
  EXPECT_DOUBLE_EQ(a.rate, 0.25);
  EXPECT_EQ(a.max_burst, 3u);
  const AdversaryParams inf = parse_adversary_spec("uo:burst=inf");
  EXPECT_EQ(inf.max_burst, std::numeric_limits<std::size_t>::max());
  const AdversaryParams b = parse_adversary_spec("budget:12:0.5:burst=2");
  EXPECT_EQ(b.max_omissions, 12u);
  EXPECT_DOUBLE_EQ(b.rate, 0.5);
  EXPECT_EQ(b.max_burst, 2u);
}

TEST(ParseAdversarySpec, RejectsMalformedSpecs) {
  for (const char* bad : {"warp", "uo:2.0", "no", "budget", "budget:x",
                          "uo:0.1:7", "uo:-1", "budget:1000:0.3:42",
                          "no1:0.1:7", "no:5:0.2:9", "budget:2.5",
                          "budget:1e300", "no:1e300", "uo:0.1:burst=0",
                          "uo:0.1:burst=x", "uo:0.1:burst=",
                          "uo:0.1:burst=-1", "uo:0.1:burst=+2"}) {
    EXPECT_THROW((void)parse_adversary_spec(bad), std::invalid_argument)
        << bad;
  }
}

TEST(AdversaryKindName, NamesAllKinds) {
  EXPECT_EQ(adversary_kind_name(AdversaryKind::UO), "uo");
  EXPECT_EQ(adversary_kind_name(AdversaryKind::NO), "no");
  EXPECT_EQ(adversary_kind_name(AdversaryKind::NO1), "no1");
  EXPECT_EQ(adversary_kind_name(AdversaryKind::Budget), "budget");
}

}  // namespace
}  // namespace ppfs
