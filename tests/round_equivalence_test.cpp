// Distribution-exactness of the round-dense face (round_system.hpp):
// chi-square homogeneity of final configurations under the round driver
// against the sequential batch drivers, across (model, adversary) cells.
//
// The reference driver per cell is the one whose omission semantics the
// round face must reproduce: BatchSystem::advance for unbounded bursts
// (the leap path treats max_burst as unbounded), BatchSystem::step for
// the capped-burst cells (step delegates to should_omit, and
// sample_round_omissions reproduces the same burst-cap Markov chain). Where
// an adversary is on, the omissions-delivered count joins the outcome
// category, so the chi-square also pins the round face's omission
// stream, not just its count moves.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "chi_square.hpp"
#include "engine/batch/batch_system.hpp"
#include "engine/batch/dispatch.hpp"
#include "engine/batch/round_system.hpp"
#include "engine/workload_runner.hpp"
#include "protocols/registry.hpp"

namespace ppfs {
namespace {

using Counts = std::vector<std::size_t>;

enum class Face { Leap, Round, Step };

using SysFactory = std::function<BatchSystem()>;

std::vector<std::size_t> counts_of(const std::vector<State>& init,
                                   std::size_t q) {
  std::vector<std::size_t> counts(q, 0);
  for (const State s : init) ++counts[s];
  return counts;
}

std::map<Counts, std::size_t> face_distribution(const SysFactory& make,
                                                Face face,
                                                std::size_t interactions,
                                                std::size_t trials,
                                                std::uint64_t seed,
                                                bool with_omissions) {
  std::map<Counts, std::size_t> dist;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    Rng rng(seed + trial * 7919);
    BatchSystem sys = make();
    std::size_t covered = 0;
    if (face == Face::Round) {
      RoundSystem round(sys);
      while (covered < interactions)
        covered += round.advance(interactions - covered, rng).interactions;
    } else if (face == Face::Leap) {
      while (covered < interactions)
        covered += sys.advance(interactions - covered, rng).interactions;
    } else {
      for (; covered < interactions; ++covered) (void)sys.step(rng);
    }
    // Budget truncation must be exact — never overshoot, never stall.
    EXPECT_EQ(covered, interactions);
    EXPECT_EQ(sys.steps(), interactions);
    Counts key = sys.counts();
    if (with_omissions) key.push_back(sys.omissions());
    ++dist[key];
  }
  return dist;
}

void expect_round_matches(const SysFactory& make, Face reference,
                          std::size_t interactions, std::size_t trials,
                          std::uint64_t seed, bool with_omissions,
                          const std::string& label) {
  const auto ref = face_distribution(make, reference, interactions, trials,
                                     seed, with_omissions);
  const auto round = face_distribution(make, Face::Round, interactions, trials,
                                       seed + 1, with_omissions);
  const auto [stat, df] = testing::chi_square_homogeneity(ref, round, trials, trials);
  EXPECT_LE(stat, testing::chi_square_limit(df))
      << label << ": chi2=" << stat << " df=" << df;
}

// Cell 1 — the dense flagship, no adversary: beacon-or under IT (every
// real delivery fires, rounds run at full length).
TEST(RoundEquivalence, BeaconOrUnderITPlain) {
  const std::size_t n = 48;
  const OneWayWorkload w = find_one_way_workload("beacon-or", n, Model::IT);
  const SysFactory make = [&w] {
    RuleMatrix rules = RuleMatrix::compile(w.protocol, Model::IT, w.initial);
    auto counts = counts_of(w.initial, rules.num_states());
    return BatchSystem(std::move(rules), std::move(counts));
  };
  expect_round_matches(make, Face::Leap, 3 * n, 140, 8100, false,
                       "beacon-or IT");
}

// Cell 2 — one-way omissive: beacon-or lifted to I1 with a hot UO
// adversary, unbounded bursts (the leap reference's semantics).
TEST(RoundEquivalence, BeaconOrUnderI1WithUnboundedUO) {
  const std::size_t n = 48;
  const Model model = omissive_closure(Model::IT);
  const OneWayWorkload w = find_one_way_workload("beacon-or", n, model);
  AdversaryParams adv;
  adv.rate = 0.35;
  adv.max_burst = std::numeric_limits<std::size_t>::max();
  const SysFactory make = [&w, model, adv] {
    RuleMatrix rules = RuleMatrix::compile(w.protocol, model, w.initial);
    auto counts = counts_of(w.initial, rules.num_states());
    BatchSystem sys(std::move(rules), std::move(counts));
    sys.set_omission_process(adv);
    return sys;
  };
  expect_round_matches(make, Face::Leap, 3 * n, 140, 8200, true,
                       "beacon-or I1 uo:0.35");
}

// Cell 3 — capped-burst adversary: the round face's omission tally must
// reproduce the burst-cap Markov chain, so the reference is the exact
// per-interaction step path (the only sequential driver honoring
// max_burst).
TEST(RoundEquivalence, TwoWayOrUnderT1WithCappedBurstUO) {
  const std::size_t n = 16;
  const Workload w = find_workload("or", n);
  AdversaryParams adv;
  adv.rate = 0.5;
  adv.max_burst = 2;
  const SysFactory make = [&w, adv] {
    RuleMatrix rules = RuleMatrix::compile(w.protocol, Model::T1);
    auto counts = counts_of(w.initial, rules.num_states());
    BatchSystem sys(std::move(rules), std::move(counts));
    sys.set_omission_process(adv);
    return sys;
  };
  expect_round_matches(make, Face::Step, 3 * n, 150, 8300, true,
                       "or T1 uo:0.5 burst=2");
}

// Cell 3b — the benchmark's adversary: uo:0.1 with the default cap of 8.
// Long runs (9 consecutive rate coins) are rare in every round here, so
// sample_round_omissions counts each round from the coin coupling
// instead of walking it; the reference is again the exact step path.
TEST(RoundEquivalence, BeaconOrUnderI1WithDefaultCappedUO) {
  const std::size_t n = 48;
  const Model model = omissive_closure(Model::IT);
  const OneWayWorkload w = find_one_way_workload("beacon-or", n, model);
  const AdversaryParams adv = parse_adversary_spec("uo:0.1");
  ASSERT_EQ(adv.max_burst, 8u);
  const SysFactory make = [&w, model, adv] {
    RuleMatrix rules = RuleMatrix::compile(w.protocol, model, w.initial);
    auto counts = counts_of(w.initial, rules.num_states());
    BatchSystem sys(std::move(rules), std::move(counts));
    sys.set_omission_process(adv);
    return sys;
  };
  expect_round_matches(make, Face::Step, 3 * n, 140, 8250, true,
                       "beacon-or I1 uo:0.1 burst=8");
}

// Cell 4 — NO quiet horizon falling mid-run: rounds that would cross the
// horizon must truncate exactly there, then resume omission-free.
TEST(RoundEquivalence, ExactMajorityUnderT1WithQuietHorizon) {
  const std::size_t n = 18;
  const Workload w = find_workload("exact-majority", n);
  AdversaryParams adv;
  adv.kind = AdversaryKind::NO;
  adv.rate = 0.4;
  adv.quiet_after = 30;
  adv.max_burst = std::numeric_limits<std::size_t>::max();
  const SysFactory make = [&w, adv] {
    RuleMatrix rules = RuleMatrix::compile(w.protocol, Model::T1);
    auto counts = counts_of(w.initial, rules.num_states());
    BatchSystem sys(std::move(rules), std::move(counts));
    sys.set_omission_process(adv);
    return sys;
  };
  expect_round_matches(make, Face::Leap, 3 * n, 150, 8400, true,
                       "exact-majority T1 no:30:0.4");
}

// Cell 5 — the public facade: the adaptive auto engine (which arbitrates
// leap and round faces mid-run) against the plain batch engine through
// make_engine, adversary attached by EngineDispatch. Whatever face mix
// auto picks, the run distribution must be the batch engine's.
TEST(RoundEquivalence, AutoEngineMatchesBatchEngineFacade) {
  const std::size_t n = 48;
  const Workload w = find_workload("or", n);
  AdversaryParams adv;
  adv.rate = 0.3;
  EngineConfig config;
  config.model = Model::T1;
  config.adversary = adv;
  auto dist = [&](const char* kind, std::uint64_t seed) {
    std::map<Counts, std::size_t> d;
    for (std::size_t trial = 0; trial < 140; ++trial) {
      Rng rng(seed + trial * 7919);
      auto e = make_engine(kind, w.protocol, w.initial, config);
      UniformScheduler sched(n);
      (void)run_engine_steps(*e, sched, rng, 2 * n);
      Counts key = e->counts();
      key.push_back(e->omissions());
      ++d[key];
    }
    return d;
  };
  const auto batch = dist("batch", 8500);
  const auto adaptive = dist("auto", 8501);
  const auto [stat, df] = testing::chi_square_homogeneity(batch, adaptive, 140, 140);
  EXPECT_LE(stat, testing::chi_square_limit(df))
      << "auto-vs-batch: chi2=" << stat << " df=" << df;
}

}  // namespace
}  // namespace ppfs
