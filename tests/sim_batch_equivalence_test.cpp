// Deterministic-seed regression pin of the count-space simulator's
// integer-only step() path (SimBatchSystem::step): interning, samplers,
// omission process and the SKnO core must reproduce golden values exactly
// on every platform. That the sim engines realize the step-wise law is
// checked by conformance_test.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "engine/batch/sim_batch_system.hpp"
#include "protocols/pairing.hpp"
#include "sched/omission_process.hpp"
#include "sim/sim_rules.hpp"

namespace ppfs {
namespace {

using Counts = std::vector<std::size_t>;

AdversaryParams budget_adv(std::size_t budget, double rate) {
  AdversaryParams p;
  p.kind = AdversaryKind::Budget;
  p.max_omissions = budget;
  p.rate = rate;
  return p;
}

TEST(SimBatchEquivalence, DeterministicSeedRegression) {
  // Pin the integer-only reference path (SimBatchSystem::step draws ids
  // from CountIndex inverse-CDF scans and the omission process; no
  // floating-point leap sampling), so a behavior change in the interning,
  // the samplers or the SKnO core shows up as an exact mismatch on every
  // platform.
  auto p = make_pairing_protocol();
  const auto st = pairing_states();
  const std::size_t n = 6;
  std::vector<State> init(n, st.consumer);
  init[0] = init[1] = st.producer;
  auto rules = std::make_shared<SknoRuleSource>(p, Model::I3, 1);
  OmissionProcess omit(budget_adv(3, 0.25));
  SimBatchSystem sys(rules, init);
  sys.lend_omission_process(omit);
  Rng rng(20260730);
  for (int i = 0; i < 600; ++i) (void)sys.step(rng);
  EXPECT_EQ(sys.steps(), 600u);
  // Golden values pinned from the first run (seed 20260730). The step()
  // path draws only integers from the deterministic xoshiro stream (plus
  // one uniform()-vs-rate compare per step), so these are identical on
  // every platform; a mismatch means the interning, the draw order, or
  // the SKnO value-level core changed behavior.
  const Counts expected = {2, 0, 2, 2};  // c, p, cs, bot
  EXPECT_EQ(sys.projected_counts(), expected);
  EXPECT_EQ(sys.omissions(), 3u);
  EXPECT_EQ(sys.universe_live(), 6u);
  EXPECT_EQ(sys.stats().total_fires(), 441u);
  EXPECT_EQ(sys.stats().noops(), 159u);
  const Counts proj = sys.projected_counts();
  EXPECT_EQ(std::accumulate(proj.begin(), proj.end(), std::size_t{0}), n);
}

}  // namespace
}  // namespace ppfs
