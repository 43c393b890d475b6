// The n = 10^9 overflow audit: standard workloads built through the
// count-vector path (registry initial_counts + make_engine_from_counts,
// and exp::run_replica on top of it) must run on the auto engine's round
// face with every intermediate —
// pair weights C[s]*(C[r]-1) ~ 10^18, T = n(n-1), round-length and
// hypergeometric draws — staying inside u64. CI runs this file under
// UBSan, so a silent signed/unsigned overflow anywhere on the path is a
// test failure, not a wrong sample.
#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/batch/dispatch.hpp"
#include "exp/scenario.hpp"
#include "protocols/registry.hpp"

namespace ppfs {
namespace {

constexpr std::size_t kBillion = 1'000'000'000;

std::size_t sum(const std::vector<std::size_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::size_t{0});
}

template <class W>
std::vector<std::size_t> histogram(const W& w) {
  std::vector<std::size_t> h(w.protocol->num_states(), 0);
  for (const State q : w.initial) ++h.at(q);
  return h;
}

TEST(RoundBigN, RegistryCarriesCountsAboveThePerAgentLimit) {
  // Every workload carries counts at every n. Above kPerAgentLimit they
  // are the only form — a per-agent vector at 10^9 would allocate
  // gigabytes in the registry.
  for (const Workload& w : standard_workloads(kBillion)) {
    EXPECT_TRUE(w.initial.empty()) << w.name;
    ASSERT_FALSE(w.initial_counts.empty()) << w.name;
    EXPECT_EQ(sum(w.initial_counts), kBillion) << w.name;
  }
  for (const OneWayWorkload& w : one_way_workloads(kBillion)) {
    EXPECT_TRUE(w.initial.empty()) << w.name;
    ASSERT_FALSE(w.initial_counts.empty()) << w.name;
    EXPECT_EQ(sum(w.initial_counts), kBillion) << w.name;
  }
  // Below the limit the historical per-agent layout is untouched, and the
  // counts are its histogram.
  for (const Workload& w : standard_workloads(64)) {
    EXPECT_EQ(w.initial.size(), 64u) << w.name;
    EXPECT_EQ(w.initial_counts, histogram(w)) << w.name;
  }
  for (const OneWayWorkload& w : one_way_workloads(64)) {
    EXPECT_EQ(w.initial.size(), 64u) << w.name;
    EXPECT_EQ(w.initial_counts, histogram(w)) << w.name;
  }
}

exp::ScenarioSpec billion_spec(const std::string& grid) {
  const std::vector<exp::ScenarioSpec> points = exp::parse_grid(grid).expand();
  EXPECT_EQ(points.size(), 1u);
  return points.front();
}

TEST(RoundBigN, RunReplicaCoversItsStepsAtBillion) {
  // exp::run_replica builds batch and auto engines from the registry's
  // counts, so sweeps above kPerAgentLimit run.
  for (const std::string grid :
       {"beacon-or@n=1e9:model=IT:engine=auto:steps=2000000",
        "or@n=1e9:engine=batch:steps=1000000"}) {
    const exp::ScenarioSpec spec = billion_spec(grid);
    const exp::ReplicaResult r = exp::run_replica(spec, 0);
    EXPECT_FALSE(r.failed()) << grid << ": " << r.error;
    EXPECT_EQ(r.run.steps, spec.fixed_steps) << grid;
  }
}

TEST(RoundBigN, RunReplicaNamesTheCountsOnlyLimitForNative) {
  for (const std::string grid :
       {"or@n=1e9:engine=native:steps=1000",
        "beacon-or@n=1e9:model=IT:engine=native:steps=1000"}) {
    try {
      (void)exp::run_replica(billion_spec(grid), 0);
      ADD_FAILURE() << grid << ": no error";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("kPerAgentLimit"), std::string::npos) << what;
      EXPECT_NE(what.find("engine=native"), std::string::npos) << what;
      EXPECT_EQ(what.find("empty population"), std::string::npos) << what;
    }
  }
}

TEST(RoundBigN, BeaconOrAtBillionRunsOnTheRoundFace) {
  const OneWayWorkload w =
      find_one_way_workload("beacon-or", kBillion, Model::IT);
  EngineConfig config;
  config.model = Model::IT;
  auto e = make_engine_from_counts("auto", w.protocol, w.initial_counts, config);
  UniformScheduler sched(kBillion);
  Rng rng(90001);
  // ~70 rounds at E[L] ~ sqrt(pi n)/2 ~ 28k: enough to cross many round
  // boundaries while staying a unit test.
  const std::size_t budget = 2'000'000;
  (void)run_engine_steps(*e, sched, rng, budget);
  EXPECT_EQ(e->interactions(), budget);
  EXPECT_EQ(e->kind(), "auto");
  // beacon-or is fully dense (every real delivery fires): the monitor
  // must be on the round face, or the dense speedup never materializes.
  EXPECT_EQ(e->active_kind(), "round");
  EXPECT_EQ(sum(e->counts()), kBillion);
}

TEST(RoundBigN, BeaconOrAtBillionUnderUOAdversary) {
  const Model model = omissive_closure(Model::IT);
  const OneWayWorkload w = find_one_way_workload("beacon-or", kBillion, model);
  EngineConfig config;
  config.model = model;
  AdversaryParams adv;
  adv.rate = 0.3;
  config.adversary = adv;
  auto e = make_engine_from_counts("auto", w.protocol, w.initial_counts, config);
  UniformScheduler sched(kBillion);
  Rng rng(90002);
  const std::size_t budget = 1'000'000;
  (void)run_engine_steps(*e, sched, rng, budget);
  EXPECT_EQ(e->interactions(), budget);
  EXPECT_EQ(sum(e->counts()), kBillion);
  // At rate 0.3 over 10^6 deliveries the omission count is ~3*10^5;
  // anywhere near zero or past the budget means the round split is off.
  EXPECT_GT(e->omissions(), budget / 5);
  EXPECT_LT(e->omissions(), budget / 2);
}

TEST(RoundBigN, BudgetAdversaryBoundHoldsAtBillion) {
  const Model model = omissive_closure(Model::IT);
  const OneWayWorkload w = find_one_way_workload("beacon-or", kBillion, model);
  EngineConfig config;
  config.model = model;
  AdversaryParams adv;
  adv.kind = AdversaryKind::Budget;
  adv.rate = 0.4;
  adv.max_omissions = 1000;
  config.adversary = adv;
  auto e = make_engine_from_counts("auto", w.protocol, w.initial_counts, config);
  UniformScheduler sched(kBillion);
  Rng rng(90003);
  (void)run_engine_steps(*e, sched, rng, 500'000);
  EXPECT_GT(e->omissions(), 0u);
  EXPECT_LE(e->omissions(), 1000u);
  EXPECT_EQ(sum(e->counts()), kBillion);
}

TEST(RoundBigN, TwoWayWorkloadAtBillionOnTheBatchEngine) {
  // The two-way counts path (no one-way lowering) through the plain batch
  // engine: or-epidemic at 10^9 leaps through its sparse tail without
  // touching a per-agent array.
  const Workload w = find_workload("or", kBillion);
  auto e = make_engine_from_counts("batch", w.protocol, w.initial_counts);
  UniformScheduler sched(kBillion);
  Rng rng(90004);
  (void)run_engine_steps(*e, sched, rng, 1'000'000);
  EXPECT_EQ(e->interactions(), 1'000'000u);
  EXPECT_EQ(sum(e->counts()), kBillion);
}

TEST(RoundBigN, NativeEngineRejectsTheCountsPath) {
  const Workload w = find_workload("or", kBillion);
  EXPECT_THROW(
      (void)make_engine_from_counts("native", w.protocol, w.initial_counts),
      std::invalid_argument);
}

}  // namespace
}  // namespace ppfs
