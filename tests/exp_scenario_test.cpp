#include "exp/scenario.hpp"

#include <gtest/gtest.h>

#include "exp/aggregate.hpp"

namespace ppfs::exp {
namespace {

TEST(ParseGrid, IssueExampleParses) {
  const ScenarioGrid g = parse_grid(
      "exact-majority@n=1e6:model=T3:adv=budget:1000:engine=batch:trials=64");
  ASSERT_EQ(g.workloads, std::vector<std::string>{"exact-majority"});
  ASSERT_EQ(g.sizes, std::vector<std::size_t>{1'000'000});
  ASSERT_EQ(g.models, std::vector<std::string>{"T3"});
  ASSERT_EQ(g.adversaries, std::vector<std::string>{"budget:1000"});
  ASSERT_EQ(g.engines, std::vector<std::string>{"batch"});
  EXPECT_EQ(g.trials, 64u);
}

TEST(ParseGrid, WorkloadsOnlyKeepsDefaults) {
  const ScenarioGrid g = parse_grid("or,and");
  EXPECT_EQ(g.workloads, (std::vector<std::string>{"or", "and"}));
  EXPECT_EQ(g.points(), 2u);
}

TEST(ParseGrid, MultiAxisCrossProduct) {
  const ScenarioGrid g = parse_grid(
      "or,max@n=100,200:model=IO,IT:engine=native:adv=none,uo:0.2:trials=3");
  EXPECT_EQ(g.points(), 2u * 2 * 2 * 2);
  const auto points = g.expand();
  ASSERT_EQ(points.size(), 16u);
  // Documented axis order: workload -> n -> model -> adversary -> sim ->
  // engine, innermost last.
  EXPECT_EQ(points[0].workload, "or");
  EXPECT_EQ(points[0].n, 100u);
  EXPECT_EQ(points[0].model, Model::IO);
  EXPECT_EQ(points[0].adversary, "none");
  EXPECT_EQ(points[1].adversary, "uo:0.2");
  EXPECT_EQ(points[2].model, Model::IT);
  EXPECT_EQ(points[4].n, 200u);
  EXPECT_EQ(points[8].workload, "max");
  for (const ScenarioSpec& p : points) EXPECT_EQ(p.trials, 3u);
}

TEST(ParseGrid, ColonContinuationRejoinsAdversaryAndSimSpecs) {
  const ScenarioGrid g =
      parse_grid("or@adv=budget:1000:burst=4:sim=skno:o=2:engine=batch");
  ASSERT_EQ(g.adversaries, std::vector<std::string>{"budget:1000:burst=4"});
  ASSERT_EQ(g.sims, std::vector<std::string>{"skno:o=2"});
}

TEST(ParseGrid, ScalarKeysAndProbe) {
  const ScenarioGrid g = parse_grid(
      "pairing@steps=5000:maxsteps=9000:checkevery=128:stable=1:"
      "probe=activation:verify=1:seed=99");
  EXPECT_EQ(g.fixed_steps, 5000u);
  EXPECT_EQ(g.max_steps, 9000u);
  EXPECT_EQ(g.check_every, 128u);
  EXPECT_EQ(g.stable_checks, 1u);
  EXPECT_EQ(g.probe, "activation");
  EXPECT_TRUE(g.verify_matching);
  EXPECT_EQ(g.seed, 99u);
}

TEST(ParseGrid, RejectsMalformedInput) {
  EXPECT_THROW((void)parse_grid(""), std::invalid_argument);
  EXPECT_THROW((void)parse_grid("or,@n=8"), std::invalid_argument);
  EXPECT_THROW((void)parse_grid("or@bogus"), std::invalid_argument);
  EXPECT_THROW((void)parse_grid("or@model=XX"), std::invalid_argument);
  EXPECT_THROW((void)parse_grid("or@n=abc"), std::invalid_argument);
  EXPECT_THROW((void)parse_grid("or@n=1.5"), std::invalid_argument);
  EXPECT_THROW((void)parse_grid("or@trials=0"), std::invalid_argument);
  EXPECT_THROW((void)parse_grid("or@probe=sometimes"), std::invalid_argument);
  EXPECT_THROW((void)parse_grid("or@adv=zap"), std::invalid_argument);
  EXPECT_THROW((void)parse_grid("or@sim=zap"), std::invalid_argument);
}

TEST(ParseGrid, RejectsUnknownWorkloadsAndSmallPopulations) {
  // Caught by name at parse time, against the registry the replica would
  // resolve, instead of failing one replica per point x trial.
  EXPECT_THROW((void)parse_grid("foo@n=10"), std::invalid_argument);
  EXPECT_THROW((void)parse_grid("foo"), std::invalid_argument);
  EXPECT_THROW((void)parse_grid("or,foo@n=10"), std::invalid_argument);
  EXPECT_THROW((void)parse_grid("or@n=3"), std::invalid_argument);
  EXPECT_THROW((void)parse_grid("or@n=10,3"), std::invalid_argument);
  // Direct one-way runs resolve the one-way registry (max, beacon-or), and
  // IO still forbids g != id; every other point the two-way registry.
  EXPECT_NO_THROW((void)parse_grid("max,beacon-or@n=10:model=IT"));
  EXPECT_THROW((void)parse_grid("beacon-or@n=10:model=IO"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_grid("max@n=10"), std::invalid_argument);
  EXPECT_THROW((void)parse_grid("max@n=10:model=IT:sim=skno:o=1"),
               std::invalid_argument);
  EXPECT_NO_THROW((void)parse_grid("pairing@n=10:model=I3:sim=skno:o=1"));
}

TEST(ScenarioSpec, ToStringRoundTripsThroughParser) {
  ScenarioSpec spec;
  spec.workload = "exact-majority";
  spec.n = 1000;
  spec.engine = "batch";
  spec.model = Model::T3;
  spec.adversary = "budget:1000";
  spec.trials = 8;
  spec.seed = 7;
  spec.check_every = 512;
  const auto points = parse_grid(spec.to_string()).expand();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].workload, spec.workload);
  EXPECT_EQ(points[0].n, spec.n);
  EXPECT_EQ(points[0].model, spec.model);
  EXPECT_EQ(points[0].adversary, spec.adversary);
  EXPECT_EQ(points[0].engine, spec.engine);
  EXPECT_EQ(points[0].trials, spec.trials);
  EXPECT_EQ(points[0].seed, spec.seed);
  EXPECT_EQ(points[0].check_every, spec.check_every);
  EXPECT_EQ(points[0].to_string(), spec.to_string());
}

TEST(ScenarioSpec, PointKeyIgnoresTrialsAndSeed) {
  ScenarioSpec a;
  a.workload = "or";
  a.trials = 8;
  a.seed = 1;
  ScenarioSpec b = a;
  b.trials = 64;
  b.seed = 1;
  EXPECT_EQ(a.point_key(), b.point_key());
  // The seed enters the stream key directly, not through the point key.
  b.seed = 2;
  EXPECT_EQ(a.point_key(), b.point_key());
  EXPECT_NE(a.point_seed(), b.point_seed());
}

TEST(ScenarioSpec, DistinctPointsGetDistinctStreamSeeds) {
  ScenarioSpec a;
  a.workload = "or";
  ScenarioSpec b = a;
  b.n = a.n + 1;
  ScenarioSpec c = a;
  c.engine = "native";
  EXPECT_NE(a.point_seed(), b.point_seed());
  EXPECT_NE(a.point_seed(), c.point_seed());
}

TEST(ResolveModel, SimulatorDefaultsApply) {
  ScenarioSpec s;
  EXPECT_EQ(resolve_model(s), Model::TW);
  s.sim = "skno:o=2";
  EXPECT_EQ(resolve_model(s), Model::I3);
  s.sim = "sid";
  EXPECT_EQ(resolve_model(s), Model::IO);
  s.model = Model::T1;
  EXPECT_EQ(resolve_model(s), Model::T1);
}

TEST(RunReplica, SameTrialIsBitIdentical) {
  ScenarioSpec spec;
  spec.workload = "exact-majority";
  spec.n = 100;
  spec.engine = "batch";
  spec.check_every = 256;
  const ReplicaResult a = run_replica(spec, 3);
  const ReplicaResult b = run_replica(spec, 3);
  EXPECT_EQ(a.run.steps, b.run.steps);
  EXPECT_EQ(a.run.converged, b.run.converged);
  EXPECT_EQ(a.run.omissions, b.run.omissions);
  EXPECT_EQ(a.convergence_step, b.convergence_step);
  EXPECT_EQ(a.fires, b.fires);
  EXPECT_EQ(a.noops, b.noops);
  EXPECT_EQ(a.extras, b.extras);
}

TEST(RunReplica, DistinctTrialsProduceDistinctRuns) {
  ScenarioSpec spec;
  spec.workload = "exact-majority";
  spec.n = 100;
  spec.engine = "batch";
  spec.check_every = 256;
  bool any_different = false;
  const ReplicaResult first = run_replica(spec, 0);
  for (std::size_t t = 1; t < 6 && !any_different; ++t) {
    const ReplicaResult r = run_replica(spec, t);
    any_different = r.run.steps != first.run.steps || r.fires != first.fires;
  }
  EXPECT_TRUE(any_different);
}

TEST(RunReplica, RejectsInvalidSpecs) {
  ScenarioSpec spec;
  spec.n = 3;
  EXPECT_THROW((void)run_replica(spec, 0), std::invalid_argument);
  spec.n = 16;
  spec.workload = "no-such-workload";
  EXPECT_THROW((void)run_replica(spec, 0), std::invalid_argument);
  spec.workload = "or";
  spec.probe = "activation";  // needs the native naming simulator
  EXPECT_THROW((void)run_replica(spec, 0), std::invalid_argument);
}

TEST(RunReplica, OneWayModelsResolveTheOneWayRegistry) {
  ScenarioSpec spec;
  spec.workload = "or";
  spec.n = 16;
  spec.engine = "batch";
  spec.model = Model::IO;
  const ReplicaResult r = run_replica(spec, 0);
  EXPECT_TRUE(r.run.converged);
}

TEST(ParseGrid, EngineAutoIsAnAxisValue) {
  const ScenarioGrid g = parse_grid("or@n=16:engine=native,batch,auto:sim=sid");
  ASSERT_EQ(g.engines,
            (std::vector<std::string>{"native", "batch", "auto"}));
  EXPECT_THROW((void)parse_grid("or@engine=warp"), std::invalid_argument);
}

TEST(RunReplica, EngineAutoRunsSimPoints) {
  // engine=auto through the replica runner: deterministic per (point,
  // trial), and the auto gauges surface in extras alongside the rest of
  // the registry.
  ScenarioSpec spec;
  spec.workload = "exact-majority";
  spec.n = 24;
  spec.engine = "auto";
  spec.sim = "sid";
  spec.fixed_steps = 4000;
  spec.metrics_every = 1000;
  const ReplicaResult a = run_replica(spec, 1);
  const ReplicaResult b = run_replica(spec, 1);
  EXPECT_EQ(a.run.steps, 4000u);
  EXPECT_EQ(a.fires, b.fires);
  EXPECT_EQ(a.extras, b.extras);
  // SID disperses fully from step 0: auto must be running agent space.
  ASSERT_TRUE(a.extras.count("m.auto.agent_space"));
  EXPECT_EQ(a.extras.at("m.auto.agent_space"), 1.0);
}

TEST(RunReplica, FixedStepsRunsExactlyThatManyInteractions) {
  ScenarioSpec spec;
  spec.workload = "or";
  spec.n = 16;
  spec.engine = "native";
  spec.fixed_steps = 1234;
  const ReplicaResult r = run_replica(spec, 0);
  EXPECT_EQ(r.run.steps, 1234u);
  EXPECT_FALSE(r.run.converged);
}

TEST(RunReplica, AdversaryLiftsNonOmissiveSimModelsOnEveryEngine) {
  // sid's default model IO and naive on TW have no omissions; an adversary
  // runs them on the omissive closure, on the step-wise native replica as
  // on the count-space engines.
  for (const char* sim : {"sid", "naive"}) {
    for (const char* engine : {"native", "batch"}) {
      ScenarioSpec spec;
      spec.workload = "or";
      spec.n = 16;
      spec.sim = sim;
      if (std::string(sim) == "naive") spec.model = Model::TW;
      spec.adversary = "uo:0.2";
      spec.engine = engine;
      spec.fixed_steps = 2000;
      const ReplicaResult r = run_replica(spec, 0);
      EXPECT_EQ(r.run.steps, 2000u) << sim << " on " << engine;
      EXPECT_GT(r.run.omissions, 0u) << sim << " on " << engine;
    }
  }
}

TEST(AggregateStats, QuantilesAreExactNearestRank) {
  AggregateStats a;
  for (const std::uint64_t steps : {50u, 10u, 40u, 20u, 30u}) {
    ReplicaResult r;
    r.run.steps = steps;
    r.run.converged = true;
    r.convergence_step = steps;
    a.add(r);
  }
  EXPECT_EQ(a.interactions_quantile(0.0), 10u);
  EXPECT_EQ(a.interactions_quantile(0.5), 30u);
  EXPECT_EQ(a.interactions_quantile(0.9), 50u);
  EXPECT_EQ(a.interactions_quantile(1.0), 50u);
  EXPECT_EQ(a.interaction_samples(),
            (std::vector<std::uint64_t>{10, 20, 30, 40, 50}));
  EXPECT_DOUBLE_EQ(a.interactions().mean(), 30.0);
}

TEST(AggregateStats, FailedReplicasAreExcludedFromDistributions) {
  AggregateStats a;
  ReplicaResult ok;
  ok.run.steps = 100;
  ok.run.converged = true;
  a.add(ok);
  ReplicaResult bad;
  bad.error = "boom";
  bad.run.steps = 999999;  // must not leak into the samples
  a.add(bad);
  EXPECT_EQ(a.trials(), 2u);
  EXPECT_EQ(a.failed(), 1u);
  EXPECT_EQ(a.completed(), 1u);
  EXPECT_EQ(a.converged(), 1u);
  EXPECT_DOUBLE_EQ(a.convergence_rate(), 1.0);
  EXPECT_EQ(a.interaction_samples().size(), 1u);
}

// The satellite requirement: merge is associative and order-insensitive.
TEST(AggregateStats, MergeIsAssociativeAndOrderInsensitive) {
  // Integer-valued metrics make every floating sum exact, so equality is
  // bitwise, not approximate.
  std::vector<ReplicaResult> replicas;
  for (std::size_t i = 0; i < 6; ++i) {
    ReplicaResult r;
    r.run.steps = 1000 * (i + 1);
    r.run.converged = i % 2 == 0;
    r.run.omissions = 7 * i;
    r.convergence_step = r.run.converged ? 900 * (i + 1)
                                         : RunStats::kNoConvergence;
    r.fires = 13 * i;
    r.noops = 29 * i;
    r.omissive_fires = i;
    r.extras["max_bits"] = static_cast<double>(10 + i);
    if (i % 2 == 1) r.extras["rollbacks"] = static_cast<double>(3 * i);
    replicas.push_back(r);
  }

  const auto fold = [&](std::vector<std::size_t> order,
                        std::size_t split_at) {
    AggregateStats left, right;
    for (std::size_t k = 0; k < order.size(); ++k)
      (k < split_at ? left : right).add(replicas[order[k]]);
    left.merge(right);
    return left;
  };

  const AggregateStats base = fold({0, 1, 2, 3, 4, 5}, 3);
  // Different split points (associativity over the grouping).
  EXPECT_EQ(base.fingerprint(), fold({0, 1, 2, 3, 4, 5}, 1).fingerprint());
  EXPECT_EQ(base.fingerprint(), fold({0, 1, 2, 3, 4, 5}, 5).fingerprint());
  // Different permutations (order-insensitivity).
  EXPECT_EQ(base.fingerprint(), fold({5, 4, 3, 2, 1, 0}, 3).fingerprint());
  EXPECT_EQ(base.fingerprint(), fold({2, 0, 4, 1, 5, 3}, 2).fingerprint());
  EXPECT_EQ(base, fold({3, 1, 4, 0, 5, 2}, 4));

  // Merging an empty aggregate on either side is the identity.
  AggregateStats empty;
  AggregateStats copy = base;
  copy.merge(empty);
  EXPECT_EQ(copy.fingerprint(), base.fingerprint());
  AggregateStats lhs_empty;
  lhs_empty.merge(base);
  EXPECT_EQ(lhs_empty.fingerprint(), base.fingerprint());
}

}  // namespace
}  // namespace ppfs::exp
