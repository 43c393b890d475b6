#include "engine/native.hpp"

#include <gtest/gtest.h>

#include "engine/batch/dispatch.hpp"
#include "engine/runner.hpp"
#include "engine/workload_runner.hpp"
#include "protocols/logic.hpp"
#include "protocols/oneway.hpp"
#include "protocols/pairing.hpp"
#include "protocols/registry.hpp"

namespace ppfs {
namespace {

// A per-agent system for a native one-way protocol under `model`, with
// designer o/h functions validated by RuleMatrix::compile.
InteractionSystem one_way(std::shared_ptr<const OneWayProtocol> p, Model model,
                          const std::vector<State>& initial,
                          const ModelFns& fns = {}) {
  return InteractionSystem(RuleMatrix::compile(std::move(p), model, initial, fns),
                           initial);
}

TEST(InteractionSystem, AppliesDelta) {
  InteractionSystem sys(RuleMatrix::compile(make_pairing_protocol(), Model::TW),
                        make_initial({{0, 1}, {1, 1}}));
  sys.interact(Interaction{0, 1, false});  // (c,p) -> (cs, bot)
  const auto st = pairing_states();
  EXPECT_EQ(sys.state(0), st.critical);
  EXPECT_EQ(sys.state(1), st.bottom);
  EXPECT_EQ(sys.steps(), 1u);
}

TEST(InteractionSystem, TwRejectsOmissions) {
  InteractionSystem sys(RuleMatrix::compile(make_or_protocol(), Model::TW),
                        {0, 1});
  EXPECT_THROW(sys.interact(Interaction{0, 1, true}), std::invalid_argument);
}

TEST(NativeEngine, RunEngineUntilConvergesOr) {
  auto e = make_engine("native", make_or_protocol(), {1, 0, 0, 0, 0, 0});
  UniformScheduler sched(6);
  Rng rng(1);
  const auto res = run_engine_until(
      *e, sched, rng, [](const std::vector<std::size_t>& counts,
                         const Protocol& p) {
        return counts_consensus_output(counts, p) == 1;
      });
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(e->consensus_output(), 1);
}

TEST(RunSteps, CountsOmissions) {
  // run_steps against a one-way system that accepts omissions.
  InteractionSystem sys = one_way(make_io_or(), Model::I1, {0, 1});
  ScriptedScheduler sched({{0, 1, true}, {0, 1, false}, {1, 0, true}}, nullptr);
  Rng rng(2);
  const auto res = run_steps(sys, sched, rng, 3);
  EXPECT_EQ(res.steps, 3u);
  EXPECT_EQ(res.omissions, 2u);
}

TEST(OneWayInteraction, IoReactorOnly) {
  InteractionSystem sys = one_way(make_io_or(), Model::IO, {1, 0});
  sys.interact(Interaction{0, 1, false});
  EXPECT_EQ(sys.state(0), 1u);  // starter untouched
  EXPECT_EQ(sys.state(1), 1u);  // reactor computed OR
}

TEST(OneWayInteraction, RejectsNonIoProtocolUnderIo) {
  EXPECT_THROW((void)one_way(make_it_or_with_beacon(), Model::IO, {0, 0}),
               std::invalid_argument);
}

TEST(OneWayInteraction, ItAppliesG) {
  auto p = make_it_or_with_beacon();
  InteractionSystem sys = one_way(p, Model::IT, {0, 0});
  sys.interact(Interaction{0, 1, false});
  EXPECT_EQ(sys.state(0), p->g(0));  // beacon phase flipped
}

TEST(OneWayInteraction, RejectsTwoWayModel) {
  EXPECT_THROW((void)one_way(make_io_or(), Model::TW, {0, 0}),
               std::invalid_argument);
}

TEST(OneWayInteraction, OmissionSemanticsI1) {
  // I1: (g(as), ar) — reactor untouched.
  InteractionSystem sys = one_way(make_io_or(), Model::I1, {1, 0});
  sys.interact(Interaction{0, 1, true});
  EXPECT_EQ(sys.state(1), 0u);
}

TEST(OneWayInteraction, OmissionSemanticsI2AppliesGToBoth) {
  auto p = make_it_or_with_beacon();
  InteractionSystem sys = one_way(p, Model::I2, {0, 0});
  sys.interact(Interaction{0, 1, true});
  EXPECT_EQ(sys.state(0), p->g(0));
  EXPECT_EQ(sys.state(1), p->g(0));
}

TEST(OneWayInteraction, OmissionSemanticsI3UsesH) {
  ModelFns fns;
  fns.h = [](State) { return State{1}; };  // h: mark
  InteractionSystem sys = one_way(make_io_or(), Model::I3, {1, 0}, fns);
  sys.interact(Interaction{0, 1, true});
  EXPECT_EQ(sys.state(1), 1u);
}

TEST(OneWayInteraction, OmissionSemanticsI4UsesO) {
  ModelFns fns;
  fns.o = [](State) { return State{1}; };  // o: mark
  InteractionSystem sys = one_way(make_io_or(), Model::I4, {0, 1}, fns);
  sys.interact(Interaction{0, 1, true});
  EXPECT_EQ(sys.state(0), 1u);  // starter detected
  EXPECT_EQ(sys.state(1), 1u);  // reactor applied g = id
}

TEST(OneWayInteraction, DetectionFnsGatedByCaps) {
  // I1 detects omissions on neither side: RuleMatrix::compile rejects
  // both designer functions.
  ModelFns h_only;
  h_only.h = [](State s) { return s; };
  ModelFns o_only;
  o_only.o = [](State s) { return s; };
  EXPECT_THROW((void)RuleMatrix::compile(make_io_or(), Model::I1, {0, 0}, h_only),
               std::invalid_argument);
  EXPECT_THROW((void)RuleMatrix::compile(make_io_or(), Model::I1, {0, 0}, o_only),
               std::invalid_argument);
}

TEST(OneWayInteraction, RejectsOmissionInNonOmissiveModel) {
  InteractionSystem sys = one_way(make_io_or(), Model::IO, {0, 0});
  EXPECT_THROW(sys.interact(Interaction{0, 1, true}), std::invalid_argument);
}

TEST(OneWayInteraction, IoOrConvergesUnderUniform) {
  const std::size_t n = 12;
  std::vector<State> init(n, 0);
  init[3] = 1;
  InteractionSystem sys = one_way(make_io_or(), Model::IO, init);
  UniformScheduler sched(n);
  Rng rng(3);
  const auto res = run_until(
      sys, sched, rng,
      [](const InteractionSystem& s) { return s.consensus_output() == 1; });
  EXPECT_TRUE(res.converged);
}

TEST(OneWayInteraction, IoLeaderElectsExactlyOne) {
  const std::size_t n = 9;
  InteractionSystem sys =
      one_way(make_io_leader(), Model::IO, std::vector<State>(n, 0));
  UniformScheduler sched(n);
  Rng rng(4);
  const auto res = run_until(sys, sched, rng, [](const InteractionSystem& s) {
    std::size_t leaders = 0;
    for (State q : s.states())
      if (q == 0) ++leaders;
    return leaders == 1;
  });
  EXPECT_TRUE(res.converged);
}

TEST(OneWayInteraction, IoMaxSpreadsMaximum) {
  InteractionSystem sys = one_way(make_io_max(6), Model::IO, {0, 2, 5, 1, 3});
  UniformScheduler sched(5);
  Rng rng(5);
  const auto res = run_until(sys, sched, rng, [](const InteractionSystem& s) {
    return s.consensus_output() == 5;
  });
  EXPECT_TRUE(res.converged);
}

// The reference for run_native_workload: a per-agent InteractionSystem
// under the uniform scheduler with Rng(seed), run by the step-wise
// run_until loop.
RunResult raw_native_run(const Workload& w, std::uint64_t seed,
                         const RunOptions& opt) {
  InteractionSystem sys(RuleMatrix::compile(w.protocol, Model::TW), w.initial);
  UniformScheduler sched(w.initial.size());
  Rng rng(seed);
  const auto probe = workload_counts_probe(w);
  return run_until(
      sys, sched, rng,
      [&](const InteractionSystem& s) {
        return probe(s.population().counts(), *w.protocol);
      },
      opt);
}

TEST(RunNativeWorkload, MatchesHandWrittenInteractionSystemLoop) {
  struct Case {
    const char* workload;
    std::size_t n;
    std::uint64_t seed;
    RunOptions opt;
  };
  RunOptions fast;
  fast.check_every = 64;
  RunOptions slices = fast;  // leader election needs many probe slices
  RunOptions capped;         // a budget short of convergence, off-cadence
  capped.max_steps = 1'000;
  capped.check_every = 96;
  const std::vector<Case> cases = {{"or", 32, 5, fast},
                                   {"leader", 24, 9, slices},
                                   {"leader", 64, 9, capped}};
  for (const Case& c : cases) {
    const Workload w = find_workload(c.workload, c.n);
    const RunResult got = run_native_workload(w, c.seed, c.opt);
    const RunResult want = raw_native_run(w, c.seed, c.opt);
    EXPECT_EQ(got.steps, want.steps) << w.name;
    EXPECT_EQ(got.converged, want.converged) << w.name;
    EXPECT_EQ(got.omissions, want.omissions) << w.name;
    EXPECT_EQ(got.omissions, 0u) << w.name;
  }
  // The cases cover what they claim: leader election converges only after
  // several probe slices, and the capped run stops short of convergence.
  const RunResult leader =
      run_native_workload(find_workload("leader", 24), 9, slices);
  EXPECT_TRUE(leader.converged);
  EXPECT_GT(leader.steps, 4 * slices.check_every);
  const RunResult short_run =
      run_native_workload(find_workload("leader", 64), 9, capped);
  EXPECT_FALSE(short_run.converged);
  EXPECT_EQ(short_run.steps, capped.max_steps);
}

}  // namespace
}  // namespace ppfs
