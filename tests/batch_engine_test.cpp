#include "engine/batch/batch_system.hpp"

#include <gtest/gtest.h>

#include "engine/batch/dispatch.hpp"
#include "engine/workload_runner.hpp"
#include "protocols/logic.hpp"
#include "protocols/majority.hpp"
#include "protocols/registry.hpp"

namespace ppfs {
namespace {

TEST(BatchSystem, SilentConfigurationConsumesWholeBudget) {
  // All agents already agree: every OR interaction is a no-op.
  BatchSystem sys(make_or_protocol(), std::vector<State>(100, 1));
  EXPECT_TRUE(sys.silent());
  Rng rng(1);
  const BatchDelta d = sys.advance(1'000'000, rng);
  EXPECT_EQ(d.interactions, 1'000'000u);
  EXPECT_EQ(d.noops, 1'000'000u);
  EXPECT_FALSE(d.fired);
  EXPECT_EQ(sys.steps(), 1'000'000u);
  EXPECT_EQ(sys.stats().noops(), 1'000'000u);
}

TEST(BatchSystem, AdvanceFiresExactlyOneRule) {
  // or: one 1 among 0s; the only count-changing rules move 0s to 1.
  BatchSystem sys(make_or_protocol(), {1, 0, 0, 0});
  Rng rng(2);
  const BatchDelta d = sys.advance(1'000'000, rng);
  EXPECT_TRUE(d.fired);
  EXPECT_EQ(d.interactions, d.noops + 1);
  EXPECT_EQ(sys.counts()[1], 2u);
  EXPECT_EQ(sys.stats().total_fires(), 1u);
}

TEST(BatchSystem, BudgetTruncatesBatch) {
  BatchSystem sys(make_or_protocol(), {1, 0, 0, 0});
  Rng rng(3);
  std::size_t covered = 0;
  while (covered < 50) covered += sys.advance(50 - covered, rng).interactions;
  EXPECT_EQ(covered, 50u);
  EXPECT_EQ(sys.steps(), 50u);
  EXPECT_EQ(sys.stats().interactions(), 50u);
}

TEST(BatchSystem, ConvergesOnOrEpidemic) {
  const std::size_t n = 1000;
  std::vector<State> init(n, 0);
  init[0] = 1;
  BatchSystem sys(make_or_protocol(), init);
  Rng rng(4);
  while (!sys.silent()) (void)sys.advance(1 << 20, rng);
  EXPECT_EQ(sys.counts()[1], n);
  EXPECT_EQ(sys.consensus_output(), 1);
  // Exactly n-1 conversions were needed.
  EXPECT_EQ(sys.stats().total_fires(), n - 1);
}

TEST(BatchSystem, ExactMajorityConvergesToMajorityOpinion) {
  const std::size_t n = 10'000;
  const auto st = exact_majority_states();
  auto init = make_initial({{st.big_x, n / 2 + 50}, {st.big_y, n / 2 - 50}});
  BatchSystem sys(make_exact_majority(), init);
  Rng rng(5);
  for (int batches = 0; batches < 10'000'000 && !sys.silent(); ++batches)
    (void)sys.advance(1 << 22, rng);
  EXPECT_TRUE(sys.silent());
  EXPECT_EQ(sys.consensus_output(), 1);  // majority was X
  EXPECT_EQ(sys.counts()[st.big_y], 0u);
  EXPECT_EQ(sys.counts()[st.y], 0u);
}

TEST(BatchSystem, StepMatchesAdvanceAccounting) {
  BatchSystem sys(make_and_protocol(), {0, 1, 1, 1});
  Rng rng(6);
  for (int i = 0; i < 100; ++i) (void)sys.step(rng);
  EXPECT_EQ(sys.steps(), 100u);
  EXPECT_EQ(sys.stats().interactions(), 100u);
}

TEST(BatchSystem, RejectsSingletonPopulations) {
  EXPECT_THROW(BatchSystem(make_or_protocol(), {1}), std::invalid_argument);
}

// --- EngineDispatch facade --------------------------------------------------

TEST(EngineDispatch, KindsAndFactory) {
  EXPECT_EQ(engine_kinds(),
            (std::vector<std::string>{"native", "batch", "auto"}));
  EXPECT_THROW((void)make_engine("warp", make_or_protocol(), {0, 1}),
               std::invalid_argument);
  for (const auto& kind : engine_kinds()) {
    auto e = make_engine(kind, make_or_protocol(), {0, 1, 1});
    EXPECT_EQ(e->kind(), kind);
    EXPECT_EQ(e->size(), 3u);
    EXPECT_EQ(e->counts(), (std::vector<std::size_t>{1, 2}));
    EXPECT_EQ(e->interactions(), 0u);
  }
}

TEST(EngineDispatch, BatchRefusesNonUniformSchedulers) {
  auto e = make_engine("batch", make_or_protocol(), {0, 1, 0, 1});
  ScriptedScheduler scripted({{0, 1, false}}, nullptr);
  Rng rng(7);
  EXPECT_THROW((void)e->advance(1, scripted, rng), std::invalid_argument);
  // The native engine accepts any scheduler.
  auto nat = make_engine("native", make_or_protocol(), {0, 1, 0, 1});
  EXPECT_EQ(nat->advance(1, scripted, rng), 1u);
}

TEST(EngineDispatch, NativeRecordsTraceBatchRefuses) {
  auto nat = make_engine("native", make_or_protocol(), {0, 1, 0, 1});
  auto bat = make_engine("batch", make_or_protocol(), {0, 1, 0, 1});
  Trace trace;
  EXPECT_TRUE(nat->record_trace(&trace));
  EXPECT_FALSE(bat->record_trace(&trace));
  UniformScheduler sched(4);
  Rng rng(8);
  (void)nat->advance(25, sched, rng);
  EXPECT_EQ(trace.size(), 25u);
  // The recorded trace replays to the same configuration.
  InteractionSystem replayed(RuleMatrix::compile(make_or_protocol(), Model::TW),
                             {0, 1, 0, 1});
  trace.replay(replayed);
  EXPECT_EQ(replayed.population().counts(), nat->counts());
}

TEST(EngineDispatch, RunEngineStepsDrivesExactCount) {
  for (const auto& kind : engine_kinds()) {
    auto e = make_engine(kind, make_or_protocol(), {1, 0, 0, 0, 0});
    UniformScheduler sched(5);
    Rng rng(9);
    const RunResult res = run_engine_steps(*e, sched, rng, 12'345);
    EXPECT_EQ(res.steps, 12'345u);
    EXPECT_EQ(e->interactions(), 12'345u);
    EXPECT_EQ(e->stats().interactions(), 12'345u);
  }
}

TEST(EngineDispatch, RunEngineUntilConvergesBothEngines) {
  for (const auto& kind : engine_kinds()) {
    const Workload w = standard_workloads(64)[0];  // or-epidemic
    auto e = make_engine(kind, w.protocol, w.initial);
    UniformScheduler sched(64);
    Rng rng(10);
    const RunResult res =
        run_engine_until(*e, sched, rng, workload_counts_probe(w));
    EXPECT_TRUE(res.converged) << kind;
    EXPECT_EQ(e->consensus_output(), 1) << kind;
    // Convergence tracking saw the probe hold at or before the end.
    EXPECT_LE(e->stats().convergence_step(), e->interactions()) << kind;
  }
}

TEST(EngineDispatch, RunWorkloadWithEngineAllRegistryWorkloads) {
  for (const auto& kind : engine_kinds()) {
    for (const Workload& w : standard_workloads(32)) {
      RunOptions opt;
      opt.max_steps = 5'000'000;
      RunStats stats;
      const RunResult res = run_workload_with_engine(kind, w, 11, opt, &stats);
      EXPECT_TRUE(res.converged) << kind << " on " << w.name;
      EXPECT_EQ(stats.interactions(), res.steps) << kind << " on " << w.name;
    }
  }
}

TEST(EngineDispatch, NativeEngineMatchesRawInteractionSystem) {
  // Same scheduler + rng seed => identical interaction sequence, so the
  // facade must land in exactly the configuration the raw loop produces.
  const Workload w = standard_workloads(16)[3];  // exact majority
  auto e = make_engine("native", w.protocol, w.initial);
  UniformScheduler sched_a(16);
  Rng rng_a(12);
  (void)e->advance(5'000, sched_a, rng_a);

  InteractionSystem raw(RuleMatrix::compile(w.protocol, Model::TW), w.initial);
  UniformScheduler sched_b(16);
  Rng rng_b(12);
  for (std::size_t i = 0; i < 5'000; ++i) raw.interact(sched_b.next(rng_b, i));
  EXPECT_EQ(e->counts(), raw.population().counts());
}

TEST(EngineDispatch, StatsFiresPlusNoopsEqualInteractions) {
  for (const auto& kind : engine_kinds()) {
    auto e = make_engine(kind, make_exact_majority(),
                         make_initial({{0, 20}, {1, 20}}));
    UniformScheduler sched(40);
    Rng rng(13);
    (void)run_engine_steps(*e, sched, rng, 10'000);
    const RunStats& st = e->stats();
    EXPECT_EQ(st.total_fires() + st.noops(), 10'000u) << kind;
    EXPECT_GT(st.total_fires(), 0u) << kind;
  }
}

}  // namespace
}  // namespace ppfs
