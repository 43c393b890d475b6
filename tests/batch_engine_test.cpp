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

// engine=batch is the count face pinned: with and without a budget
// adversary, its checkpoint is byte for byte that of the raw system driven
// by the same Rng and advance() budgets, after the same number of draws —
// so pinned runs checkpoint and resume exactly as the system does. The
// 100'000 budget exceeds every internal slice an adaptive engine would cut.
const std::size_t kPinnedBudgets[] = {1, 7, 1000, 4096, 100'000, 3};

template <class System>
std::string drive_raw(System& sys, std::uint64_t seed) {
  Rng rng(seed);
  for (const std::size_t budget : kPinnedBudgets) {
    std::size_t covered = 0;
    while (covered < budget)
      covered += sys.advance(budget - covered, rng).interactions;
  }
  bin::Writer w;
  sys.save_state(w);
  w.var(rng.draw_count());
  return w.data();
}

std::string drive_engine(Engine& engine, std::uint64_t seed) {
  Rng rng(seed);
  UniformScheduler sched(engine.size());
  for (const std::size_t budget : kPinnedBudgets)
    EXPECT_EQ(engine.advance(budget, sched, rng), budget);
  bin::Writer w;
  engine.save_state(w);
  w.var(rng.draw_count());
  return w.data();
}

TEST(EngineDispatch, PinnedBatchSavesTheRawBatchSystemBytes) {
  // n = 1000 is far from converged after the budgets: a silent
  // configuration leaps draw-free and would hide a re-drawn leap.
  const Workload w = find_workload("exact-majority", 1000);
  for (const std::string spec : {"none", "budget:40"}) {
    const AdversaryParams adv = parse_adversary_spec(spec);
    EngineConfig config;
    if (adv.rate > 0.0) config.adversary = adv;
    auto engine = make_engine("batch", w.protocol, w.initial, config);
    EXPECT_EQ(engine->kind(), "batch");
    const Model model = config.adversary ? omissive_closure(Model::TW)
                                         : Model::TW;
    BatchSystem raw(RuleMatrix::compile(w.protocol, model), w.initial_counts);
    if (config.adversary) raw.set_omission_process(adv);
    EXPECT_EQ(drive_engine(*engine, 6101), drive_raw(raw, 6101)) << spec;
    EXPECT_EQ(engine->omissions() > 0, config.adversary.has_value()) << spec;
  }
}

TEST(EngineDispatch, PinnedSimBatchSavesTheRawSimBatchSystemBytes) {
  // SKnO (the sim-count path) fires on almost every delivery. The naive
  // wrapper over leader election leaps: its last two leaders meet once per
  // ~n^2/2 = 45'000 deliveries, so a slice boundary (clamp(16n, 2^12,
  // 2^16) = 4'800 under auto) would cut a leap and re-draw it.
  const std::size_t n = 300;
  const Workload w = find_workload("leader", n);
  const std::pair<const char*, Model> sims[] = {{"skno:o=2", Model::I3},
                                                {"naive", Model::T1}};
  for (const auto& [sim_spec, model] : sims) {
    const SimSpec sim = parse_sim_spec(sim_spec);
    for (const std::string spec : {"none", "budget:40:0.05"}) {
      const AdversaryParams adv = parse_adversary_spec(spec);
      SimEngineConfig config;
      if (adv.rate > 0.0) config.adversary = adv;
      auto engine = make_sim_engine(
          "batch", make_sim_rule_source(sim, model, w.protocol, n), w.initial,
          config);
      EXPECT_EQ(engine->kind(), "batch");
      std::optional<OmissionProcess> omit;
      SimBatchSystem raw(make_sim_rule_source(sim, model, w.protocol, n),
                         w.initial);
      if (config.adversary) raw.lend_omission_process(omit.emplace(adv));
      EXPECT_EQ(drive_engine(*engine, 6201), drive_raw(raw, 6201))
          << sim_spec << " " << spec;
      EXPECT_EQ(engine->omissions() > 0, config.adversary.has_value())
          << sim_spec << " " << spec;
    }
  }
}

}  // namespace
}  // namespace ppfs
