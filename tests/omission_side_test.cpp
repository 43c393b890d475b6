// Side-targeted omission adversaries in count space (ROADMAP open item 2):
// AdversaryParams carries an OmitSide, parse_adversary_spec accepts the
// "@starter|@reactor|@both" suffix, and the batch engine executes the
// matching OmitStarter / OmitReactor outcome class the RuleMatrix already
// compiles — instead of hard-coding OmitSide::Both. That native and batch
// agree in law under every side is checked by conformance_test.
#include <gtest/gtest.h>

#include <vector>

#include "core/rule_matrix.hpp"
#include "engine/batch/dispatch.hpp"
#include "protocols/registry.hpp"
#include "sched/omission_process.hpp"

namespace ppfs {
namespace {

using Counts = std::vector<std::size_t>;

TEST(AdversarySpec, ParsesSideSuffix) {
  EXPECT_EQ(parse_adversary_spec("uo").side, OmitSide::Both);
  EXPECT_EQ(parse_adversary_spec("uo@starter:0.2").side, OmitSide::Starter);
  EXPECT_EQ(parse_adversary_spec("uo@starter:0.2").rate, 0.2);
  EXPECT_EQ(parse_adversary_spec("budget@reactor:8").side, OmitSide::Reactor);
  EXPECT_EQ(parse_adversary_spec("budget@reactor:8").max_omissions, 8u);
  EXPECT_EQ(parse_adversary_spec("no1@both").side, OmitSide::Both);
  EXPECT_EQ(parse_adversary_spec("no@starter:1000:0.5").quiet_after, 1000u);
  EXPECT_THROW((void)parse_adversary_spec("uo@everyone"), std::invalid_argument);
}

TEST(OmissionClass, SideMapsToCompiledClass) {
  EXPECT_EQ(omission_class_for(Model::T2, OmitSide::Both),
            InteractionClass::OmitBoth);
  EXPECT_EQ(omission_class_for(Model::T2, OmitSide::Starter),
            InteractionClass::OmitStarter);
  EXPECT_EQ(omission_class_for(Model::T3, OmitSide::Reactor),
            InteractionClass::OmitReactor);
  // One-way transmission has no side distinction.
  EXPECT_EQ(omission_class_for(Model::I3, OmitSide::Starter),
            InteractionClass::OmitBoth);
  EXPECT_THROW((void)omission_class_for(Model::TW, OmitSide::Both),
               std::invalid_argument);

  auto p = standard_workloads(6)[0].protocol;
  const RuleMatrix m = RuleMatrix::compile(p, Model::T3);
  for (const OmitSide side :
       {OmitSide::Both, OmitSide::Starter, OmitSide::Reactor}) {
    Interaction ia{0, 1, true, side};
    EXPECT_EQ(m.omission_class(side), m.classify(ia));
  }
}

TEST(OmissionSide, BatchHonorsStarterSideOutcomes) {
  // Identity protocol with a sentinel-valued o: under T2 a starter-side
  // (or both-sides) omission maps state A to S, while a reactor-side
  // omission leaves everything unchanged (h = id is forced below T3). The
  // sentinel can therefore only appear if the batch engine really selects
  // the side-targeted outcome class.
  ProtocolBuilder b("mark");
  const State A = b.add_state("A", -1, true);
  (void)b.add_state("B", -1, true);
  const State S = b.add_state("S");
  auto p = b.build();

  EngineConfig config;
  config.model = Model::T2;
  config.fns.o = [A, S](State q) { return q == A ? S : q; };
  AdversaryParams adv;
  adv.kind = AdversaryKind::UO;
  adv.rate = 0.5;

  const std::vector<State> init = {A, A, A, 1, 1, 1};
  for (const OmitSide side : {OmitSide::Starter, OmitSide::Reactor}) {
    adv.side = side;
    config.adversary = adv;
    auto engine = make_engine("batch", p, init, config);
    UniformScheduler sched(init.size());
    Rng rng(7);
    (void)run_engine_steps(*engine, sched, rng, 400);
    const Counts counts = engine->counts();
    EXPECT_GT(engine->omissions(), 0u);
    if (side == OmitSide::Starter) {
      EXPECT_GT(counts[S], 0u) << "starter-side omissions must mark";
    } else {
      EXPECT_EQ(counts[S], 0u) << "reactor-side omissions must not mark";
    }
  }
}

}  // namespace
}  // namespace ppfs
