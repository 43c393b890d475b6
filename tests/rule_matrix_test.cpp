// RuleMatrix: one compiled encoding of the transition relations of
// §2.2–2.3, checked class by class against the definitions, plus the
// ModelCaps validation of the designer omission-reaction functions.
#include "core/rule_matrix.hpp"

#include <gtest/gtest.h>

#include "engine/batch/dispatch.hpp"
#include "engine/native.hpp"
#include "protocols/majority.hpp"
#include "protocols/oneway.hpp"
#include "test_protocol_gen.hpp"

namespace ppfs {
namespace {

using ppfs::testing::as_fn;
using ppfs::testing::random_one_way_protocol;
using ppfs::testing::random_protocol;
using ppfs::testing::random_unary;

TEST(RuleMatrix, TwRealEqualsDeltaAndRejectsOmissions) {
  auto p = make_exact_majority();
  const RuleMatrix m = RuleMatrix::compile(p, Model::TW);
  EXPECT_EQ(m.model(), Model::TW);
  EXPECT_FALSE(m.omissive());
  for (State s = 0; s < p->num_states(); ++s)
    for (State r = 0; r < p->num_states(); ++r)
      EXPECT_EQ(m.outcome(InteractionClass::Real, s, r), p->delta(s, r));
  EXPECT_THROW((void)m.classify(Interaction{0, 1, true}), std::invalid_argument);
  EXPECT_EQ(m.classify(Interaction{0, 1, false}), InteractionClass::Real);
}

TEST(RuleMatrix, TwoWayOmissiveClassesMatchTheTRelations) {
  Rng meta(11);
  const std::size_t q = 4;
  auto p = random_protocol(q, meta);
  const auto o = random_unary(q, meta);
  const auto h = random_unary(q, meta);

  // T1: o = h = id by definition (the caps reject supplying them).
  const RuleMatrix t1 = RuleMatrix::compile(p, Model::T1);
  // T2: free o, h = id.
  const RuleMatrix t2 = RuleMatrix::compile(p, Model::T2, {as_fn(o), nullptr});
  // T3: free o and h.
  const RuleMatrix t3 = RuleMatrix::compile(p, Model::T3, {as_fn(o), as_fn(h)});

  for (State s = 0; s < q; ++s) {
    for (State r = 0; r < q; ++r) {
      const StatePair d = p->delta(s, r);
      // T1: {(fs,fr), (s,fr), (fs,r), (s,r)}.
      EXPECT_EQ(t1.outcome(InteractionClass::Real, s, r), d);
      EXPECT_EQ(t1.outcome(InteractionClass::OmitStarter, s, r),
                (StatePair{s, d.reactor}));
      EXPECT_EQ(t1.outcome(InteractionClass::OmitReactor, s, r),
                (StatePair{d.starter, r}));
      EXPECT_EQ(t1.outcome(InteractionClass::OmitBoth, s, r), (StatePair{s, r}));
      // T2: {(fs,fr), (o,fr), (fs,r), (o,r)}.
      EXPECT_EQ(t2.outcome(InteractionClass::OmitStarter, s, r),
                (StatePair{o[s], d.reactor}));
      EXPECT_EQ(t2.outcome(InteractionClass::OmitReactor, s, r),
                (StatePair{d.starter, r}));
      EXPECT_EQ(t2.outcome(InteractionClass::OmitBoth, s, r),
                (StatePair{o[s], r}));
      // T3: {(fs,fr), (o,fr), (fs,h), (o,h)}.
      EXPECT_EQ(t3.outcome(InteractionClass::OmitStarter, s, r),
                (StatePair{o[s], d.reactor}));
      EXPECT_EQ(t3.outcome(InteractionClass::OmitReactor, s, r),
                (StatePair{d.starter, h[r]}));
      EXPECT_EQ(t3.outcome(InteractionClass::OmitBoth, s, r),
                (StatePair{o[s], h[r]}));
    }
  }

  // Side classification for two-way models.
  EXPECT_EQ(t3.classify(Interaction{0, 1, true, OmitSide::Starter}),
            InteractionClass::OmitStarter);
  EXPECT_EQ(t3.classify(Interaction{0, 1, true, OmitSide::Reactor}),
            InteractionClass::OmitReactor);
  EXPECT_EQ(t3.classify(Interaction{0, 1, true, OmitSide::Both}),
            InteractionClass::OmitBoth);
}

TEST(RuleMatrix, OneWayOmissiveClassesMatchTheIRelations) {
  Rng meta(12);
  const std::size_t q = 5;
  auto p = random_one_way_protocol(q, meta, /*io=*/false);
  const auto o = random_unary(q, meta);
  const auto h = random_unary(q, meta);
  std::vector<State> init(6, 0);

  const RuleMatrix i1 = RuleMatrix::compile(p, Model::I1, init);
  const RuleMatrix i2 = RuleMatrix::compile(p, Model::I2, init);
  const RuleMatrix i3 = RuleMatrix::compile(p, Model::I3, init, {nullptr, as_fn(h)});
  const RuleMatrix i4 = RuleMatrix::compile(p, Model::I4, init, {as_fn(o), nullptr});

  for (State s = 0; s < q; ++s) {
    for (State r = 0; r < q; ++r) {
      const StatePair real{p->g(s), p->f(s, r)};
      for (const RuleMatrix* m : {&i1, &i2, &i3, &i4})
        EXPECT_EQ(m->outcome(InteractionClass::Real, s, r), real);
      EXPECT_EQ(i1.outcome(InteractionClass::OmitBoth, s, r),
                (StatePair{p->g(s), r}));
      EXPECT_EQ(i2.outcome(InteractionClass::OmitBoth, s, r),
                (StatePair{p->g(s), p->g(r)}));
      EXPECT_EQ(i3.outcome(InteractionClass::OmitBoth, s, r),
                (StatePair{p->g(s), h[r]}));
      EXPECT_EQ(i4.outcome(InteractionClass::OmitBoth, s, r),
                (StatePair{o[s], p->g(r)}));
      // One-way models have no side distinction.
      for (const OmitSide side :
           {OmitSide::Both, OmitSide::Starter, OmitSide::Reactor}) {
        EXPECT_EQ(i3.classify(Interaction{0, 1, true, side}),
                  InteractionClass::OmitBoth);
      }
    }
  }
}

TEST(RuleMatrix, CapsValidationRejectsUnusableFns) {
  Rng meta(13);
  auto p2 = random_protocol(3, meta);
  auto p1 = random_one_way_protocol(3, meta, /*io=*/false);
  const auto id = [](State s) { return s; };
  std::vector<State> init(4, 0);

  // T1 detects nothing; T2 has no reactor detection.
  EXPECT_THROW((void)RuleMatrix::compile(p2, Model::T1, {id, nullptr}),
               std::invalid_argument);
  EXPECT_THROW((void)RuleMatrix::compile(p2, Model::T1, {nullptr, id}),
               std::invalid_argument);
  EXPECT_THROW((void)RuleMatrix::compile(p2, Model::T2, {nullptr, id}),
               std::invalid_argument);
  // I1/I2 detect nothing; I3 has no starter detection; I4 no reactor one.
  for (Model m : {Model::I1, Model::I2, Model::I3})
    EXPECT_THROW((void)RuleMatrix::compile(p1, m, init, {id, nullptr}),
                 std::invalid_argument);
  for (Model m : {Model::I1, Model::I2, Model::I4})
    EXPECT_THROW((void)RuleMatrix::compile(p1, m, init, {nullptr, id}),
                 std::invalid_argument);
  // The capable models accept them.
  EXPECT_NO_THROW((void)RuleMatrix::compile(p2, Model::T3, {id, id}));
  EXPECT_NO_THROW((void)RuleMatrix::compile(p1, Model::I3, init, {nullptr, id}));
  EXPECT_NO_THROW((void)RuleMatrix::compile(p1, Model::I4, init, {id, nullptr}));
}

TEST(RuleMatrix, OneWayModelsRequireTheItShape) {
  // Exact majority mutates the starter depending on the reactor: no IT
  // shape, so one-way models reject it...
  EXPECT_THROW((void)RuleMatrix::compile(make_exact_majority(), Model::IT),
               std::invalid_argument);
  // ...while an IT-shaped two-way lowering compiles and matches (g, f).
  auto ow = make_it_or_with_beacon();
  auto lowered = lower_to_two_way(*ow, {0});
  const RuleMatrix m = RuleMatrix::compile(lowered, Model::IT);
  for (State s = 0; s < ow->num_states(); ++s)
    for (State r = 0; r < ow->num_states(); ++r)
      EXPECT_EQ(m.outcome(InteractionClass::Real, s, r),
                (StatePair{ow->g(s), ow->f(s, r)}));
  // IO additionally requires g = id.
  EXPECT_THROW((void)RuleMatrix::compile(lowered, Model::IO),
               std::invalid_argument);
  EXPECT_THROW((void)RuleMatrix::compile(ow, Model::IO, {0}),
               std::invalid_argument);
  // A one-way protocol cannot run under a two-way model directly.
  EXPECT_THROW((void)RuleMatrix::compile(ow, Model::TW, {0}),
               std::invalid_argument);
}

TEST(RuleMatrix, OmissiveClosureLiftsNonOmissiveModels) {
  EXPECT_EQ(omissive_closure(Model::TW), Model::T1);
  EXPECT_EQ(omissive_closure(Model::IT), Model::I1);
  EXPECT_EQ(omissive_closure(Model::IO), Model::I1);
  for (Model m : {Model::T1, Model::T2, Model::T3, Model::I1, Model::I2,
                  Model::I3, Model::I4})
    EXPECT_EQ(omissive_closure(m), m);
  // The lift makes omissions executable and harmless for IO protocols:
  // I1 with g = id has only no-op omissive outcomes.
  auto p = make_io_or();
  const RuleMatrix m =
      RuleMatrix::compile(p, omissive_closure(Model::IO), {0, 1});
  for (State s = 0; s < p->num_states(); ++s)
    for (State r = 0; r < p->num_states(); ++r)
      EXPECT_TRUE(m.is_noop(InteractionClass::OmitBoth, s, r));
}

TEST(InteractionSystemRules, SharedSemanticsWithNativeEngine) {
  // The dispatch native engine and a hand-built InteractionSystem agree
  // interaction by interaction (same RuleMatrix underneath).
  auto p = make_it_or_with_beacon();
  EngineConfig config;
  config.model = Model::I2;
  auto engine = make_engine("native", p, {0, 2, 1}, config);
  InteractionSystem raw(RuleMatrix::compile(p, Model::I2, {0, 2, 1}),
                        {0, 2, 1});
  const std::vector<Interaction> script = {
      {0, 1, false}, {1, 2, true}, {2, 0, false}, {0, 2, true}};
  ScriptedScheduler sched(script, nullptr);
  Rng rng(1);
  for (const Interaction& ia : script) {
    (void)engine->advance(1, sched, rng);
    raw.interact(ia);
    EXPECT_EQ(engine->counts(), raw.population().counts());
  }
  EXPECT_EQ(raw.omissions(), 2u);
  EXPECT_EQ(engine->omissions(), 2u);
}

}  // namespace
}  // namespace ppfs
