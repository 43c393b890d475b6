// Unit tests for the open-universe abstraction (core/dynamic_rules.hpp)
// and the simulator rule sources (sim/sim_rules.hpp): interning and id
// recycling, the MatrixRuleSource adapter, and — the load-bearing property
// — deterministic LOCKSTEP equivalence between each step-wise simulator
// and its count-space rule source: driving the same interaction script
// through per-agent objects and through interned wrapper states must
// produce identical simulated projections at every step. (Distributional
// equivalence of the engines on top is covered by conformance_test.cpp.)
#include "sim/sim_rules.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "protocols/majority.hpp"
#include "protocols/pairing.hpp"
#include "protocols/registry.hpp"
#include "sched/scheduler.hpp"
#include "sim/naming.hpp"
#include "sim/sid.hpp"
#include "sim/skno.hpp"
#include "sim/tw_naive.hpp"
#include "util/rng.hpp"

namespace ppfs {
namespace {

TEST(StateUniverse, InternsDedupesAndRecycles) {
  StateUniverse u;
  const State a = u.intern("alpha");
  const State b = u.intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(u.intern("alpha"), a);
  EXPECT_EQ(u.encoding(b), "beta");
  EXPECT_EQ(u.live(), 2u);

  u.release(a);
  EXPECT_EQ(u.live(), 1u);
  EXPECT_FALSE(u.is_live(a));
  EXPECT_THROW((void)u.encoding(a), std::out_of_range);
  EXPECT_THROW(u.release(a), std::out_of_range);

  // The freed id is recycled for the next new encoding.
  const State c = u.intern("gamma");
  EXPECT_EQ(c, a);
  EXPECT_EQ(u.capacity(), 2u);
  // Re-interning the released encoding is a NEW state.
  const State a2 = u.intern("alpha");
  EXPECT_EQ(u.encoding(a2), "alpha");
  EXPECT_EQ(u.live(), 3u);
}

TEST(MatrixRuleSource, AdaptsCompiledRuleMatrix) {
  auto p = make_exact_majority();
  MatrixRuleSource src(RuleMatrix::compile(p, Model::T1));
  EXPECT_EQ(src.universe_size(), p->num_states());
  EXPECT_FALSE(src.open_universe());
  EXPECT_FALSE(src.real_noop_factors());
  for (State s = 0; s < p->num_states(); ++s) {
    EXPECT_EQ(src.project(s), s);
    for (State r = 0; r < p->num_states(); ++r) {
      EXPECT_EQ(src.outcome(InteractionClass::Real, s, r), p->delta(s, r));
      // T1: o = h = id, so an omission on both sides is a global no-op —
      // exactly the naive simulator's faulty outcome.
      EXPECT_EQ(src.outcome(InteractionClass::OmitBoth, s, r),
                (StatePair{s, r}));
    }
  }
}

TEST(SimSpecParsing, AcceptsTheFourSimulators) {
  EXPECT_EQ(parse_sim_spec("naive").kind, "naive");
  EXPECT_EQ(parse_sim_spec("sid").kind, "sid");
  EXPECT_EQ(parse_sim_spec("naming").kind, "naming");
  const SimSpec s = parse_sim_spec("skno:o=8");
  EXPECT_EQ(s.kind, "skno");
  EXPECT_EQ(s.omission_bound, 8u);
  EXPECT_EQ(parse_sim_spec("skno").omission_bound, 0u);
  EXPECT_THROW(parse_sim_spec("frobnicate"), std::invalid_argument);
  EXPECT_THROW(parse_sim_spec("skno:o=x"), std::invalid_argument);
  EXPECT_THROW(parse_sim_spec("sid:o=3"), std::invalid_argument);
  EXPECT_EQ(default_sim_model(parse_sim_spec("naive")), Model::TW);
  EXPECT_EQ(default_sim_model(parse_sim_spec("skno:o=2")), Model::I3);
  EXPECT_EQ(default_sim_model(parse_sim_spec("skno")), Model::IT);
  EXPECT_EQ(default_sim_model(parse_sim_spec("naming")), Model::IO);
}

// Drive the step-wise simulator and the rule source through the same
// interaction script; the per-agent wrapper ids must project to the
// step-wise simulated states after every interaction.
void expect_lockstep(Simulator& sim, DynamicRuleSource& rules, std::size_t n,
                     double omission_rate, std::uint64_t seed,
                     std::size_t steps) {
  std::vector<State> ids = rules.intern_initial(sim.initial_projection());
  ASSERT_EQ(ids.size(), n);
  Rng rng(seed);
  for (std::size_t i = 0; i < steps; ++i) {
    Interaction ia = uniform_ordered_pair(rng, n);
    if (omission_rate > 0.0 && rng.chance(omission_rate)) {
      ia.omissive = true;
      const std::uint64_t side = rng.below(3);
      ia.side = side == 0 ? OmitSide::Both
                          : side == 1 ? OmitSide::Starter : OmitSide::Reactor;
    }
    const InteractionClass c =
        ia.omissive ? omission_class_for(sim.model(), ia.side)
                    : InteractionClass::Real;
    sim.interact(ia);
    const StatePair out = rules.outcome(c, ids[ia.starter], ids[ia.reactor]);
    ids[ia.starter] = out.starter;
    ids[ia.reactor] = out.reactor;
    for (AgentId a = 0; a < n; ++a) {
      ASSERT_EQ(rules.project(ids[a]), sim.simulated_state(a))
          << "agent " << a << " diverged at step " << i;
    }
  }
}

TEST(SimRulesLockstep, SidMatchesStepwiseSimulator) {
  const std::size_t n = 8;
  const Workload w = standard_workloads(n)[3];  // exact-majority
  SidSimulator sim(w.protocol, Model::IO, w.initial);
  SidRuleSource rules(w.protocol, Model::IO, n);
  expect_lockstep(sim, rules, n, 0.0, 11, 4000);
}

TEST(SimRulesLockstep, SidIgnoresOmissionsUnderAnyModel) {
  const std::size_t n = 6;
  const Workload w = standard_workloads(n)[0];  // or
  SidSimulator sim(w.protocol, Model::T3, w.initial);
  SidRuleSource rules(w.protocol, Model::T3, n);
  EXPECT_TRUE(rules.omission_transparent());
  expect_lockstep(sim, rules, n, 0.3, 12, 4000);
}

TEST(SimRulesLockstep, NamingMatchesStepwiseSimulator) {
  const std::size_t n = 6;
  const Workload w = standard_workloads(n)[3];
  NamingSimulator sim(w.protocol, Model::IO, w.initial);
  NamingRuleSource rules(w.protocol, Model::IO, n);
  expect_lockstep(sim, rules, n, 0.0, 13, 6000);
}

TEST(SimRulesLockstep, SknoMatchesStepwiseSimulatorI3) {
  const std::size_t n = 6;
  auto p = make_pairing_protocol();
  const auto st = pairing_states();
  std::vector<State> init(n, st.consumer);
  init[0] = init[1] = init[2] = st.producer;
  SknoSimulator sim(p, Model::I3, 2, init);
  SknoRuleSource rules(p, Model::I3, 2);
  expect_lockstep(sim, rules, n, 0.15, 14, 4000);
}

TEST(SimRulesLockstep, SknoMatchesStepwiseSimulatorI4AndT3) {
  const std::size_t n = 6;
  const Workload w = standard_workloads(n)[3];
  {
    SknoSimulator sim(w.protocol, Model::I4, 1, w.initial);
    SknoRuleSource rules(w.protocol, Model::I4, 1);
    expect_lockstep(sim, rules, n, 0.2, 15, 3000);
  }
  {
    SknoSimulator sim(w.protocol, Model::T3, 1, w.initial);
    SknoRuleSource rules(w.protocol, Model::T3, 1);
    expect_lockstep(sim, rules, n, 0.2, 16, 3000);
  }
}

TEST(SknoRuleSource, FactoredNoopStructureHolds) {
  // The factored contract the sparse engine leaps by: a Real interaction
  // is a no-op iff the starter is silent (pending, empty queue) — checked
  // against the actual outcomes for states reached in a random run.
  const std::size_t n = 6;
  auto p = make_pairing_protocol();
  const auto st = pairing_states();
  std::vector<State> init(n, st.consumer);
  init[0] = st.producer;
  SknoRuleSource rules(p, Model::I3, 1);
  ASSERT_TRUE(rules.real_noop_factors());
  ASSERT_TRUE(rules.open_universe());
  std::vector<State> ids = rules.intern_initial(init);
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    const Interaction ia = uniform_ordered_pair(rng, n);
    // Verify the contract on the current pair before advancing.
    const bool silent = rules.starter_silent(ids[ia.starter]);
    const StatePair out =
        rules.outcome(InteractionClass::Real, ids[ia.starter], ids[ia.reactor]);
    const bool noop =
        out.starter == ids[ia.starter] && out.reactor == ids[ia.reactor];
    ASSERT_EQ(silent, noop) << "at step " << i;
    ids[ia.starter] = out.starter;
    ids[ia.reactor] = out.reactor;
  }
}

// Minimal protocol with an arbitrary state count (identity delta): only
// used to probe the token-packing limits of the SKnO encoding.
class WideProtocol final : public Protocol {
 public:
  explicit WideProtocol(std::size_t q) : q_(q), init_{0} {}
  [[nodiscard]] std::size_t num_states() const override { return q_; }
  [[nodiscard]] StatePair delta(State s, State r) const override {
    return {s, r};
  }
  [[nodiscard]] std::string name() const override { return "wide"; }
  [[nodiscard]] const std::vector<State>& initial_states() const override {
    return init_;
  }

 private:
  std::size_t q_;
  std::vector<State> init_;
};

TEST(SknoRuleSource, RejectsUnpackableParameters) {
  // The u32 token packing (kind 2 | q 12 | qr 12 | index 6) supports at
  // most 4094 simulated states (0xfff is the kNoState sentinel) and
  // omission bounds o <= 62 (run indices 1..o+1 in 6 bits). Construction
  // must reject out-of-range protocols loudly instead of silently
  // corrupting the packed fields.
  auto p = make_pairing_protocol();
  EXPECT_THROW(SknoRuleSource(p, Model::I3, 63), std::invalid_argument);
  EXPECT_NO_THROW(SknoRuleSource(p, Model::I3, 62));
  try {
    SknoRuleSource bad(p, Model::I3, 63);
    FAIL() << "o = 63 must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("o <= 62"), std::string::npos)
        << e.what();
  }

  EXPECT_NO_THROW(SknoRuleSource(std::make_shared<WideProtocol>(4094),
                                 Model::I3, 1));
  EXPECT_THROW(SknoRuleSource(std::make_shared<WideProtocol>(4095),
                              Model::I3, 1),
               std::invalid_argument);
  try {
    SknoRuleSource bad(std::make_shared<WideProtocol>(5000), Model::I3, 1);
    FAIL() << "num_states = 5000 must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("4094"), std::string::npos)
        << e.what();
  }
}

// Encode/patch/decode fuzz: random SKnO step sequences must yield
// byte-identical interned states whether successors are built through the
// patch API (header tweak + queue-slot edits via
// StateUniverse::intern_patched, g/receive caches on) or through full
// re-serialization of the stepped agent records. Covers every supported
// model, omissive draws with random sides, and several omission bounds.
TEST(SknoRuleSource, PatchAndFullSerializationAgreeByteForByte) {
  struct Case {
    Model model;
    std::size_t o;
    double omission_rate;
  };
  const Case cases[] = {
      {Model::I3, 2, 0.2},
      {Model::I3, 0, 0.3},
      {Model::I4, 1, 0.25},
      {Model::T3, 1, 0.25},
      {Model::IT, 0, 0.0},
  };
  const std::size_t n = 6;
  const Workload w = standard_workloads(n)[3];  // exact-majority
  int case_idx = 0;
  for (const Case& c : cases) {
    SknoRuleSource patched(w.protocol, c.model, c.o);
    SknoRuleSource full(w.protocol, c.model, c.o);
    full.set_use_patches(false);
    ASSERT_TRUE(patched.use_patches());
    std::vector<State> ids_p = patched.intern_initial(w.initial);
    std::vector<State> ids_f = full.intern_initial(w.initial);
    ASSERT_EQ(ids_p, ids_f);
    Rng rng(4242 + case_idx);
    for (int step = 0; step < 3000; ++step) {
      Interaction ia = uniform_ordered_pair(rng, n);
      InteractionClass cls = InteractionClass::Real;
      if (c.omission_rate > 0.0 && rng.chance(c.omission_rate)) {
        const std::uint64_t side = rng.below(3);
        cls = omission_class_for(
            c.model, side == 0 ? OmitSide::Both
                               : side == 1 ? OmitSide::Starter
                                           : OmitSide::Reactor);
      }
      const StatePair out_p =
          patched.outcome(cls, ids_p[ia.starter], ids_p[ia.reactor]);
      const StatePair out_f =
          full.outcome(cls, ids_f[ia.starter], ids_f[ia.reactor]);
      // No releases happen in this test, so new encodings are interned in
      // the same order on both sides: ids AND bytes must agree.
      ASSERT_EQ(out_p, out_f) << "case " << case_idx << " step " << step;
      ASSERT_EQ(patched.state_encoding(out_p.starter),
                full.state_encoding(out_f.starter))
          << "case " << case_idx << " step " << step;
      ASSERT_EQ(patched.state_encoding(out_p.reactor),
                full.state_encoding(out_f.reactor))
          << "case " << case_idx << " step " << step;
      ids_p[ia.starter] = out_p.starter;
      ids_p[ia.reactor] = out_p.reactor;
      ids_f[ia.starter] = out_f.starter;
      ids_f[ia.reactor] = out_f.reactor;
    }
    ++case_idx;
  }
}

// Generic encode/patch/decode fuzz: drive a patch-building source and a
// full-reserialization reference through the same interaction script; ids
// AND canonical bytes must agree at every step (no releases happen, so new
// encodings intern in the same order on both sides). Shared by the SID and
// naming suites below — the SKnO case above predates it and keeps its
// model/omission-bound matrix.
template <typename Source>
void expect_patch_matches_full(Source& patched, Source& full,
                               const std::vector<State>& initial, Model model,
                               double omission_rate, std::uint64_t seed,
                               int steps, const std::string& label) {
  full.set_use_patches(false);
  ASSERT_TRUE(patched.use_patches());
  ASSERT_FALSE(full.use_patches());
  std::vector<State> ids_p = patched.intern_initial(initial);
  std::vector<State> ids_f = full.intern_initial(initial);
  ASSERT_EQ(ids_p, ids_f);
  const std::size_t n = initial.size();
  Rng rng(seed);
  for (int step = 0; step < steps; ++step) {
    const Interaction ia = uniform_ordered_pair(rng, n);
    InteractionClass cls = InteractionClass::Real;
    if (omission_rate > 0.0 && rng.chance(omission_rate)) {
      const std::uint64_t side = rng.below(3);
      cls = omission_class_for(model, side == 0 ? OmitSide::Both
                                     : side == 1 ? OmitSide::Starter
                                                 : OmitSide::Reactor);
    }
    const StatePair out_p =
        patched.outcome(cls, ids_p[ia.starter], ids_p[ia.reactor]);
    const StatePair out_f =
        full.outcome(cls, ids_f[ia.starter], ids_f[ia.reactor]);
    ASSERT_EQ(out_p, out_f) << label << " step " << step;
    ASSERT_EQ(patched.state_encoding(out_p.starter),
              full.state_encoding(out_f.starter))
        << label << " step " << step;
    ASSERT_EQ(patched.state_encoding(out_p.reactor),
              full.state_encoding(out_f.reactor))
        << label << " step " << step;
    ids_p[ia.starter] = out_p.starter;
    ids_p[ia.reactor] = out_p.reactor;
    ids_f[ia.starter] = out_f.starter;
    ids_f[ia.reactor] = out_f.reactor;
  }
}

TEST(SidRuleSource, PatchAndFullSerializationAgreeByteForByte) {
  const std::size_t n = 8;
  const Workload w = standard_workloads(n)[3];  // exact-majority
  {
    // Fault-free IO: Pairing/Rollback/Lock/Complete all exercised.
    SidRuleSource patched(w.protocol, Model::IO, n);
    SidRuleSource full(w.protocol, Model::IO, n);
    expect_patch_matches_full(patched, full, w.initial, Model::IO, 0.0, 5150,
                              4000, "sid/IO");
  }
  {
    // Omissive T3: the omission classes route through the same patch
    // builder (SID is omission-transparent — faulty outcomes are
    // identities or plain one-sided reactions).
    SidRuleSource patched(w.protocol, Model::T3, n);
    SidRuleSource full(w.protocol, Model::T3, n);
    expect_patch_matches_full(patched, full, w.initial, Model::T3, 0.3, 5151,
                              4000, "sid/T3+om");
  }
}

TEST(NamingRuleSource, PatchAndFullSerializationAgreeByteForByte) {
  const std::size_t n = 6;
  const Workload w = standard_workloads(n)[3];
  {
    // The two-layer record: Nn head edits (my_id/max_id) compose with the
    // SID body footprint in one patched intern.
    NamingRuleSource patched(w.protocol, Model::IO, n);
    NamingRuleSource full(w.protocol, Model::IO, n);
    expect_patch_matches_full(patched, full, w.initial, Model::IO, 0.0, 5250,
                              6000, "naming/IO");
  }
  {
    NamingRuleSource patched(w.protocol, Model::T3, n);
    NamingRuleSource full(w.protocol, Model::T3, n);
    expect_patch_matches_full(patched, full, w.initial, Model::T3, 0.25, 5251,
                              6000, "naming/T3+om");
  }
}

TEST(StateUniverse, GrowthRehashDoesNotDuplicateTheTriggeringId) {
  // Regression: the intern that TRIGGERS a growth rehash used to assign
  // its encoding before the load-factor check, so rehash() re-placed the
  // brand-new id and the post-rehash place() inserted it a second time.
  // The duplicate slot outlived a later release(): the next probe whose
  // tag matched it dereferenced a dead id's null encoding (the engine=auto
  // SKnO bench segfault). Force the exact sequence deterministically: the
  // lazy table has 64 slots and grows when (full + tombstones + 1) * 8
  // exceeds 7/8 capacity, i.e. on the 57th insert with no tombstones.
  StateUniverse u;
  for (int i = 0; i < 56; ++i)
    (void)u.intern("pre" + std::to_string(i));
  ASSERT_EQ(u.live(), 56u);
  const State trigger = u.intern("trigger");  // takes the growth-rehash path
  ASSERT_EQ(u.live(), 57u);
  u.release(trigger);
  // Pre-fix: this probe walks "trigger"'s own path, matches the stale
  // duplicate slot first, and dereferences the released id's null slot.
  const State again = u.intern("trigger");
  ASSERT_TRUE(u.is_live(again));
  EXPECT_EQ(u.encoding(again), "trigger");
  EXPECT_EQ(u.live(), 57u);
  // The table must still dedup correctly after the episode.
  EXPECT_EQ(u.intern("trigger"), again);
  for (int i = 0; i < 56; ++i)
    EXPECT_EQ(u.encoding(u.intern("pre" + std::to_string(i))),
              "pre" + std::to_string(i));
  EXPECT_EQ(u.live(), 57u);
}

TEST(StateUniverse, ChurnStressMatchesReferenceModel) {
  // Randomized differential test of the group-probe interning table
  // (util/group_probe.hpp) against a plain map reference: heavy
  // intern/release churn over a deliberately small encoding alphabet so
  // dedup hits, tombstone reuse, id recycling and load-factor rehashes all
  // trigger many times, in both the SIMD and scalar probe configurations.
  StateUniverse u;
  std::map<std::string, State> by_enc;  // reference: live encoding -> id
  std::vector<std::pair<State, std::string>> live;  // flat view for sampling
  Rng rng(20260808);
  const char alphabet[] = {'a', 'b', 'c', 'd'};
  auto random_enc = [&] {
    std::string s;
    const std::size_t len = 1 + rng.below(8);
    for (std::size_t i = 0; i < len; ++i)
      s.push_back(alphabet[rng.below(4)]);
    return s;
  };
  for (int op = 0; op < 30000; ++op) {
    const std::uint64_t kind = rng.below(10);
    if (kind < 5 || live.empty()) {
      // Intern a random encoding: dedupes onto the live id if present.
      const std::string enc = random_enc();
      const State id = u.intern(enc);
      const auto it = by_enc.find(enc);
      if (it != by_enc.end()) {
        ASSERT_EQ(id, it->second) << "op " << op << " enc " << enc;
      } else {
        by_enc.emplace(enc, id);
        live.emplace_back(id, enc);
      }
    } else if (kind < 8) {
      // Release a random live id; its slot becomes a tombstone and the id
      // recycles.
      const std::size_t pick = rng.below(live.size());
      const auto [id, enc] = live[pick];
      u.release(id);
      ASSERT_FALSE(u.is_live(id));
      by_enc.erase(enc);
      live[pick] = live.back();
      live.pop_back();
    } else {
      // Patch a random live base with one random in-range edit.
      const auto& [base, enc] = live[rng.below(live.size())];
      std::string expected = enc;
      std::vector<ByteEdit> edits;
      const char b = alphabet[rng.below(4)];
      // An earlier erase can leave an empty encoding live; only insert is
      // in-range against it.
      const std::uint64_t which = expected.empty() ? 1 : rng.below(3);
      if (which == 0) {
        const std::size_t pos = rng.below(expected.size());
        expected[pos] = b;
        edits.push_back(ByteEdit::replace(pos, {&b, 1}));
      } else if (which == 1) {
        const std::size_t pos = rng.below(expected.size() + 1);
        expected.insert(pos, 1, b);
        edits.push_back(ByteEdit::insert(pos, {&b, 1}));
      } else {
        const std::size_t pos = rng.below(expected.size());
        expected.erase(pos, 1);
        edits.push_back(ByteEdit::erase(pos, 1));
      }
      const State id = u.intern_patched(base, edits);
      const auto it = by_enc.find(expected);
      if (it != by_enc.end()) {
        ASSERT_EQ(id, it->second) << "op " << op << " patched " << expected;
      } else {
        ASSERT_EQ(u.encoding(id), expected) << "op " << op;
        by_enc.emplace(expected, id);
        live.emplace_back(id, expected);
      }
    }
    ASSERT_EQ(u.live(), by_enc.size()) << "op " << op;
    // Periodic full audit: every reference encoding still finds its id.
    if (op % 4096 == 0) {
      for (const auto& [enc2, id2] : by_enc) {
        ASSERT_TRUE(u.is_live(id2));
        ASSERT_EQ(u.encoding(id2), enc2);
        ASSERT_EQ(u.intern(enc2), id2);
      }
    }
  }
  EXPECT_GT(u.capacity(), 0u);
}

TEST(StateUniverse, InternPatchedMatchesManualEdits) {
  StateUniverse u;
  const State base = u.intern(std::string("\x01\x02\x03\x04\x05", 5));
  // Replace byte 1, insert two bytes at 3 (post-replace offsets), erase
  // the original trailing byte.
  const ByteEdit edits[] = {ByteEdit::replace(1, {"\x09", 1}),
                            ByteEdit::insert(3, {"\x0a\x0b", 2}),
                            ByteEdit::erase(6, 1)};
  const State patched = u.intern_patched(base, edits);
  EXPECT_EQ(u.encoding(patched), std::string("\x01\x09\x03\x0a\x0b\x04", 6));
  // Patching to an existing encoding dedupes onto the same id.
  const ByteEdit noop_edits[] = {ByteEdit::replace(0, {"\x01", 1})};
  EXPECT_EQ(u.intern_patched(base, noop_edits), base);
  // Out-of-range edits are rejected.
  const ByteEdit bad[] = {ByteEdit::erase(4, 2)};
  EXPECT_THROW((void)u.intern_patched(base, bad), std::out_of_range);
  const ByteEdit bad2[] = {ByteEdit::insert(6, {"x", 1})};
  EXPECT_THROW((void)u.intern_patched(base, bad2), std::out_of_range);
}

}  // namespace
}  // namespace ppfs
