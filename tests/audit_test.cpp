// Mutation smokes for the runtime-contract audit layer (util/audit.hpp):
// every auditor must (a) stay silent on a healthy subsystem and (b) fire
// a structured AuditError on a hand-corrupted one. The corruptions model
// the real bug classes each audit exists to catch — a skipped dirty-state
// flush, a rehash that double-places an id, a release that bypasses cache
// invalidation, an adversary overrunning its budget, an MVHG split that
// stops recomposing the round, a SKnO record left holding a run a check
// would consume. AuditTestPeer reaches the private state;
// the audit methods themselves are compiled in every build configuration,
// so this suite runs with and without -DPPFS_AUDIT=ON.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/batch/alias_sampler.hpp"
#include "engine/batch/batch_system.hpp"
#include "engine/batch/round_system.hpp"
#include "engine/batch/sim_batch_system.hpp"
#include "protocols/majority.hpp"
#include "protocols/registry.hpp"
#include "sched/omission_process.hpp"
#include "sim/sim_rules.hpp"
#include "sim/skno.hpp"
#include "util/audit.hpp"
#include "util/rng.hpp"

namespace ppfs {

// The friend the subsystems declare: static corruption helpers, one per
// seeded bug class. Kept out of the anonymous namespace so the friend
// declarations (`friend struct AuditTestPeer;`) resolve to this type.
struct AuditTestPeer {
  // --- DynamicPairSampler ---------------------------------------------------
  static void corrupt_slot_weight(DynamicPairSampler& s) { s.w_[0] += 1; }
  static void corrupt_fenwick_node(DynamicPairSampler& s) { s.tree_[1] += 1; }

  // --- BatchSystem: a count move that skips mark_dirty ----------------------
  static void move_without_dirty(BatchSystem& sys, State from, State to) {
    sys.conf_.move(from, to, 1);
  }

  // --- StateUniverse --------------------------------------------------------
  static void clear_live_ctrl(StateUniverse& u, State id) {
    u.ctrl_[u.slot_of_[id]] = simd::kCtrlEmpty;
  }
  // The rehash double-place bug class: a second FULL slot serving the same
  // id. Tallies are patched to match so only the slot-ownership check can
  // catch it.
  static void duplicate_slot(StateUniverse& u, State id) {
    for (std::size_t slot = 0; slot < u.ctrl_.size(); ++slot) {
      if (u.ctrl_[slot] == simd::kCtrlEmpty) {
        u.ctrl_[slot] = StateUniverse::tag_of(u.hash_[id]);
        u.ids_[slot] = id;
        ++u.full_;
        return;
      }
    }
    FAIL() << "no empty slot to duplicate into";
  }

  // --- OutcomeCache ---------------------------------------------------------
  static void bump_generation(OutcomeCache& c, State id) {
    if (c.gen_.size() <= id) c.gen_.resize(id + 1, 0);
    ++c.gen_[id];
  }

  // --- rule sources: release an id without the invalidation protocol -------
  static void release_bypassing_invalidate(SidRuleSource& src, State id) {
    src.universe_.release(id);
  }

  // --- SimBatchSystem / its index structures --------------------------------
  static void corrupt_count_bucket(CountIndex& idx) { idx.counts_[0] += 1; }
  static void corrupt_configuration(SimBatchSystem& sys, State occupied) {
    sys.conf_.counts_[occupied] += 1;
  }

  // --- OmissionProcess ------------------------------------------------------
  static void overrun_budget(OmissionProcess& o) {
    o.emitted_ = o.params_.max_omissions + 1;
  }
  static void overrun_burst(OmissionProcess& o) {
    o.burst_ = o.params_.max_burst + 1;
  }

  // --- RoundSystem ----------------------------------------------------------
  static void corrupt_round_split(RoundSystem& r) { r.cells_[0] += 1; }
  static void audit_round(const RoundSystem& r, std::uint64_t len,
                          std::uint64_t k_om) {
    r.audit_round(len, k_om);
  }
  static std::uint64_t cells_sum(const RoundSystem& r) {
    std::uint64_t s = 0;
    for (const std::uint64_t c : r.cells_) s += c;
    return s;
  }
  static std::uint64_t omits_sum(const RoundSystem& r) {
    std::uint64_t s = 0;
    for (const std::uint64_t o : r.omits_) s += o;
    return s;
  }
};

namespace {

DynamicPairSampler healthy_sampler() {
  DynamicPairSampler s;
  s.reset(4);
  s.set(0, 7);
  s.set(1, 0);
  s.set(2, 12);
  s.set(3, 3);
  return s;
}

TEST(SamplerAudit, SilentOnHealthyStateBothRegimes) {
  DynamicPairSampler s = healthy_sampler();
  EXPECT_NO_THROW(s.audit_invariants());
  // Let the alias table build (stable weights + draws), then re-audit.
  Rng rng(7);
  for (int i = 0; i < 200; ++i) (void)s.draw(rng);
  EXPECT_NO_THROW(s.audit_invariants());
}

TEST(SamplerAudit, FiresOnCorruptedSlotWeight) {
  DynamicPairSampler s = healthy_sampler();
  AuditTestPeer::corrupt_slot_weight(s);
  EXPECT_THROW(s.audit_invariants(), AuditError);
}

TEST(SamplerAudit, FiresOnCorruptedFenwickNode) {
  DynamicPairSampler s = healthy_sampler();
  AuditTestPeer::corrupt_fenwick_node(s);
  EXPECT_THROW(s.audit_invariants(), AuditError);
}

BatchSystem healthy_batch_system() {
  auto p = make_exact_majority();
  std::vector<std::size_t> counts(p->num_states(), 0);
  counts[0] = 6;
  counts[1] = 4;
  BatchSystem sys(RuleMatrix::compile(std::move(p), Model::TW), counts);
  Rng rng(21);
  (void)sys.advance(500, rng);
  return sys;
}

TEST(BatchSystemAudit, SilentAfterRealRun) {
  BatchSystem sys = healthy_batch_system();
  EXPECT_NO_THROW(sys.audit_invariants());
}

TEST(BatchSystemAudit, FiresOnSkippedDirtyFlush) {
  BatchSystem sys = healthy_batch_system();
  // Settle the legitimate pending deltas first: a run leaves the states
  // touched by the last fire on the dirty list, and the audit's own
  // flush would repair a corruption sitting on a still-dirty state.
  EXPECT_NO_THROW(sys.audit_invariants());
  // Now move an agent between states behind the sampler's back: the
  // incrementally maintained slot weights go stale with nothing dirty,
  // exactly as if a fire path forgot mark_dirty.
  const auto& c = sys.counts();
  State from = 0;
  while (c[from] == 0) ++from;
  const State to = from == 0 ? 1 : 0;
  AuditTestPeer::move_without_dirty(sys, from, to);
  EXPECT_THROW(sys.audit_invariants(), AuditError);
}

TEST(StateUniverseAudit, SilentThroughInternReleaseRecycle) {
  StateUniverse u;
  const State a = u.intern("alpha");
  (void)u.intern("beta");
  EXPECT_NO_THROW(u.audit_invariants());
  u.release(a);
  EXPECT_NO_THROW(u.audit_invariants());
  (void)u.intern("gamma");  // recycles a's id
  EXPECT_NO_THROW(u.audit_invariants());
}

TEST(StateUniverseAudit, FiresOnClearedCtrlByte) {
  StateUniverse u;
  const State a = u.intern("alpha");
  (void)u.intern("beta");
  AuditTestPeer::clear_live_ctrl(u, a);
  EXPECT_THROW(u.audit_invariants(), AuditError);
}

TEST(StateUniverseAudit, FiresOnDoublePlacedId) {
  StateUniverse u;
  const State a = u.intern("alpha");
  (void)u.intern("beta");
  AuditTestPeer::duplicate_slot(u, a);
  EXPECT_THROW(u.audit_invariants(), AuditError);
}

TEST(OutcomeCacheAudit, FiresOnCurrentEntryWithDeadOutput) {
  OutcomeCache c;
  c.set_capacity(64);
  c.insert_raw(/*key=*/5, /*in=*/1, /*out=*/{2, 3});
  // All outputs live: silent.
  EXPECT_NO_THROW(c.audit_live_outputs("test", [](State) { return true; }));
  // Output id 2 dead while the entry still validates: the resurrection
  // hazard the generation machinery exists to prevent.
  EXPECT_THROW(
      c.audit_live_outputs("test", [](State s) { return s != 2; }),
      AuditError);
}

TEST(OutcomeCacheAudit, SkipsStaleEntries) {
  OutcomeCache c;
  c.set_capacity(64);
  c.insert_raw(5, 1, {2, 3});
  // Bumping the generation of an output id makes the entry STALE — it can
  // never validate again, so a dead id behind it is harmless and the
  // audit must not fire.
  AuditTestPeer::bump_generation(c, 2);
  EXPECT_NO_THROW(c.audit_live_outputs("test", [](State s) { return s != 2; }));
}

TEST(RuleSourceAudit, FiresWhenReleaseBypassesCacheInvalidation) {
  const std::size_t n = 6;
  auto p = make_exact_majority();
  SidRuleSource rules(p, Model::IO, n);
  std::vector<State> sim(n, 0);
  sim[0] = sim[1] = 1;
  const std::vector<State> ids = rules.intern_initial(sim);
  EXPECT_NO_THROW(rules.audit_invariants());
  // Find an interaction whose reactor actually moves, so its successor id
  // sits in the reactor-half cache.
  State out = kNoState;
  for (std::size_t i = 0; i < n && out == kNoState; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const StatePair o =
          rules.outcome(InteractionClass::Real, ids[i], ids[j]);
      if (o.reactor != ids[j]) {
        out = o.reactor;
        break;
      }
    }
  }
  ASSERT_NE(out, kNoState) << "no reacting pair in the seed configuration";
  EXPECT_NO_THROW(rules.audit_invariants());
  // Release the cached successor directly, skipping the invalidate walk
  // release_state() performs: a currently-valid cache row now references
  // a dead id.
  AuditTestPeer::release_bypassing_invalidate(rules, out);
  EXPECT_THROW(rules.audit_invariants(), AuditError);
}

TEST(CountIndexAudit, FiresOnBucketDesync) {
  CountIndex idx;
  idx.ensure(64);
  idx.add(3, 5);
  idx.add(40, 2);
  EXPECT_NO_THROW(idx.audit_invariants());
  AuditTestPeer::corrupt_count_bucket(idx);
  EXPECT_THROW(idx.audit_invariants(), AuditError);
}

TEST(SimBatchSystemAudit, SilentAfterRealRunAndFiresOnCountCorruption) {
  const std::size_t n = 8;
  auto p = make_exact_majority();
  auto rules = std::make_shared<SidRuleSource>(p, Model::IO, n);
  std::vector<State> sim(n, 0);
  sim[0] = sim[1] = sim[2] = 1;
  SimBatchSystem sys(rules, sim);
  Rng rng(31);
  (void)sys.advance(400, rng);
  EXPECT_NO_THROW(sys.audit_invariants());
  const State occupied = sys.configuration().occupied().front();
  AuditTestPeer::corrupt_configuration(sys, occupied);
  EXPECT_THROW(sys.audit_invariants(), AuditError);
}

TEST(OmissionAudit, FiresOnBudgetAndBurstOverrun) {
  AdversaryParams params;
  params.kind = AdversaryKind::Budget;
  params.rate = 0.5;
  params.max_omissions = 5;
  params.max_burst = 3;
  {
    OmissionProcess o(params);
    EXPECT_NO_THROW(o.audit_invariants());
    AuditTestPeer::overrun_budget(o);
    EXPECT_THROW(o.audit_invariants(), AuditError);
  }
  {
    OmissionProcess o(params);
    AuditTestPeer::overrun_burst(o);
    EXPECT_THROW(o.audit_invariants(), AuditError);
  }
}

TEST(RoundSystemAudit, FiresOnSplitThatStopsRecomposing) {
  BatchSystem base = healthy_batch_system();
  RoundSystem round(base);
  Rng rng(17);
  (void)round.advance(200, rng);
  // The scratch still holds the last round; auditing against its own
  // totals is silent, and one overcounted contingency cell breaks the
  // cells == round-length recomposition.
  const std::uint64_t len = AuditTestPeer::cells_sum(round);
  const std::uint64_t k_om = AuditTestPeer::omits_sum(round);
  ASSERT_GT(len, 0u);
  EXPECT_NO_THROW(AuditTestPeer::audit_round(round, len, k_om));
  AuditTestPeer::corrupt_round_split(round);
  EXPECT_THROW(AuditTestPeer::audit_round(round, len, k_om), AuditError);
}

TEST(SknoCoreAudit, FiresOnARunLeftUnconsumed) {
  using Token = SknoCore::Token;
  auto p = make_exact_majority();
  SknoCore core(p.get(), Model::I3, 1, {}, /*track_provenance=*/false);
  const Token change{Token::Kind::ChangeRun, 0, 1, 1, 0};
  // Healthy: an available agent holding half of a state run is at the
  // check fixpoint, and an unrelated delivery leaves it there.
  SknoCore::Agent a;
  a.sim_state = 1;
  a.sending = {Token{Token::Kind::StateRun, 0, kNoState, 1, 0}};
  EXPECT_NO_THROW(core.audit_fixpoint(a));
  SknoCore::Footprint fp;
  EXPECT_NO_THROW(core.receive_one(a, change, fp));
  // Corrupted: the whole run <0,1..2> sits in the queue, which no
  // operation leaves behind — the available-agent check would consume it.
  SknoCore::Agent b;
  b.sim_state = 1;
  b.sending = {Token{Token::Kind::StateRun, 0, kNoState, 1, 0},
               Token{Token::Kind::StateRun, 0, kNoState, 2, 0}};
  EXPECT_THROW(core.audit_fixpoint(b), AuditError);
#if PPFS_AUDIT
  // The delivery hook: the change token cannot complete anything, so
  // receive() skips the checks, and the audit catches the run it skipped.
  fp = {};
  EXPECT_THROW(core.receive_one(b, change, fp), AuditError);
#endif
}

}  // namespace
}  // namespace ppfs
