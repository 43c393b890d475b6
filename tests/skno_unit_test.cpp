// Unit tests for the SKnO token machinery (§4.1), driven by scripted
// interaction sequences whose exact effect on queues, jokers and the
// pending flag is traced by hand.
#include "sim/skno.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "protocols/pairing.hpp"
#include "util/rng.hpp"
#include "verify/matching.hpp"

namespace ppfs {

// The run search SknoCore used before its one-pass bitmask form, kept as
// the reference the production search must agree with exactly: candidate
// payloads in queue order, a full queue rescan per candidate, the first
// occurrence of each index 1..o+1 consumed and jokers for the rest.
struct SknoCoreTestPeer {
  using Token = SknoCore::Token;

  static std::optional<SknoCore::Consumed> reference(
      SknoCore& core, SknoCore::Agent& a, Token::Kind kind,
      std::optional<State> q_filter) {
    const std::size_t o = core.o_;
    std::vector<std::pair<State, State>> candidates;
    for (const auto& t : a.sending) {
      if (t.kind != kind) continue;
      if (q_filter && t.q != *q_filter) continue;
      const std::pair<State, State> payload{t.q, t.qr};
      if (std::find(candidates.begin(), candidates.end(), payload) ==
          candidates.end())
        candidates.push_back(payload);
    }
    std::size_t jokers_avail = 0;
    for (const auto& t : a.sending)
      if (t.kind == Token::Kind::Joker) ++jokers_avail;

    for (const auto& [q, qr] : candidates) {
      std::vector<std::ptrdiff_t> pos(o + 2, -1);
      std::size_t have = 0;
      for (std::size_t i = 0; i < a.sending.size(); ++i) {
        const Token& t = a.sending[i];
        if (t.kind != kind || t.q != q || t.qr != qr) continue;
        if (t.index < 1 || t.index > o + 1) continue;
        if (pos[t.index] < 0) {
          pos[t.index] = static_cast<std::ptrdiff_t>(i);
          ++have;
        }
      }
      if (have == 0) continue;  // at least one real token required
      const std::size_t missing = (o + 1) - have;
      if (missing > jokers_avail) continue;

      std::vector<char> remove(a.sending.size(), 0);
      std::uint64_t primary = 0;
      bool primary_set = false;
      for (std::uint32_t i = 1; i <= o + 1; ++i) {
        if (pos[i] >= 0) {
          remove[static_cast<std::size_t>(pos[i])] = 1;
          if (!primary_set) {
            primary = a.sending[static_cast<std::size_t>(pos[i])].run;
            primary_set = true;
          }
        } else {
          a.joker_debt.push_back(Token{kind, q, qr, i, 0});
        }
      }
      std::size_t jokers_needed = missing;
      for (std::size_t i = 0; i < a.sending.size() && jokers_needed > 0; ++i) {
        if (!remove[i] && a.sending[i].kind == Token::Kind::Joker) {
          remove[i] = 1;
          --jokers_needed;
        }
      }
      core.stats_.jokers_used += missing;

      std::vector<Token> rest;
      for (std::size_t i = 0; i < a.sending.size(); ++i)
        if (!remove[i]) rest.push_back(a.sending[i]);
      a.sending.assign(rest.begin(), rest.end());
      return SknoCore::Consumed{primary, q, qr};
    }
    return std::nullopt;
  }

  static void use_reference(SknoCore& core) { core.consume_ = &reference; }

  // The full checks on a copy of `a`, with the reference search on a copy
  // of `core`: whether any check that applies in `a`'s mode consumes a run.
  static bool full_check_consumes(const SknoCore& core,
                                  const SknoCore::Agent& a) {
    SknoCore probe = core;
    use_reference(probe);
    SknoCore::Agent copy = a;
    SknoCore::Footprint fp;
    return probe.run_checks(copy, nullptr, fp);
  }

  // Runs the full checks on `a` until none fires, bringing a hand-built
  // record to the fixpoint every SknoCore operation leaves behind.
  static void settle(SknoCore& core, SknoCore::Agent& a) {
    SknoCore::Footprint fp;
    core.run_checks(a, nullptr, fp);
  }
};

namespace {

std::shared_ptr<const TableProtocol> pairing() { return make_pairing_protocol(); }

TEST(SknoUnit, ValidatesModelAndBound) {
  EXPECT_THROW(SknoSimulator(pairing(), Model::TW, 1, {0, 1}),
               std::invalid_argument);
  EXPECT_THROW(SknoSimulator(pairing(), Model::IO, 1, {0, 1}),
               std::invalid_argument);
  EXPECT_THROW(SknoSimulator(pairing(), Model::IT, 2, {0, 1}),
               std::invalid_argument);  // IT requires o = 0
  EXPECT_NO_THROW(SknoSimulator(pairing(), Model::IT, 0, {0, 1}));
  EXPECT_NO_THROW(SknoSimulator(pairing(), Model::I3, 3, {0, 1}));
  EXPECT_NO_THROW(SknoSimulator(pairing(), Model::I4, 3, {0, 1}));
}

TEST(SknoUnit, FirstStarterActOpensTransaction) {
  const auto st = pairing_states();
  SknoSimulator sim(pairing(), Model::I3, 1, {st.producer, st.consumer});
  sim.interact(Interaction{0, 1, false});
  EXPECT_TRUE(sim.is_pending(0));
  EXPECT_EQ(sim.queue_size(0), 1u);  // generated 2, sent 1
  EXPECT_EQ(sim.queue_size(1), 1u);  // received it
  EXPECT_EQ(sim.stats().runs_generated, 1u);
  EXPECT_TRUE(sim.events().empty());  // incomplete run, no transition yet
}

TEST(SknoUnit, FullTwoAgentTransition) {
  // o = 1: (0->1)x2 completes the reactor half, (1->0)x2 the starter half.
  const auto st = pairing_states();
  SknoSimulator sim(pairing(), Model::I3, 1, {st.producer, st.consumer});
  sim.interact(Interaction{0, 1, false});
  sim.interact(Interaction{0, 1, false});
  EXPECT_EQ(sim.simulated_state(1), st.critical);  // fr(p, c) = cs
  EXPECT_EQ(sim.simulated_state(0), st.producer);  // starter half still pending
  EXPECT_EQ(sim.stats().state_runs_consumed, 1u);
  sim.interact(Interaction{1, 0, false});
  sim.interact(Interaction{1, 0, false});
  EXPECT_EQ(sim.simulated_state(0), st.bottom);  // fs(p, c) = bot
  EXPECT_FALSE(sim.is_pending(0));
  EXPECT_EQ(sim.stats().change_runs_consumed, 1u);
  ASSERT_EQ(sim.events().size(), 2u);
  const auto rep = verify_simulation(sim, 0);
  EXPECT_TRUE(rep.ok) << (rep.errors.empty() ? "" : rep.errors[0]);
  EXPECT_EQ(rep.pairs, 1u);
}

TEST(SknoUnit, CorollaryOneItNeedsTwoInteractions) {
  // o = 0 in IT: single-token runs, one interaction per half.
  const auto st = pairing_states();
  SknoSimulator sim(pairing(), Model::IT, 0, {st.producer, st.consumer});
  sim.interact(Interaction{0, 1, false});
  EXPECT_EQ(sim.simulated_state(1), st.critical);
  sim.interact(Interaction{1, 0, false});
  EXPECT_EQ(sim.simulated_state(0), st.bottom);
  EXPECT_TRUE(verify_simulation(sim, 0).ok);
}

TEST(SknoUnit, OmissionMintsJokerAndKillsToken) {
  const auto st = pairing_states();
  SknoSimulator sim(pairing(), Model::I3, 1, {st.producer, st.consumer});
  sim.interact(Interaction{0, 1, true});  // token <p,1> dies, reactor jokers
  EXPECT_EQ(sim.stats().tokens_killed, 1u);
  EXPECT_EQ(sim.stats().jokers_minted, 1u);
  EXPECT_EQ(sim.live_jokers(), 1u);
  EXPECT_EQ(sim.queue_size(1), 1u);
}

TEST(SknoUnit, JokerSubstitutesMissingToken) {
  const auto st = pairing_states();
  SknoSimulator sim(pairing(), Model::I3, 1, {st.producer, st.consumer});
  sim.interact(Interaction{0, 1, true});   // <p,1> lost, joker minted
  sim.interact(Interaction{0, 1, false});  // <p,2> arrives: joker completes run
  EXPECT_EQ(sim.simulated_state(1), st.critical);
  EXPECT_EQ(sim.stats().jokers_used, 1u);
  EXPECT_EQ(sim.live_jokers(), 0u);
}

TEST(SknoUnit, JokerDebtRepaidByLateToken) {
  // Two producers in the same state: the victim completes p0's run with a
  // joker standing in for <p,1>; when p1 later transmits a fresh <p,1>,
  // the debt converts it back into a joker.
  const auto st = pairing_states();
  SknoSimulator sim(pairing(), Model::I3, 1,
                    {st.producer, st.producer, st.consumer});
  sim.interact(Interaction{0, 2, true});   // p0's <p,1> lost; c jokers
  sim.interact(Interaction{0, 2, false});  // p0's <p,2>: c completes via joker
  EXPECT_EQ(sim.simulated_state(2), st.critical);
  EXPECT_EQ(sim.stats().debt_conversions, 0u);
  sim.interact(Interaction{1, 2, false});  // p1's <p,1>: repays the debt
  EXPECT_EQ(sim.stats().debt_conversions, 1u);
  EXPECT_EQ(sim.live_jokers(), 1u);  // regenerated joker circulates
}

TEST(SknoUnit, PendingAgentCancelsOnOwnRunReturn) {
  // o = 1, both consumers: a0 goes pending and transmits <c,1>; a1 relays
  // it back; a0 then holds its complete own-state run {<c,1>,<c,2>} and
  // cancels the transaction (preliminary check).
  const auto st = pairing_states();
  SknoSimulator sim(pairing(), Model::I3, 1, {st.consumer, st.consumer});
  sim.interact(Interaction{0, 1, false});
  ASSERT_TRUE(sim.is_pending(0));
  sim.interact(Interaction{1, 0, false});
  EXPECT_FALSE(sim.is_pending(0));
  EXPECT_EQ(sim.stats().cancels, 1u);
  EXPECT_EQ(sim.queue_size(0), 0u);  // withdrawn from circulation
  EXPECT_TRUE(sim.events().empty());
}

TEST(SknoUnit, AllJokerRunsAreRejected) {
  // o = 1: two omissions mint two jokers at the reactor; they must NOT
  // combine into a phantom run for any state (the >=1-real rule).
  const auto st = pairing_states();
  SknoSimulator sim(pairing(), Model::I3, 1, {st.producer, st.consumer});
  sim.interact(Interaction{0, 1, true});
  sim.interact(Interaction{0, 1, true});
  EXPECT_EQ(sim.live_jokers(), 2u);
  EXPECT_EQ(sim.simulated_state(1), st.consumer);
  EXPECT_TRUE(sim.events().empty());
}

TEST(SknoUnit, I4OmissionMintsJokerStarterSideAndKillsReactorToken) {
  const auto st = pairing_states();
  SknoSimulator sim(pairing(), Model::I4, 1, {st.producer, st.consumer});
  sim.interact(Interaction{0, 1, false});  // p pending, sends <p,1>
  sim.interact(Interaction{0, 1, true});   // omission, starter detects
  // The starter mints the compensating joker; the preliminary check then
  // lets it cancel its own pending transaction (the joker + unsent <p,2>
  // form a complete own-state run) — faithful to §4.1's check order.
  EXPECT_EQ(sim.stats().jokers_minted, 1u);
  EXPECT_EQ(sim.stats().cancels, 1u);
  EXPECT_FALSE(sim.is_pending(0));
  // The reactor applied g: it popped its own front token — the relayed
  // <p,1> it had just received — into the void.
  EXPECT_EQ(sim.stats().tokens_killed, 1u);
  EXPECT_EQ(sim.queue_size(1), 0u);
}

TEST(SknoUnit, I4FullTransitionDespiteOmission) {
  const auto st = pairing_states();
  SknoSimulator sim(pairing(), Model::I4, 1, {st.producer, st.consumer});
  // Omission first: the reactor (applying g) refills and kills its own
  // <c,1>; the starter's compensating joker travels over next and lets the
  // reactor cancel its crippled transaction; then the producer's intact
  // run arrives and the transition completes.
  sim.interact(Interaction{0, 1, true});
  sim.interact(Interaction{0, 1, false});
  EXPECT_EQ(sim.stats().cancels, 1u);  // joker healed the killed <c,1>
  sim.interact(Interaction{0, 1, false});
  sim.interact(Interaction{0, 1, false});
  EXPECT_EQ(sim.simulated_state(1), st.critical);
}

TEST(SknoUnit, ForwardedJokerCompletesPendingChangeRun) {
  // o = 1. p0 hands its state run to c1, which answers with the change run
  // <(p,c),1..2>. <(p,c),1> reaches p0; <(p,c),2> dies in an omission
  // whose joker c2 mints. c2, available with only that joker queued,
  // forwards it to p0, where it fills index 2: a joker that was not minted
  // at the receiver still completes a run.
  const auto st = pairing_states();
  SknoSimulator sim(pairing(), Model::I3, 1,
                    {st.producer, st.consumer, st.consumer});
  sim.interact(Interaction{0, 1, false});
  sim.interact(Interaction{0, 1, false});  // c1: reactor half, change run queued
  ASSERT_EQ(sim.simulated_state(1), st.critical);
  sim.interact(Interaction{1, 0, false});  // <(p,c),1> reaches p0
  ASSERT_TRUE(sim.is_pending(0));
  sim.interact(Interaction{1, 2, true});   // <(p,c),2> lost; c2 mints a joker
  ASSERT_EQ(sim.queue_size(2), 1u);
  ASSERT_FALSE(sim.is_pending(2));
  sim.interact(Interaction{2, 0, false});  // c2 forwards the joker to p0
  EXPECT_FALSE(sim.is_pending(0));
  EXPECT_EQ(sim.simulated_state(0), st.bottom);
  EXPECT_EQ(sim.stats().change_runs_consumed, 1u);
  EXPECT_EQ(sim.stats().jokers_used, 1u);
  EXPECT_EQ(sim.queue_size(0), 0u);
}

TEST(SknoUnit, TokenConservationOnScriptedTrace) {
  const auto st = pairing_states();
  SknoSimulator sim(pairing(), Model::I3, 2, {st.producer, st.consumer});
  const auto invariant = [&] {
    const auto& s = sim.stats();
    const std::size_t expected =
        (s.runs_generated - s.change_runs_consumed - s.cancels) * 3 +
        s.jokers_minted - s.tokens_killed;
    EXPECT_EQ(sim.total_live_tokens(), expected);
  };
  for (const Interaction ia :
       {Interaction{0, 1, false}, Interaction{0, 1, true}, Interaction{0, 1, false},
        Interaction{0, 1, false}, Interaction{1, 0, false}, Interaction{1, 0, false},
        Interaction{1, 0, false}, Interaction{1, 0, false}}) {
    sim.interact(ia);
    invariant();
  }
}

TEST(SknoUnit, MemoryBitsGrowWithHeldTokens) {
  const auto st = pairing_states();
  SknoSimulator sim(pairing(), Model::I3, 1, {st.producer, st.consumer});
  const auto before = sim.memory_bits(1);
  sim.interact(Interaction{0, 1, false});
  EXPECT_GT(sim.memory_bits(1), before);
}

TEST(SknoUnit, CloneIndependence) {
  const auto st = pairing_states();
  SknoSimulator sim(pairing(), Model::I3, 1, {st.producer, st.consumer});
  sim.interact(Interaction{0, 1, false});
  auto copy = sim.clone();
  sim.interact(Interaction{0, 1, false});
  EXPECT_EQ(sim.simulated_state(1), st.critical);
  EXPECT_EQ(copy->simulated_state(1), st.consumer);
  copy->interact(Interaction{0, 1, false});
  EXPECT_EQ(copy->simulated_state(1), st.critical);
}

// --- run search against the reference ---------------------------------------

using Token = SknoCore::Token;

// A queue built to complete runs often: up to two payloads from a small
// alphabet (states 0..2), each holding most of its indices 1..o+1 (some
// twice), plus stray tokens of any kind with indices 0..o+2 (invalid ones
// included), jokers, and a short debt list; shuffled.
SknoCore::Agent random_agent(Rng& rng, std::size_t o) {
  const auto small = [&] { return static_cast<State>(rng.below(3)); };
  const auto kind_of = [](std::uint64_t k) {
    return k == 0 ? Token::Kind::StateRun
                  : k == 1 ? Token::Kind::ChangeRun : Token::Kind::Joker;
  };
  SknoCore::Agent a;
  a.sim_state = small();
  a.pending = rng.below(2) == 1;
  std::vector<Token> toks;
  const std::uint64_t payloads = rng.below(3);
  for (std::uint64_t p = 0; p < payloads; ++p) {
    const Token::Kind kind = kind_of(rng.below(2));
    const State q = rng.below(2) == 0 ? a.sim_state : small();
    const State qr = kind == Token::Kind::ChangeRun ? small() : kNoState;
    const std::uint64_t run = 1 + rng.below(1000);
    for (std::uint32_t i = 1; i <= o + 1; ++i) {
      if (rng.below(4) == 0) continue;
      toks.push_back(Token{kind, q, qr, i, run});
      if (rng.below(8) == 0) toks.push_back(Token{kind, q, qr, i, run + 1});
    }
  }
  const std::uint64_t strays = rng.below(5);
  for (std::uint64_t k = 0; k < strays; ++k) {
    const Token::Kind kind = kind_of(rng.below(3));
    if (kind == Token::Kind::Joker) {
      toks.push_back(Token{kind, kNoState, kNoState, 0, 0});
      continue;
    }
    toks.push_back(Token{kind, small(),
                         kind == Token::Kind::ChangeRun ? small() : kNoState,
                         static_cast<std::uint32_t>(rng.below(o + 3)),
                         1 + rng.below(1000)});
  }
  const std::uint64_t jokers = rng.below((o + 1) / 3 + 3);
  for (std::uint64_t k = 0; k < jokers; ++k)
    toks.push_back(Token{Token::Kind::Joker, kNoState, kNoState, 0, 0});
  for (std::size_t i = toks.size(); i > 1; --i)
    std::swap(toks[i - 1], toks[rng.below(i)]);
  a.sending.assign(toks.begin(), toks.end());
  const std::uint64_t debts = rng.below(3);
  for (std::uint64_t k = 0; k < debts; ++k)
    a.joker_debt.push_back(Token{Token::Kind::StateRun, small(), kNoState,
                                 static_cast<std::uint32_t>(1 + rng.below(o + 1)),
                                 0});
  return a;
}

bool same_tokens(const std::deque<Token>& x, const std::vector<Token>& y) {
  return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                    [](const Token& s, const Token& t) {
                      return s.same_value(t) && s.run == t.run;
                    });
}

void expect_same_agent(const SknoCore::Agent& got, const SknoCore::Agent& want,
                       const std::string& where) {
  EXPECT_EQ(got.sim_state, want.sim_state) << where;
  EXPECT_EQ(got.pending, want.pending) << where;
  EXPECT_TRUE(same_tokens(got.sending, {want.sending.begin(), want.sending.end()}))
      << where << ": queue";
  EXPECT_TRUE(same_tokens({got.joker_debt.begin(), got.joker_debt.end()},
                          want.joker_debt))
      << where << ": joker debt";
}

void expect_same_emits(const SknoCore::Emits& got, const SknoCore::Emits& want,
                       const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].before, want[i].before) << where;
    EXPECT_EQ(got[i].after, want[i].after) << where;
    EXPECT_EQ(got[i].half, want[i].half) << where;
    EXPECT_EQ(got[i].key, want[i].key) << where;
    EXPECT_EQ(got[i].partner, want[i].partner) << where;
  }
}

void expect_same_stats(const SknoCore::Stats& got, const SknoCore::Stats& want,
                       const std::string& where) {
  EXPECT_EQ(got.runs_generated, want.runs_generated) << where;
  EXPECT_EQ(got.state_runs_consumed, want.state_runs_consumed) << where;
  EXPECT_EQ(got.change_runs_consumed, want.change_runs_consumed) << where;
  EXPECT_EQ(got.cancels, want.cancels) << where;
  EXPECT_EQ(got.jokers_minted, want.jokers_minted) << where;
  EXPECT_EQ(got.jokers_used, want.jokers_used) << where;
  EXPECT_EQ(got.tokens_killed, want.tokens_killed) << where;
  EXPECT_EQ(got.debt_conversions, want.debt_conversions) << where;
  EXPECT_EQ(got.max_queue, want.max_queue) << where;
}

TEST(SknoRunSearch, MatchesReferenceOnRandomQueues) {
  // Both searches driven through SknoCore::step on identical random
  // agents, real and omissive (I3: the reactor mints a joker), for bounds
  // on both sides of the one-word bitmask limit (o + 1 <= 63). Every run
  // completion, cancellation and joker substitution must agree.
  const auto protocol = pairing();
  for (const std::size_t o : {0, 1, 2, 8, 62, 63, 64, 100}) {
    SknoCore fast(protocol.get(), Model::I3, o, {}, true);
    SknoCore ref = fast;
    SknoCoreTestPeer::use_reference(ref);
    Rng rng(7100 + o);
    std::size_t consumed = 0;
    for (int trial = 0; trial < 3000; ++trial) {
      const std::string where =
          "o=" + std::to_string(o) + " trial " + std::to_string(trial);
      SknoCore::Agent s = random_agent(rng, o);
      SknoCore::Agent r = random_agent(rng, o);
      SknoCore::Agent s_ref = s;
      SknoCore::Agent r_ref = r;
      // step() expects agents at the check fixpoint: settle each copy with
      // its own search first, which compares the two searches as well.
      SknoCoreTestPeer::settle(fast, s);
      SknoCoreTestPeer::settle(fast, r);
      SknoCoreTestPeer::settle(ref, s_ref);
      SknoCoreTestPeer::settle(ref, r_ref);
      const bool omissive = rng.below(4) == 0;
      SknoCore::Emits se, re, se_ref, re_ref;
      fast.step(s, r, omissive, OmitSide::Both, &se, &re);
      ref.step(s_ref, r_ref, omissive, OmitSide::Both, &se_ref, &re_ref);
      expect_same_agent(s, s_ref, where + " starter");
      expect_same_agent(r, r_ref, where + " reactor");
      expect_same_emits(se, se_ref, where + " starter emits");
      expect_same_emits(re, re_ref, where + " reactor emits");
      expect_same_stats(fast.stats(), ref.stats(), where);
      if (::testing::Test::HasFailure()) return;
      consumed = ref.stats().state_runs_consumed +
                 ref.stats().change_runs_consumed + ref.stats().cancels;
    }
    // The generator must actually exercise consumption at every bound, and
    // joker substitution wherever a run has room for one (o >= 1).
    EXPECT_GT(consumed, 100u) << "o=" << o;
    if (o >= 1) {
      EXPECT_GT(ref.stats().jokers_used, 0u) << "o=" << o;
    }
  }
}

// --- the check fixpoint -----------------------------------------------------

// receive() runs only the checks the delivered token can make succeed.
// That is exact only if every SknoCore operation leaves the agents it
// touched at the check fixpoint. Random drives over every model and
// omission side, both debt settings and bounds on both sides of the
// one-word mask assert it after every step, with the reference search.
TEST(SknoFixpoint, NoCheckCanConsumeAfterAnyStep) {
  const auto protocol = pairing();
  struct Cell {
    Model model;
    OmitSide side;
  };
  const Cell cells[] = {{Model::I3, OmitSide::Both},
                        {Model::I4, OmitSide::Both},
                        {Model::T3, OmitSide::Starter},
                        {Model::T3, OmitSide::Reactor},
                        {Model::IT, OmitSide::Both}};
  constexpr std::size_t kAgents = 4;
  for (const Cell& cell : cells) {
    for (const bool debt : {true, false}) {
      for (const std::size_t o : {0, 1, 2, 8, 70}) {
        if (cell.model == Model::IT && o != 0) continue;  // IT is o = 0 only
        const std::string where =
            model_name(cell.model) + " side " +
            std::to_string(static_cast<int>(cell.side)) + " debt " +
            std::to_string(debt) + " o=" + std::to_string(o);
        std::uint64_t consumed = 0;
        std::uint64_t jokers_used = 0;
        for (std::uint64_t seed = 0; seed < 6; ++seed) {
          SknoCore core(protocol.get(), cell.model, o, {debt}, true);
          Rng rng(9100 + 31 * seed + o);
          std::vector<SknoCore::Agent> agents(kAgents);
          for (auto& a : agents)
            a.sim_state = static_cast<State>(rng.below(protocol->num_states()));
          for (int step = 0; step < 800; ++step) {
            const auto s = static_cast<std::size_t>(rng.below(kAgents));
            auto r = static_cast<std::size_t>(rng.below(kAgents - 1));
            if (r >= s) ++r;
            const bool omissive =
                cell.model != Model::IT && rng.below(6) == 0;
            core.step(agents[s], agents[r], omissive, cell.side, nullptr,
                      nullptr);
            for (const std::size_t i : {s, r})
              ASSERT_FALSE(SknoCoreTestPeer::full_check_consumes(core, agents[i]))
                  << where << " seed " << seed << " step " << step
                  << " agent " << i;
          }
          consumed += core.stats().state_runs_consumed +
                      core.stats().change_runs_consumed + core.stats().cancels;
          jokers_used += core.stats().jokers_used;
        }
        // The drive must reach run completions, and joker substitutions
        // wherever omissions mint jokers (a T3 starter-side omission is a
        // fault-free delivery) into runs with room for them.
        EXPECT_GT(consumed, 0u) << where;
        const bool mints = cell.model != Model::IT &&
                           !(cell.model == Model::T3 &&
                             cell.side == OmitSide::Starter);
        if (mints && o >= 1) {
          EXPECT_GT(jokers_used, 0u) << where;
        }
      }
    }
  }
}

TEST(SknoUnit, DescribeMentionsModelAndBound) {
  SknoSimulator sim(pairing(), Model::I3, 2, {0, 1});
  const auto d = sim.describe();
  EXPECT_NE(d.find("I3"), std::string::npos);
  EXPECT_NE(d.find("o=2"), std::string::npos);
}

}  // namespace
}  // namespace ppfs
