#include "sim/skno.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <stdexcept>
#include <string>

#include "util/audit.hpp"

namespace ppfs {

namespace {
constexpr std::size_t bits_for_count(std::size_t c) {
  std::size_t b = 0;
  while (c > 0) {
    ++b;
    c >>= 1;
  }
  return b == 0 ? 1 : b;
}
}  // namespace

void validate_skno_model(Model model, std::size_t omission_bound) {
  if (model != Model::I3 && model != Model::I4 && model != Model::IT &&
      model != Model::T3 && model != Model::I1 && model != Model::I2)
    throw std::invalid_argument(
        "SknoSimulator: supported models are I3, I4 (omissive), IT (o = 0), "
        "T3 (via the I3 -> T3 embedding), and I1/I2 (as the Theorem 3.2 "
        "candidate only)");
  if (model == Model::IT && omission_bound != 0)
    throw std::invalid_argument("SknoSimulator: IT is non-omissive, use o = 0");
}

SknoCore::SknoCore(const Protocol* protocol, Model model,
                   std::size_t omission_bound, Options options,
                   bool track_provenance)
    : protocol_(protocol),
      model_(model),
      o_(omission_bound),
      options_(options),
      track_provenance_(track_provenance),
      consume_(o_ + 1 > kMaskIndices ? &SknoCore::try_consume_scan
                                     : &SknoCore::try_consume_masked) {
  validate_skno_model(model, omission_bound);
}

void SknoCore::note_queue_size(const Agent& a) {
  stats_.max_queue = std::max(stats_.max_queue, a.sending.size());
}

std::optional<SknoCore::Token> SknoCore::apply_g(Agent& a, Footprint& fp) {
  if (!a.pending && a.sending.empty()) {
    // available + empty queue: open a transaction for the current state.
    a.pending = true;
    const std::uint64_t run = track_provenance_ ? next_run_++ : 0;
    for (std::uint32_t i = 1; i <= o_ + 1; ++i)
      a.sending.push_back(Token{Token::Kind::StateRun, a.sim_state, kNoState, i, run});
    ++stats_.runs_generated;
    note_queue_size(a);
    fp.kind = Footprint::Kind::Refilled;  // the pop below always follows
  }
  if (a.sending.empty()) return std::nullopt;
  Token t = a.sending.front();
  a.sending.pop_front();
  if (fp.kind == Footprint::Kind::Unchanged)
    fp.kind = Footprint::Kind::PoppedFront;
  else if (fp.kind != Footprint::Kind::Refilled)
    fp.kind = Footprint::Kind::Complex;
  return t;
}

void SknoCore::mint_joker(Agent& a, Footprint& fp) {
  const Token joker{Token::Kind::Joker, kNoState, kNoState, 0, 0};
  a.sending.push_back(joker);
  ++stats_.jokers_minted;
  note_queue_size(a);
  if (fp.kind == Footprint::Kind::Unchanged) {
    fp.kind = Footprint::Kind::Appended;
    fp.appended = joker;
  } else {
    fp.kind = Footprint::Kind::Complex;
  }
}

void SknoCore::receive(Agent& a, const std::optional<Token>& tok, Emits* emits,
                       Footprint& fp) {
  // The agent is at the check fixpoint (see the class comment), so only
  // what this delivery adds can complete a run.
  if (!tok) {
    PPFS_AUDIT_INVOKE(audit_fixpoint(a));
    return;
  }
  // Joker-debt repayment: a late copy of a token we substituted with a
  // joker is destroyed and the joker regenerated (token conservation).
  auto debt = options_.joker_debt
                  ? std::find_if(
                        a.joker_debt.begin(), a.joker_debt.end(),
                        [&](const Token& d) { return d.same_value(*tok); })
                  : a.joker_debt.end();
  // A joker (minted upstream, forwarded, or regenerated from debt) may
  // complete any payload; a real token only its own.
  bool check = true;
  if (debt != a.joker_debt.end()) {
    a.joker_debt.erase(debt);
    a.sending.push_back(Token{Token::Kind::Joker, kNoState, kNoState, 0, 0});
    ++stats_.debt_conversions;
    fp.kind = Footprint::Kind::Complex;  // debt entry gone + joker pushed
  } else {
    a.sending.push_back(*tok);
    if (fp.kind == Footprint::Kind::Unchanged) {
      fp.kind = Footprint::Kind::Appended;
      fp.appended = *tok;
    } else {
      fp.kind = Footprint::Kind::Complex;
    }
    check = tok->kind == Token::Kind::Joker || completes_run(a, *tok);
  }
  note_queue_size(a);
  if (check) run_checks(a, emits, fp);
  else PPFS_AUDIT_INVOKE(audit_fixpoint(a));
}

bool SknoCore::completes_run(const Agent& a, const Token& t) {
  // The payloads the checks look at in the agent's mode: pending — the
  // own state run (cancel) and change runs ⟨(own, *)⟩; available — any
  // state run.
  if (a.pending ? t.q != a.sim_state : t.kind != Token::Kind::StateRun)
    return false;
  const std::uint32_t top = static_cast<std::uint32_t>(o_) + 1;
  if (a.sending.size() < top) return false;  // too few tokens for any run
  std::size_t jokers = 0;
  std::uint32_t have = 0;
  const auto same_payload = [&](const Token& u) {
    return u.kind == t.kind && u.q == t.q && u.qr == t.qr && u.index >= 1 &&
           u.index <= top;
  };
  if (top <= kMaskIndices) {
    std::uint64_t mask = 0;
    for (const Token& u : a.sending) {
      if (u.kind == Token::Kind::Joker) ++jokers;
      else if (same_payload(u)) mask |= std::uint64_t{1} << u.index;
    }
    have = static_cast<std::uint32_t>(std::popcount(mask));
  } else {
    auto& seen = scratch_taken_;
    seen.assign(top + 1, 0);
    for (const Token& u : a.sending) {
      if (u.kind == Token::Kind::Joker) ++jokers;
      else if (same_payload(u) && !seen[u.index]) {
        seen[u.index] = 1;
        ++have;
      }
    }
  }
  return have > 0 && top - have <= jokers;
}

void SknoCore::audit_fixpoint(const Agent& a) const {
  SknoCore probe = *this;
  Agent copy = a;
  Footprint fp;
  if (!probe.run_checks(copy, nullptr, fp)) return;
  throw AuditError("SknoCore", "a check can consume a run after an operation",
                   "pending " + std::to_string(a.pending) + ", sim_state " +
                       std::to_string(a.sim_state) + ", " +
                       std::to_string(a.sending.size()) + " queued tokens");
}

// Tokens of identical value are interchangeable, so which instances a
// consumption removes is a free choice — but it must be a *value-level*
// choice, or the count-space rule source (whose states carry no run ids)
// would realize a different chain than the step-wise simulator. Canonical
// rule: the candidate payloads are tried in order of first appearance;
// the first one holding at least one real token, with enough jokers for
// its missing indices, is consumed — the FIRST queue occurrence of each
// index 1..o+1 it holds, then the first jokers in queue order for the
// rest. Provenance (verification only) is the run id of the token filling
// the smallest index.
std::optional<SknoCore::Consumed> SknoCore::try_consume_masked(
    SknoCore& core, Agent& a, Token::Kind kind, std::optional<State> q_filter) {
  const std::uint32_t top = static_cast<std::uint32_t>(core.o_) + 1;
  std::size_t jokers = 0;
  std::size_t matching = 0;
  for (const Token& t : a.sending) {
    if (t.kind == Token::Kind::Joker) ++jokers;
    else if (t.kind == kind && (!q_filter || t.q == *q_filter)) ++matching;
  }
  // Exact early exit: a candidate's real tokens are among the matching
  // ones, so no candidate can fill the run.
  if (matching + jokers < top) return std::nullopt;
  // One pass: each candidate payload, in queue order, with the bitmask of
  // the valid indices it holds.
  auto& cands = core.scratch_masked_;
  cands.clear();
  for (const Token& t : a.sending) {
    if (t.kind != kind || (q_filter && t.q != *q_filter)) continue;
    auto c = std::find_if(cands.begin(), cands.end(), [&](const Masked& m) {
      return m.q == t.q && m.qr == t.qr;
    });
    if (c == cands.end()) c = cands.insert(c, Masked{t.q, t.qr, 0});
    if (t.index >= 1 && t.index <= top) c->mask |= std::uint64_t{1} << t.index;
  }
  for (const Masked& c : cands) {
    const auto have = static_cast<std::uint32_t>(std::popcount(c.mask));
    // At least one real token required.
    if (have == 0 || top - have > jokers) continue;
    return core.consume_run(a, kind, c.q, c.qr, top - have);
  }
  return std::nullopt;
}

std::optional<SknoCore::Consumed> SknoCore::try_consume_scan(
    SknoCore& core, Agent& a, Token::Kind kind, std::optional<State> q_filter) {
  const std::uint32_t top = static_cast<std::uint32_t>(core.o_) + 1;
  auto& candidates = core.scratch_candidates_;
  candidates.clear();
  std::size_t jokers = 0;
  for (const Token& t : a.sending) {
    if (t.kind == Token::Kind::Joker) ++jokers;
    if (t.kind != kind || (q_filter && t.q != *q_filter)) continue;
    const std::pair<State, State> payload{t.q, t.qr};
    if (std::find(candidates.begin(), candidates.end(), payload) == candidates.end())
      candidates.push_back(payload);
  }
  auto& seen = core.scratch_taken_;
  for (const auto& [q, qr] : candidates) {
    seen.assign(top + 1, 0);
    std::uint32_t have = 0;
    for (const Token& t : a.sending) {
      if (t.kind != kind || t.q != q || t.qr != qr) continue;
      if (t.index < 1 || t.index > top || seen[t.index]) continue;
      seen[t.index] = 1;
      ++have;
    }
    if (have == 0 || top - have > jokers) continue;
    return core.consume_run(a, kind, q, qr, top - have);
  }
  return std::nullopt;
}

SknoCore::Consumed SknoCore::consume_run(Agent& a, Token::Kind kind, State q,
                                         State qr, std::uint32_t missing) {
  const std::uint32_t top = static_cast<std::uint32_t>(o_) + 1;
  auto& taken = scratch_taken_;
  taken.assign(top + 1, 0);
  std::uint32_t primary_index = top + 1;
  std::uint64_t primary = 0;
  std::uint32_t jokers_needed = missing;
  // Remove the canonical tokens, compacting the queue in place.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < a.sending.size(); ++i) {
    const Token& t = a.sending[i];
    bool drop = false;
    if (t.kind == Token::Kind::Joker) {
      if (jokers_needed > 0) {
        --jokers_needed;
        drop = true;
      }
    } else if (t.kind == kind && t.q == q && t.qr == qr && t.index >= 1 &&
               t.index <= top && !taken[t.index]) {
      taken[t.index] = 1;
      drop = true;
      if (t.index < primary_index) {
        primary_index = t.index;
        primary = t.run;
      }
    }
    if (drop) continue;
    if (kept != i) a.sending[kept] = t;
    ++kept;
  }
  a.sending.resize(kept);
  // The substituted values become joker debt, in index order.
  for (std::uint32_t i = 1; i <= top; ++i)
    if (!taken[i]) a.joker_debt.push_back(Token{kind, q, qr, i, 0});
  stats_.jokers_used += missing;
  return Consumed{primary, q, qr};
}

bool SknoCore::run_checks(Agent& a, Emits* emits, Footprint& fp) {
  bool acted = true;
  bool any = false;
  while (acted) {
    acted = false;
    if (a.pending) {
      // Preliminary check: the agent's own state-run came back — cancel
      // the transaction and withdraw the tokens.
      if (try_consume(a, Token::Kind::StateRun, a.sim_state)) {
        a.pending = false;
        ++stats_.cancels;
        acted = any = true;
        continue;
      }
      // Core (pending): a complete change run ⟨(own, qr), *⟩ completes the
      // starter half of the simulated interaction.
      if (auto c = try_consume(a, Token::Kind::ChangeRun, a.sim_state)) {
        const State before = a.sim_state;
        const State after = protocol_->delta(before, c->qr).starter;
        if (emits != nullptr)
          emits->push_back(Emit{before, after, Half::Starter, c->primary_run, c->qr});
        a.sim_state = after;
        a.pending = false;
        ++stats_.change_runs_consumed;
        acted = any = true;
        continue;
      }
    } else {
      // Core (available): a complete state run ⟨q, *⟩ simulates the
      // reactor half against a hypothetical partner in state q.
      if (auto c = try_consume(a, Token::Kind::StateRun, std::nullopt)) {
        const State before = a.sim_state;
        const State after = protocol_->delta(c->q, before).reactor;
        const std::uint64_t change_run = track_provenance_ ? next_run_++ : 0;
        if (emits != nullptr)
          emits->push_back(Emit{before, after, Half::Reactor, change_run, c->q});
        a.sim_state = after;
        for (std::uint32_t i = 1; i <= o_ + 1; ++i)
          a.sending.push_back(
              Token{Token::Kind::ChangeRun, c->q, before, i, change_run});
        ++stats_.state_runs_consumed;
        note_queue_size(a);
        acted = any = true;
        continue;
      }
    }
  }
  // Any check consuming a run rewrites the queue (and possibly the debt
  // list and sim_state) wholesale: the successor is built by full
  // re-serialization, not by patching.
  if (any) fp.kind = Footprint::Kind::Complex;
  return any;
}

void SknoCore::step(Agent& starter, Agent& reactor, bool omissive, OmitSide side,
                    Emits* starter_emits, Emits* reactor_emits) {
  footprint_ = StepFootprint{};
  Footprint& sfp = footprint_.starter;
  Footprint& rfp = footprint_.reactor;
  if (!omissive) {
    const auto tok = apply_g(starter, sfp);
    receive(reactor, tok, reactor_emits, rfp);
    return;
  }
  switch (model_) {
    case Model::T3: {
      // The I3 -> T3 embedding (Fig. 1 arrow): the wrapper only uses the
      // starter-to-reactor direction, with fs(s,r) := g(s) and o := g. A
      // starter-side omission therefore produces the outcome
      // (o(as), fr(as,ar)) = (g(as), f(as,ar)) — indistinguishable from a
      // fault-free delivery; only a reactor-side (or both-sides) omission
      // actually loses the token, and the reactor detects it via h.
      if (side == OmitSide::Starter) {
        const auto tok = apply_g(starter, sfp);
        receive(reactor, tok, reactor_emits, rfp);
        break;
      }
      [[fallthrough]];
    }
    case Model::I3: {
      // Relation {(g,f),(g,h)}: the starter pops blindly (the in-flight
      // token dies), the reactor detects and mints a joker.
      const auto tok = apply_g(starter, sfp);
      if (tok) ++stats_.tokens_killed;
      mint_joker(reactor, rfp);
      run_checks(reactor, reactor_emits, rfp);
      break;
    }
    case Model::I4: {
      // Relation {(g,f),(o,g)}: the starter detects — o keeps the queue
      // intact and mints the compensating joker; the reactor cannot
      // distinguish the event from acting as a starter and applies g,
      // popping its own front token into the void.
      mint_joker(starter, sfp);
      run_checks(starter, starter_emits, sfp);
      const auto tok = apply_g(reactor, rfp);
      if (tok) ++stats_.tokens_killed;
      break;
    }
    case Model::I1: {
      // No detection anywhere: the in-flight token silently dies and the
      // reactor does not even notice the interaction. This variant is NOT
      // a correct simulator — it is the natural candidate that the
      // Theorem 3.2 experiments kill with a single omission.
      const auto tok = apply_g(starter, sfp);
      if (tok) ++stats_.tokens_killed;
      break;
    }
    case Model::I2: {
      // Proximity but no omission detection: both parties apply g, so two
      // tokens die per omission and nobody can mint a compensating joker.
      const auto s_tok = apply_g(starter, sfp);
      if (s_tok) ++stats_.tokens_killed;
      const auto r_tok = apply_g(reactor, rfp);
      if (r_tok) ++stats_.tokens_killed;
      break;
    }
    default:
      throw std::logic_error("SknoCore: omission in non-omissive model");
  }
}

SknoSimulator::SknoSimulator(std::shared_ptr<const Protocol> protocol, Model model,
                             std::size_t omission_bound, std::vector<State> initial)
    : SknoSimulator(std::move(protocol), model, omission_bound, std::move(initial),
                    Options{}) {}

SknoSimulator::SknoSimulator(std::shared_ptr<const Protocol> protocol, Model model,
                             std::size_t omission_bound, std::vector<State> initial,
                             Options options)
    : Simulator(std::move(protocol), model, std::move(initial)),
      core_(&this->protocol(), model, omission_bound, options,
            /*track_provenance=*/true) {
  agents_.resize(num_agents());
  for (AgentId a = 0; a < num_agents(); ++a)
    agents_[a].sim_state = initial_projection()[a];
}

std::unique_ptr<Simulator> SknoSimulator::clone() const {
  return std::make_unique<SknoSimulator>(*this);
}

State SknoSimulator::simulated_state(AgentId a) const {
  return agents_.at(a).sim_state;
}

std::string SknoSimulator::describe() const {
  return "SKnO(" + model_name(model()) +
         ", o=" + std::to_string(core_.omission_bound()) + ")";
}

std::size_t SknoSimulator::total_live_tokens() const {
  std::size_t t = 0;
  for (const auto& a : agents_) t += a.sending.size();
  return t;
}

std::size_t SknoSimulator::live_jokers() const {
  std::size_t t = 0;
  for (const auto& a : agents_)
    for (const auto& tok : a.sending)
      if (tok.kind == Token::Kind::Joker) ++t;
  return t;
}

std::size_t SknoSimulator::memory_bits(AgentId idx) const {
  const SknoCore::Agent& a = agents_.at(idx);
  // Counting representation: a counter per distinct token value held, plus
  // the value tag itself (state ids + index), plus the simulator scalars.
  std::map<std::tuple<std::uint8_t, State, State, std::uint32_t>, std::size_t> counts;
  for (const auto& t : a.sending)
    ++counts[{static_cast<std::uint8_t>(t.kind), t.q, t.qr, t.index}];
  for (const auto& t : a.joker_debt)
    ++counts[{static_cast<std::uint8_t>(t.kind), t.q, t.qr, t.index}];
  const std::size_t state_bits = bits_for_count(protocol().num_states());
  const std::size_t tag_bits =
      2 + 2 * state_bits + bits_for_count(core_.omission_bound() + 1);
  std::size_t bits = state_bits + 1;  // sim_state + pending flag
  for (const auto& [value, c] : counts) bits += tag_bits + bits_for_count(c);
  return bits;
}

void SknoSimulator::do_interact(const Interaction& ia) {
  SknoCore::Emits starter_emits;
  SknoCore::Emits reactor_emits;
  core_.step(agents_[ia.starter], agents_[ia.reactor], ia.omissive, ia.side,
             &starter_emits, &reactor_emits);
  for (const auto& e : starter_emits)
    emit(ia.starter, e.before, e.after, e.half, e.key, e.partner);
  for (const auto& e : reactor_emits)
    emit(ia.reactor, e.before, e.after, e.half, e.key, e.partner);
}

}  // namespace ppfs
