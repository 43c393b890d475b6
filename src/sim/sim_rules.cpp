#include "sim/sim_rules.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "sim/tw_naive.hpp"
#include "util/audit.hpp"

namespace ppfs {

namespace {

// --- little-endian byte packing ---------------------------------------------

void put8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}
void put16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>(v >> 8));
}
void put32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

// Raw little-endian stores into stack buffers (the ByteEdit payloads of
// the patch-based successor path).
void put16_at(char* out, std::uint16_t v) {
  out[0] = static_cast<char>(v & 0xff);
  out[1] = static_cast<char>(v >> 8);
}
void put32_at(char* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

std::uint8_t get8(const char*& p) { return static_cast<std::uint8_t>(*p++); }
std::uint16_t get16(const char*& p) {
  const auto lo = static_cast<std::uint8_t>(*p++);
  const auto hi = static_cast<std::uint8_t>(*p++);
  return static_cast<std::uint16_t>(lo | (hi << 8));
}
std::uint32_t get32(const char*& p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(*p++)) << (8 * i);
  return v;
}

// --- SID / naming agent encodings -------------------------------------------

void encode_sid_agent(std::string& out, const SidAgent& a) {
  put8(out, a.active ? 1 : 0);
  put32(out, a.id);
  put32(out, a.sim_state);
  put8(out, static_cast<std::uint8_t>(a.status));
  put32(out, a.other_id);
  put32(out, a.other_state);
}

SidAgent decode_sid_agent(const char*& p) {
  SidAgent a;
  a.active = get8(p) != 0;
  a.id = get32(p);
  a.sim_state = get32(p);
  a.status = static_cast<SidAgent::Status>(get8(p));
  a.other_id = get32(p);
  a.other_state = get32(p);
  a.txn = 0;  // provenance: excluded from the canonical encoding
  return a;
}

// Delta path: the SidCore Action footprint names exactly which SidAgent
// fields react_value wrote, and they are contiguous in the encoding above —
// Pairing/Rollback rewrite [status u8][other_id u32][other_state u32] at
// +9, Lock/Complete extend left to [sim_state u32] at +5. `off` shifts the
// range for naming's layered record; `buf` (>= 13 bytes) must outlive the
// edit's application.
ByteEdit sid_action_edit(const SidAgent& me, SidCore::Action action,
                         std::size_t off, char* buf) {
  char* p = buf;
  std::size_t at = off + 9;
  if (SidCore::writes_sim_state(action)) {
    at = off + 5;
    put32_at(p, me.sim_state);
    p += 4;
  }
  *p++ = static_cast<char>(static_cast<std::uint8_t>(me.status));
  put32_at(p, me.other_id);
  p += 4;
  put32_at(p, me.other_state);
  p += 4;
  return ByteEdit::replace(at, {buf, static_cast<std::size_t>(p - buf)});
}

// Reactor-half cache key shared by SID and naming: the ordered (starter
// id, reactor id) pair, biased so 0 stays the "uncacheable" sentinel.
std::uint64_t sid_pair_key(State s, State r) {
  return ((s | r) >> 31) == 0
             ? ((static_cast<std::uint64_t>(s) << 31) | r) + 1
             : 0;
}

// --- SKnO token packing ------------------------------------------------------
//
// kind 2 bits | q 12 bits | qr 12 bits | index 6 bits, kNoState -> 0xfff.

constexpr std::uint32_t kNoStateField = 0xfff;

std::uint32_t pack_state12(State q) {
  return q == kNoState ? kNoStateField : static_cast<std::uint32_t>(q);
}
State unpack_state12(std::uint32_t f) {
  return f == kNoStateField ? kNoState : static_cast<State>(f);
}

std::uint32_t pack_token(const SknoCore::Token& t) {
  return static_cast<std::uint32_t>(t.kind) | (pack_state12(t.q) << 2) |
         (pack_state12(t.qr) << 14) | (t.index << 26);
}

SknoCore::Token unpack_token(std::uint32_t v) {
  SknoCore::Token t;
  t.kind = static_cast<SknoCore::Token::Kind>(v & 0x3);
  t.q = unpack_state12((v >> 2) & 0xfff);
  t.qr = unpack_state12((v >> 14) & 0xfff);
  t.index = v >> 26;
  t.run = 0;  // provenance: excluded from the canonical encoding
  return t;
}

}  // namespace

// --- SidRuleSource ----------------------------------------------------------

SidRuleSource::SidRuleSource(std::shared_ptr<const Protocol> protocol,
                             Model model, std::size_t n,
                             SidCore::Options options)
    : protocol_(std::move(protocol)), model_(model), n_(n), options_(options) {
  if (!protocol_) throw std::invalid_argument("SidRuleSource: null protocol");
  if (n_ < 2) throw std::invalid_argument("SidRuleSource: n >= 2 required");
  // Reactor-half cache default, sized for test-scale populations;
  // make_sim_rule_source scales it with n.
  set_internal_cache_capacity(1u << 12);
}

std::string SidRuleSource::describe() const {
  return "SID(" + model_name(model_) + ", count-space)";
}

State SidRuleSource::intern_agent(const SidAgent& a) {
  std::string bytes;
  bytes.reserve(18);
  encode_sid_agent(bytes, a);
  return universe_.intern(bytes);
}

SidAgent SidRuleSource::decode_agent(State s) const {
  const std::string& bytes = universe_.encoding(s);
  const char* p = bytes.data();
  return decode_sid_agent(p);
}

std::vector<State> SidRuleSource::intern_initial(const std::vector<State>& sim) {
  if (sim.size() != n_)
    throw std::invalid_argument("SidRuleSource: initial arity != n");
  std::vector<State> out(sim.size());
  for (std::size_t i = 0; i < sim.size(); ++i) {
    SidAgent a;
    a.active = true;
    a.id = static_cast<std::uint32_t>(i);  // SidSimulator's default ids
    a.sim_state = sim[i];
    out[i] = intern_agent(a);
  }
  return out;
}

State SidRuleSource::react(State reactor, State starter_snap) {
  SidAgent me = decode_agent(reactor);
  const SidAgent snap = decode_agent(starter_snap);
  const SidCore::ValueUpdate vu =
      SidCore::react_value(*protocol_, options_, me, snap);
  if (vu.action == SidCore::Action::None) return reactor;
  if (!use_patches_) return intern_agent(me);
  char buf[13];
  const ByteEdit edits[] = {sid_action_edit(me, vu.action, 0, buf)};
  const State out = universe_.intern_patched(reactor, edits);
  // The fuzz suite pins patch/full equality distributionally; this pins it
  // on every step of every Debug or audit-enabled test run.
  PPFS_AUDIT_ASSERT("SidRuleSource",
                    "patched successor matches full re-serialization", [&] {
                      std::string full;
                      full.reserve(18);
                      encode_sid_agent(full, me);
                      return universe_.encoding(out) == full;
                    }());
  return out;
}

StatePair SidRuleSource::outcome(InteractionClass c, State s, State r) {
  // Reactor-side only: omissions deliver nothing, under every model.
  if (c != InteractionClass::Real) return {s, r};
  // Reactor half, cached on the ordered (starter, reactor) id pair and
  // generation-validated on the reactor; the starter half is the identity.
  const std::uint64_t key = sid_pair_key(s, r);
  if (const StatePair* hit = react_cache_.find_raw(key, r))
    return {s, hit->reactor};
  const State r2 = react(r, s);
  react_cache_.insert_raw(key, r, {r2, r2});
  return {s, r2};
}

State SidRuleSource::project(State s) const {
  return decode_agent(s).sim_state;
}

// --- NamingRuleSource -------------------------------------------------------

NamingRuleSource::NamingRuleSource(std::shared_ptr<const Protocol> protocol,
                                   Model model, std::size_t n,
                                   SidCore::Options options)
    : SidRuleSource(std::move(protocol), model, n, options) {}

std::string NamingRuleSource::describe() const {
  return "Nn+SID(" + model_name(model_) + ", n=" + std::to_string(n_) +
         ", count-space)";
}

State NamingRuleSource::intern_full(const Full& f) {
  std::string bytes;
  bytes.reserve(26);
  put32(bytes, f.naming.my_id);
  put32(bytes, f.naming.max_id);
  encode_sid_agent(bytes, f.sid);
  return universe_.intern(bytes);
}

NamingRuleSource::Full NamingRuleSource::decode_full(State s) const {
  const std::string& bytes = universe_.encoding(s);
  const char* p = bytes.data();
  Full f;
  f.naming.my_id = get32(p);
  f.naming.max_id = get32(p);
  f.sid = decode_sid_agent(p);
  return f;
}

std::vector<State> NamingRuleSource::intern_initial(
    const std::vector<State>& sim) {
  if (sim.size() != n_)
    throw std::invalid_argument("NamingRuleSource: initial arity != n");
  // Everyone starts my_id = max_id = 1 with an inactive SID layer: agents
  // with equal simulated states share one wrapper state (no identities
  // yet — naming is the knowledge-of-n column).
  std::vector<State> out(sim.size());
  for (std::size_t i = 0; i < sim.size(); ++i) {
    Full f;
    f.sid.active = false;
    f.sid.id = kNoId;
    f.sid.sim_state = sim[i];
    out[i] = intern_full(f);
  }
  return out;
}

std::vector<std::pair<State, std::size_t>>
NamingRuleSource::intern_initial_groups(const std::vector<State>& sim) {
  if (sim.size() != n_)
    throw std::invalid_argument("NamingRuleSource: initial arity != n");
  // As intern_initial, interning each shared wrapper state once.
  auto groups = first_appearance_groups(sim, protocol_->num_states(),
                                        "NamingRuleSource");
  for (auto& [q, k] : groups) {
    Full f;
    f.sid.active = false;
    f.sid.id = kNoId;
    f.sid.sim_state = q;
    q = intern_full(f);
  }
  return groups;
}

State NamingRuleSource::react(State reactor, State starter_snap) {
  Full me = decode_full(reactor);
  const Full snap = decode_full(starter_snap);
  const NamingSimulator::StepEffects fx = NamingSimulator::naming_step(
      *protocol_, options_, n_, me.naming, me.sid, snap.naming, snap.sid);
  const bool naming_changed = fx.id_incremented || fx.max_id_changed;
  if (!naming_changed && !fx.activated &&
      fx.sid.action == SidCore::Action::None)
    return reactor;
  if (!use_patches_) return intern_full(me);
  // Layered footprint, up to two non-overlapping edits in offset order:
  // [my_id u32 @0][max_id u32 @4] when the Nn layer moved; activation
  // (rare: n events per run) rewrites the whole SID record at @8 — it
  // writes active/id, and in the same step the SID layer may act too;
  // otherwise the SID action patches its usual range shifted by +8.
  ByteEdit edits[2];
  std::size_t ne = 0;
  char head[8];
  if (naming_changed) {
    put32_at(head, me.naming.my_id);
    put32_at(head + 4, me.naming.max_id);
    edits[ne++] = ByteEdit::replace(0, {head, 8});
  }
  char sid_buf[18];
  if (fx.activated) {
    std::string full;
    full.reserve(18);
    encode_sid_agent(full, me.sid);
    full.copy(sid_buf, full.size());
    edits[ne++] = ByteEdit::replace(8, {sid_buf, full.size()});
  } else if (fx.sid.action != SidCore::Action::None) {
    edits[ne++] = sid_action_edit(me.sid, fx.sid.action, 8, sid_buf);
  }
  const State out = universe_.intern_patched(reactor, {edits, ne});
  PPFS_AUDIT_ASSERT("NamingRuleSource",
                    "patched successor matches full re-serialization", [&] {
                      std::string full;
                      full.reserve(26);
                      put32(full, me.naming.my_id);
                      put32(full, me.naming.max_id);
                      encode_sid_agent(full, me.sid);
                      return universe_.encoding(out) == full;
                    }());
  return out;
}

State NamingRuleSource::project(State s) const {
  return decode_full(s).sid.sim_state;
}

// --- SknoRuleSource ---------------------------------------------------------

SknoRuleSource::SknoRuleSource(std::shared_ptr<const Protocol> protocol,
                               Model model, std::size_t omission_bound,
                               SknoCore::Options options)
    : protocol_(std::move(protocol)),
      core_(protocol_.get(), model, omission_bound, options,
            /*track_provenance=*/false) {
  if (!protocol_) throw std::invalid_argument("SknoRuleSource: null protocol");
  if (protocol_->num_states() >= kNoStateField)
    throw std::invalid_argument(
        "SknoRuleSource: token packing supports at most 4094 simulated "
        "states (kind 2 | q 12 | qr 12 | index 6 u32 packing, " +
        std::to_string(protocol_->num_states()) + " given)");
  if (omission_bound > 62)
    throw std::invalid_argument(
        "SknoRuleSource: token packing supports omission bounds o <= 62 "
        "(run indices 1..o+1 in 6 bits, o = " +
        std::to_string(omission_bound) + " given)");
  // Source-internal caches (the decomposed delta path): (token, reactor)
  // receive successors and per-state g successors. Default sized for
  // test-scale populations; make_sim_rule_source scales them with n.
  set_internal_cache_capacity(1u << 12);
}

std::string SknoRuleSource::describe() const {
  return "SKnO(" + model_name(core_.model()) +
         ", o=" + std::to_string(core_.omission_bound()) + ", count-space)";
}

void SknoRuleSource::encode_agent_into(const SknoCore::Agent& a,
                                       std::string& bytes) const {
  if (a.sending.size() > 0xffff || a.joker_debt.size() > 0xffff)
    throw std::length_error("SknoRuleSource: queue exceeds the u16 encoding");
  bytes.clear();
  bytes.reserve(5 + 4 * (a.sending.size() + a.joker_debt.size()) + 4);
  put16(bytes, static_cast<std::uint16_t>(a.sim_state));
  put8(bytes, a.pending ? 1 : 0);
  put16(bytes, static_cast<std::uint16_t>(a.sending.size()));
  for (const auto& t : a.sending) put32(bytes, pack_token(t));
  // The debt list is looked up by value only — sort to canonicalize.
  auto& debt = debt_scratch_;
  debt.clear();
  debt.reserve(a.joker_debt.size());
  for (const auto& t : a.joker_debt) debt.push_back(pack_token(t));
  std::sort(debt.begin(), debt.end());
  put16(bytes, static_cast<std::uint16_t>(debt.size()));
  for (std::uint32_t v : debt) put32(bytes, v);
}

std::string SknoRuleSource::encode_agent(const SknoCore::Agent& a) const {
  std::string bytes;
  encode_agent_into(a, bytes);
  return bytes;
}

State SknoRuleSource::intern_agent(const SknoCore::Agent& a) {
  encode_agent_into(a, enc_scratch_);
  return universe_.intern(enc_scratch_);
}

// Delta path helpers: the byte layout of the two starter-g successor
// shapes lives here and nowhere else. Layout (see file header):
// [sim u16 @0][pending u8 @2][nq u16 @3][queue @5, 4 bytes/token]
// [nd u16 @5+4nq][debt ...].
State SknoRuleSource::intern_pop_front(State base, std::uint16_t nq) {
  char hdr[2];
  put16_at(hdr, static_cast<std::uint16_t>(nq - 1));
  const ByteEdit edits[] = {ByteEdit::replace(3, {hdr, 2}),
                            ByteEdit::erase(5, 4)};
  return universe_.intern_patched(base, edits);
}

State SknoRuleSource::intern_refilled(State base, State sim) {
  // Pre-state is available with an empty queue; the successor is pending
  // with the own-state run's indices 2..o+1 (index 1 was popped).
  const std::size_t o = core_.omission_bound();
  char hdr[3];
  hdr[0] = 1;  // pending
  put16_at(hdr + 1, static_cast<std::uint16_t>(o));
  char toks[62 * 4];  // o <= 62
  for (std::size_t i = 0; i < o; ++i)
    put32_at(toks + 4 * i,
             pack_token(SknoCore::Token{SknoCore::Token::Kind::StateRun, sim,
                                        kNoState,
                                        static_cast<std::uint32_t>(i + 2), 0}));
  const ByteEdit edits[] = {ByteEdit::replace(2, {hdr, 3}),
                            ByteEdit::insert(5, {toks, 4 * o})};
  return universe_.intern_patched(base, edits);
}

// Delta path: the footprint names which of the frequent single-slot
// mutations the step performed, and the successor encoding is derived from
// the pre-state bytes by patching the header and at most one queue slot —
// O(changed bytes + memmove) instead of decode-order-independent full
// re-serialization.
State SknoRuleSource::intern_successor(State base, const SknoCore::Agent& post,
                                       const SknoCore::Footprint& fp) {
  using Kind = SknoCore::Footprint::Kind;
  if (fp.kind == Kind::Unchanged) return base;
  State out = kNoState;
  if (!use_patches_ || fp.kind == Kind::Complex) {
    out = intern_agent(post);
  } else if (fp.kind == Kind::PoppedFront) {
    const char* p = universe_.encoding(base).data() + 3;
    out = intern_pop_front(base, get16(p));
  } else if (fp.kind == Kind::Appended) {
    const char* p = universe_.encoding(base).data() + 3;
    const std::uint16_t nq = get16(p);
    char hdr[2];
    put16_at(hdr, static_cast<std::uint16_t>(nq + 1));
    char tok[4];
    put32_at(tok, pack_token(fp.appended));
    const ByteEdit edits[] = {
        ByteEdit::replace(3, {hdr, 2}),
        ByteEdit::insert(5 + 4 * static_cast<std::size_t>(nq), {tok, 4})};
    out = universe_.intern_patched(base, edits);
  } else {  // Kind::Refilled
    out = intern_refilled(base, post.sim_state);
  }
  // The fuzz suite pins patch/full equality distributionally; this pins it
  // on every step of every Debug or audit-enabled test run.
  PPFS_AUDIT_ASSERT("SknoRuleSource",
                    "patched successor matches full re-serialization",
                    universe_.encoding(out) == encode_agent(post));
  return out;
}

void SknoRuleSource::decode_agent_into(State s, SknoCore::Agent& a) const {
  const std::string& bytes = universe_.encoding(s);
  const char* p = bytes.data();
  a.sending.clear();
  a.joker_debt.clear();
  a.sim_state = get16(p);
  a.pending = get8(p) != 0;
  const std::size_t nq = get16(p);
  for (std::size_t i = 0; i < nq; ++i) a.sending.push_back(unpack_token(get32(p)));
  const std::size_t nd = get16(p);
  a.joker_debt.reserve(nd);
  for (std::size_t i = 0; i < nd; ++i) a.joker_debt.push_back(unpack_token(get32(p)));
}

SknoCore::Agent SknoRuleSource::decode_agent(State s) const {
  SknoCore::Agent a;
  decode_agent_into(s, a);
  return a;
}

std::vector<State> SknoRuleSource::intern_initial(const std::vector<State>& sim) {
  std::vector<State> out(sim.size());
  for (std::size_t i = 0; i < sim.size(); ++i) {
    SknoCore::Agent a;
    a.sim_state = sim[i];
    out[i] = intern_agent(a);
  }
  return out;
}

std::vector<std::pair<State, std::size_t>>
SknoRuleSource::intern_initial_groups(const std::vector<State>& sim) {
  // Agents start available with empty queues, so equal simulated states
  // share one wrapper state, interned once.
  auto groups = first_appearance_groups(sim, protocol_->num_states(),
                                        "SknoRuleSource");
  for (auto& [q, k] : groups) {
    SknoCore::Agent a;
    a.sim_state = q;
    q = intern_agent(a);
  }
  return groups;
}

State SknoRuleSource::starter_after_g(State s, SknoCore::Token& tok,
                                      bool& transmits) {
  const std::string& enc = universe_.encoding(s);
  const char* p = enc.data();
  const State sim = get16(p);
  const bool pending = get8(p) != 0;
  const std::uint16_t nq = get16(p);
  if (nq > 0) {
    // Pop the front token.
    tok = unpack_token(get32(p));
    transmits = true;
    return intern_pop_front(s, nq);
  }
  if (pending) {
    transmits = false;  // silent: pending with an empty queue
    return s;
  }
  // Refill with the own-state run 1..o+1, then pop index 1.
  tok = SknoCore::Token{SknoCore::Token::Kind::StateRun, sim, kNoState, 1, 0};
  transmits = true;
  return intern_refilled(s, sim);
}

// Packed-token sentinel for "silent" in g_tok_: kind bits 0x3 are never
// produced by pack_token (Token::Kind has three values).
constexpr std::uint32_t kSilentTok = 0xffffffffu;

State SknoRuleSource::starter_after_g_cached(State s, SknoCore::Token& tok,
                                             bool& transmits) {
  const std::uint64_t key = static_cast<std::uint64_t>(s) + 1;
  if (const StatePair* hit = g_cache_.find_raw(key, s)) {
    const std::uint32_t packed = g_tok_[s];
    if (packed == kSilentTok) {
      transmits = false;
      return s;
    }
    tok = unpack_token(packed);
    transmits = true;
    return hit->starter;
  }
  const State s2 = starter_after_g(s, tok, transmits);
  if (s >> 31 == 0 && s2 >> 31 == 0) {
    if (g_tok_.size() <= s) g_tok_.resize(universe_.capacity(), kSilentTok);
    g_tok_[s] = transmits ? pack_token(tok) : kSilentTok;
    g_cache_.insert_raw(key, s, {s2, s2});
  }
  return s2;
}

State SknoRuleSource::receive_cached(State r, const SknoCore::Token& tok) {
  const std::uint64_t key =
      r >> 31 == 0
          ? ((static_cast<std::uint64_t>(pack_token(tok)) << 31) | r) + 1
          : 0;
  if (const StatePair* hit = recv_cache_.find_raw(key, r)) return hit->starter;
  decode_agent_into(r, scratch_reactor_);
  SknoCore::Footprint fp;
  core_.receive_one(scratch_reactor_, tok, fp);
  const State r2 = intern_successor(r, scratch_reactor_, fp);
  recv_cache_.insert_raw(key, r, {r2, r2});
  return r2;
}

StatePair SknoRuleSource::outcome_by_step(InteractionClass c, State s, State r) {
  SknoCore::Agent& starter = scratch_starter_;
  SknoCore::Agent& reactor = scratch_reactor_;
  decode_agent_into(s, starter);
  decode_agent_into(r, reactor);
  const bool omissive = c != InteractionClass::Real;
  const OmitSide side = c == InteractionClass::OmitStarter ? OmitSide::Starter
                        : c == InteractionClass::OmitReactor
                            ? OmitSide::Reactor
                            : OmitSide::Both;
  core_.step(starter, reactor, omissive, side, nullptr, nullptr);
  // Intern both successors (patch-based when the footprint allows) before
  // either pre-state could be released.
  const SknoCore::StepFootprint& fp = core_.last_footprint();
  const State s2 = intern_successor(s, starter, fp.starter);
  const State r2 = intern_successor(r, reactor, fp.reactor);
  return {s2, r2};
}

StatePair SknoRuleSource::outcome(InteractionClass c, State s, State r) {
  // Reference path (and the fuzz suite's comparison baseline): run the
  // shared value-level core wholesale.
  if (!use_patches_) return outcome_by_step(c, s, r);

  // Delta path: every step decomposes into the decode-free starter
  // routine g (header peek + patch) and/or the (token, reactor)-cached
  // receive half — the same value chain SknoCore::step realizes, pinned
  // by the lockstep suites across all models and sides.
  static const SknoCore::Token kJoker{SknoCore::Token::Kind::Joker, kNoState,
                                      kNoState, 0, 0};
  SknoCore::Token tok;
  bool transmits = false;
  const Model m = core_.model();
  if (c == InteractionClass::Real ||
      (m == Model::T3 && c == InteractionClass::OmitStarter)) {
    // Fault-free delivery shape (a T3 starter-side omission is
    // indistinguishable from one — see SknoCore::step): g, then receive.
    // A silent starter transmits nothing and the reactor's checks cannot
    // act (every interned state is check-stable), so the reactor is
    // untouched.
    const State s2 = starter_after_g_cached(s, tok, transmits);
    const State r2 = transmits ? receive_cached(r, tok) : r;
    return {s2, r2};
  }
  switch (m) {
    case Model::T3:
    case Model::I3: {
      // Starter pops blindly (the in-flight token dies), reactor detects:
      // minting the joker + checks == receiving a joker token.
      const State s2 = starter_after_g_cached(s, tok, transmits);
      const State r2 = receive_cached(r, kJoker);
      return {s2, r2};
    }
    case Model::I4: {
      // Starter detects (keeps its queue, gains the compensating joker);
      // the reactor behaves as a starter, popping into the void.
      const State s2 = receive_cached(s, kJoker);
      const State r2 = starter_after_g_cached(r, tok, transmits);
      return {s2, r2};
    }
    case Model::I1: {
      const State s2 = starter_after_g_cached(s, tok, transmits);
      return {s2, r};
    }
    case Model::I2: {
      const State s2 = starter_after_g_cached(s, tok, transmits);
      const State r2 = starter_after_g_cached(r, tok, transmits);
      return {s2, r2};
    }
    default:
      throw std::logic_error("SknoRuleSource: omission in non-omissive model");
  }
}

State SknoRuleSource::project(State s) const {
  const std::string& bytes = universe_.encoding(s);
  const char* p = bytes.data();
  return get16(p);
}

bool SknoRuleSource::starter_silent(State s) {
  // Header-only peek: pending with an empty queue transmits nothing.
  const std::string& bytes = universe_.encoding(s);
  const char* p = bytes.data() + 2;
  const bool pending = get8(p) != 0;
  const std::size_t nq = get16(p);
  return pending && nq == 0;
}

// --- construction glue ------------------------------------------------------

SimSpec parse_sim_spec(const std::string& spec) {
  SimSpec s;
  const std::size_t colon = spec.find(':');
  s.kind = spec.substr(0, colon == std::string::npos ? spec.size() : colon);
  if (s.kind != "naive" && s.kind != "skno" && s.kind != "sid" &&
      s.kind != "naming")
    throw std::invalid_argument("parse_sim_spec: unknown simulator '" + s.kind +
                                "' (want naive|skno|sid|naming)");
  if (colon == std::string::npos) return s;
  const std::string rest = spec.substr(colon + 1);
  if (rest.rfind("o=", 0) != 0 || s.kind != "skno")
    throw std::invalid_argument("parse_sim_spec: bad option '" + rest +
                                "' in '" + spec + "' (only skno:o=K)");
  try {
    std::size_t used = 0;
    s.omission_bound = std::stoul(rest.substr(2), &used);
    if (used != rest.size() - 2) throw std::invalid_argument("trailing");
  } catch (const std::exception&) {
    throw std::invalid_argument("parse_sim_spec: bad omission bound in '" +
                                spec + "'");
  }
  return s;
}

Model default_sim_model(const SimSpec& spec) {
  if (spec.kind == "naive") return Model::TW;
  if (spec.kind == "skno") return spec.omission_bound == 0 ? Model::IT : Model::I3;
  return Model::IO;  // sid / naming: the weakest model
}

std::unique_ptr<DynamicRuleSource> make_sim_rule_source(
    const SimSpec& spec, Model model, std::shared_ptr<const Protocol> protocol,
    std::size_t n) {
  if (spec.kind == "naive") {
    if (is_one_way(model))
      throw std::invalid_argument(
          "make_sim_rule_source: the naive simulator requires a two-way model");
    return std::make_unique<MatrixRuleSource>(
        RuleMatrix::compile(std::move(protocol), model));
  }
  if (spec.kind == "skno") {
    auto src = std::make_unique<SknoRuleSource>(std::move(protocol), model,
                                                spec.omission_bound);
    // Scale the internal (token, reactor) and g-successor caches with the
    // population: live wrapper states track n.
    src->set_internal_cache_capacity(std::min<std::size_t>(
        1u << 16, std::max<std::size_t>(n * 2, 1u << 12)));
    return src;
  }
  // SID/naming reactor-half caches: the hot key space is the ordered pair
  // of per-agent wrapper ids, so give it more headroom than SKnO's
  // token-keyed caches (still bounded — at large n the pair space outruns
  // any cache and the regime monitor sends such runs to agent space).
  const std::size_t sid_cache = std::min<std::size_t>(
      1u << 20, std::max<std::size_t>(n * 8, 1u << 12));
  if (spec.kind == "sid") {
    auto src = std::make_unique<SidRuleSource>(std::move(protocol), model, n);
    src->set_internal_cache_capacity(sid_cache);
    return src;
  }
  if (spec.kind == "naming") {
    auto src =
        std::make_unique<NamingRuleSource>(std::move(protocol), model, n);
    src->set_internal_cache_capacity(sid_cache);
    return src;
  }
  throw std::invalid_argument("make_sim_rule_source: unknown simulator '" +
                              spec.kind + "'");
}

std::unique_ptr<Simulator> make_spec_simulator(
    const SimSpec& spec, Model model, std::shared_ptr<const Protocol> protocol,
    std::vector<State> initial) {
  if (spec.kind == "naive")
    return std::make_unique<TwSimulator>(std::move(protocol), model,
                                         std::move(initial));
  if (spec.kind == "skno")
    return std::make_unique<SknoSimulator>(std::move(protocol), model,
                                           spec.omission_bound,
                                           std::move(initial));
  if (spec.kind == "sid")
    return std::make_unique<SidSimulator>(std::move(protocol), model,
                                          std::move(initial));
  if (spec.kind == "naming")
    return std::make_unique<NamingSimulator>(std::move(protocol), model,
                                             std::move(initial));
  throw std::invalid_argument("make_spec_simulator: unknown simulator '" +
                              spec.kind + "'");
}

}  // namespace ppfs
