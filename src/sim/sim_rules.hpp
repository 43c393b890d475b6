// Count-space rule sources for the paper's simulators (§4): each simulator
// is exposed as a DynamicRuleSource (core/dynamic_rules.hpp) — a pure
// (wrapper_s, wrapper_r, class) -> outcome transition function over an
// interned, lazily-discovered state universe — so the sparse batch engine
// (engine/batch/sim_batch_system.hpp) executes the *simulator* in count
// space exactly like any protocol. The value-level cores are shared with
// the step-wise Simulator classes (SknoCore::step, SidCore::react_value,
// NamingSimulator::naming_step), so both execution paths realize the
// identical chain; only harness-side provenance (run/txn ids, SimEvents)
// is step-wise-only.
//
// Canonical encodings (all fields little-endian):
//   * naive    — no wrapper state: the simulated state IS the wrapper
//                state, so the source is a plain MatrixRuleSource over the
//                compiled RuleMatrix (identity o/h = the naive faulty
//                outcomes).
//   * SID      — [active u8][id u32][sim_state u32][status u8]
//                [other_id u32][other_state u32]; the lock txn id is
//                excluded (write-only provenance).
//   * naming   — [my_id u32][max_id u32] followed by the SID fields.
//   * SKnO     — [sim_state u16][pending u8][nq u16][queue tokens in FIFO
//                order][nd u16][debt tokens sorted]; each token packs into
//                a u32 (kind 2 | q 12 | qr 12 | index 6, kNoState -> 0xfff),
//                run ids excluded. Requires num_states <= 4094 and
//                o <= 62.
//
// SID and naming are reactor-side only: the starter's wrapper state never
// changes and omissive interactions deliver nothing (omission_transparent).
// Their per-agent unique ids make wrapper states non-exchangeable, so the
// universe holds >= n live states — correct at any n, but count space pays
// off mainly for SKnO (anonymous tokens, states collapse) and naive
// (closed universe).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/dynamic_rules.hpp"
#include "sim/naming.hpp"
#include "sim/sid.hpp"
#include "sim/skno.hpp"
#include "sim/simulator.hpp"

namespace ppfs {

// Reactor-side-only shared base: starter untouched, omissions transparent,
// reactor successors delta-patched from the pre-state bytes (the SidCore
// Action footprint names the changed range) and cached per ordered pair in
// a bounded, generation-validated OutcomeCache (no releases here — the
// wrapper population per agent id is closed — so validation only guards
// hypothetical recycling subclasses).
class SidRuleSource : public DynamicRuleSource {
 public:
  // Ids 0..n-1, matching SidSimulator's default id assignment.
  SidRuleSource(std::shared_ptr<const Protocol> protocol, Model model,
                std::size_t n, SidCore::Options options = {});

  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] Model model() const override { return model_; }
  [[nodiscard]] const Protocol& protocol() const override { return *protocol_; }
  [[nodiscard]] std::shared_ptr<const Protocol> protocol_ptr() const override {
    return protocol_;
  }
  [[nodiscard]] std::size_t universe_size() const override {
    return universe_.capacity();
  }
  [[nodiscard]] std::vector<State> intern_initial(
      const std::vector<State>& sim) override;
  [[nodiscard]] StatePair outcome(InteractionClass c, State s,
                                  State r) override;
  [[nodiscard]] State project(State s) const override;
  [[nodiscard]] bool omission_transparent() const override { return true; }
  // The internal reactor-half cache below covers the only non-trivial
  // outcome half (the starter half is the identity): the engine-level
  // outcome cache would only duplicate it.
  [[nodiscard]] bool self_caching() const override { return true; }
  // A SID (and naming) value step is a handful of struct-field updates; a
  // count-space cached fire (probe + patched intern + count moves) costs
  // ~50 of them (measured on naming-gap at n = 4096: ~0.58M fires/s in
  // count space vs ~29M value steps/s native), so count space only pays
  // off in >= ~98% no-op windows where leaping carries the load. (Covers
  // NamingRuleSource too.)
  [[nodiscard]] double fire_cost_ratio() const override { return 0.02; }
  [[nodiscard]] std::uint64_t fresh_interned() const override {
    return universe_.fresh();
  }

  // Successor construction strategy: with patches on (the default), react()
  // turns the SidCore Action footprint into one ByteEdit against the
  // pre-state bytes (Pairing/Rollback rewrite [status][other_id]
  // [other_state], Lock/Complete extend left to [sim_state]) interned via
  // StateUniverse::intern_patched. Off = always decode + react_value +
  // re-serialize — the reference path the encode/patch/decode fuzz suite
  // compares against.
  void set_use_patches(bool on) noexcept { use_patches_ = on; }
  [[nodiscard]] bool use_patches() const noexcept { return use_patches_; }

  // The canonical bytes of a live interned id (diagnostics and the
  // encode/patch/decode fuzz suite, which pins patch-built successors
  // byte-identical to full re-serialization).
  [[nodiscard]] const std::string& state_encoding(State s) const {
    return universe_.encoding(s);
  }

  // Bound (entries) for the reactor-half cache; make_sim_rule_source
  // scales it with the population.
  void set_internal_cache_capacity(std::size_t capacity) {
    react_cache_.set_capacity(capacity);
  }

  // --- agent-space bridge (engine=auto) ------------------------------------
  // Decode a live wrapper id into its per-agent record / intern a record
  // back: the auto engine's representation switch, kept here so the byte
  // layout stays private to the source.
  [[nodiscard]] SidAgent decode_wrapper(State s) const {
    return decode_agent(s);
  }
  [[nodiscard]] State intern_wrapper(const SidAgent& a) {
    return intern_agent(a);
  }
  [[nodiscard]] const SidCore::Options& sid_options() const noexcept {
    return options_;
  }
  // The population size the source was built for (SID id range / naming
  // activation threshold).
  [[nodiscard]] std::size_t population() const noexcept { return n_; }

  void export_metrics(obs::MetricRegistry& reg) const override {
    DynamicRuleSource::export_metrics(reg);
    const OutcomeCache::Stats& s = react_cache_.stats();
    reg.counter("cache.react.hits").set(s.hits);
    reg.counter("cache.react.misses").set(s.misses);
    reg.counter("cache.react.evictions").set(s.evictions);
    reg.counter("cache.react.stale_drops").set(s.stale_drops);
  }

  // Runtime-contract audit: universe table consistency plus generation
  // validity of the engine-level and reactor-half caches against its
  // liveness. The id population here is closed (no releases), so the
  // cache audits guard the hypothetical recycling subclasses the
  // generation machinery exists for. Covers NamingRuleSource too.
  void audit_invariants() const override {
    universe_.audit_invariants("SidRuleSource.universe");
    const auto live = [this](State s) { return universe_.is_live(s); };
    audit_outcome_cache("SidRuleSource.outcome_cache", live);
    react_cache_.audit_live_outputs("SidRuleSource.react_cache", live);
  }

  // Checkpoint payload: the interned universe only. Config (protocol,
  // model, n, options, patch flag) is rebuilt by the restoring process;
  // the reactor-half cache restarts cold (cache-invisibility contract).
  // Covers NamingRuleSource too — the naming layer adds no mutable state.
  [[nodiscard]] bool checkpointable() const override { return true; }

 protected:
  friend struct AuditTestPeer;  // mutation-smoke state corruption (tests)

  void wire_metrics(obs::MetricRegistry* reg) override {
    universe_.set_metrics(reg);
  }

  void do_save_source(bin::Writer& w) const override {
    universe_.save_state(w);
  }
  void do_restore_source(bin::Reader& r) override {
    universe_.restore_state(r);
    react_cache_.clear();
  }

  // The reactor's value-level step; overridden by the naming layer.
  [[nodiscard]] virtual State react(State reactor, State starter_snap);

  [[nodiscard]] State intern_agent(const SidAgent& a);
  [[nodiscard]] SidAgent decode_agent(State s) const;

  std::shared_ptr<const Protocol> protocol_;
  Model model_;
  std::size_t n_;
  SidCore::Options options_;
  StateUniverse universe_;
  bool use_patches_ = true;
  // ((s << 31) | r) + 1 -> reactor post-state (payload duplicated into
  // both halves, like SKnO's receive cache); the starter never changes.
  OutcomeCache react_cache_;
};

// Nn + SID composition (§4.3): the naming layer rides in front of the SID
// fields; activation fires when max_id reaches the known n.
class NamingRuleSource final : public SidRuleSource {
 public:
  NamingRuleSource(std::shared_ptr<const Protocol> protocol, Model model,
                   std::size_t n, SidCore::Options options = {});

  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::vector<State> intern_initial(
      const std::vector<State>& sim) override;
  [[nodiscard]] std::vector<std::pair<State, std::size_t>>
  intern_initial_groups(const std::vector<State>& sim) override;
  [[nodiscard]] State project(State s) const override;

  // The full two-layer record of one agent (Nn head + SID body).
  struct Full {
    NamingSimulator::NamingState naming;
    SidAgent sid;
  };

  // Agent-space bridge (engine=auto), layered analogue of the SID one.
  [[nodiscard]] Full decode_wrapper_full(State s) const {
    return decode_full(s);
  }
  [[nodiscard]] State intern_wrapper_full(const Full& f) {
    return intern_full(f);
  }

 protected:
  [[nodiscard]] State react(State reactor, State starter_snap) override;

 private:
  [[nodiscard]] State intern_full(const Full& f);
  [[nodiscard]] Full decode_full(State s) const;
};

// SKnO (§4.1) in count space: open universe (zero-count states are
// released and ids recycled), one-way-factored no-op structure (the Real
// class is a no-op iff the starter is pending with an empty queue).
class SknoRuleSource final : public DynamicRuleSource {
 public:
  SknoRuleSource(std::shared_ptr<const Protocol> protocol, Model model,
                 std::size_t omission_bound, SknoCore::Options options = {});

  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] Model model() const override { return core_.model(); }
  [[nodiscard]] const Protocol& protocol() const override { return *protocol_; }
  [[nodiscard]] std::shared_ptr<const Protocol> protocol_ptr() const override {
    return protocol_;
  }
  [[nodiscard]] std::size_t universe_size() const override {
    return universe_.capacity();
  }
  [[nodiscard]] std::vector<State> intern_initial(
      const std::vector<State>& sim) override;
  [[nodiscard]] std::vector<std::pair<State, std::size_t>>
  intern_initial_groups(const std::vector<State>& sim) override;
  [[nodiscard]] StatePair outcome(InteractionClass c, State s,
                                  State r) override;
  [[nodiscard]] State project(State s) const override;

  [[nodiscard]] bool open_universe() const override { return true; }
  [[nodiscard]] bool real_noop_factors() const override { return true; }
  [[nodiscard]] bool self_caching() const override { return use_patches_; }
  // An SKnO value step runs the full token-queue machinery (dequeue,
  // receive, debt bookkeeping) — measured ~10x the cost of a cached
  // delta-fire on the o=8 acceptance window — so fire-heavy windows do
  // NOT argue against count space here.
  [[nodiscard]] double fire_cost_ratio() const override { return 8.0; }
  [[nodiscard]] std::uint64_t fresh_interned() const override {
    return universe_.fresh();
  }
  [[nodiscard]] bool starter_silent(State s) override;

  [[nodiscard]] std::size_t live_states() const noexcept {
    return universe_.live();
  }
  // The canonical bytes of a live interned id (diagnostics and the
  // encode/patch/decode fuzz suite, which pins patch-built successors
  // byte-identical to full re-serialization).
  [[nodiscard]] const std::string& state_encoding(State s) const {
    return universe_.encoding(s);
  }

  // Successor construction strategy: with patches on (the default), each
  // outcome() decomposes into the decode-free starter routine g (a header
  // peek plus ByteEdits against the pre-state bytes, interned via
  // StateUniverse::intern_patched) and the reactor receive half, cached
  // on (transmitted token, reactor id) — so neither a repeated pair nor a
  // fresh pair whose token/reactor combination was seen before ever
  // re-serializes the whole [sim][pending][queue][debt] record. Complex
  // receive steps (run consumption, debt traffic) fall back to full
  // re-serialization. Off = always decode + SknoCore::step +
  // re-serialize — the reference path the encode/patch/decode fuzz suite
  // compares against.
  void set_use_patches(bool on) noexcept { use_patches_ = on; }
  [[nodiscard]] bool use_patches() const noexcept { return use_patches_; }

  // --- agent-space bridge (engine=auto) ------------------------------------
  // The value core (model/omission bound/options for a sibling agent-space
  // core) and the decode/intern pair the representation switch rides on.
  [[nodiscard]] const SknoCore& core() const noexcept { return core_; }
  void decode_wrapper_into(State s, SknoCore::Agent& out) const {
    decode_agent_into(s, out);
  }
  [[nodiscard]] State intern_wrapper(const SknoCore::Agent& a) {
    return intern_agent(a);
  }

  // Bound (entries) for the source-internal receive and g-successor
  // caches; make_sim_rule_source scales it with the population.
  void set_internal_cache_capacity(std::size_t capacity) {
    recv_cache_.set_capacity(capacity);
    g_cache_.set_capacity(capacity);
  }

  void export_metrics(obs::MetricRegistry& reg) const override {
    DynamicRuleSource::export_metrics(reg);
    const OutcomeCache::Stats& rs = recv_cache_.stats();
    reg.counter("cache.recv.hits").set(rs.hits);
    reg.counter("cache.recv.misses").set(rs.misses);
    reg.counter("cache.recv.evictions").set(rs.evictions);
    reg.counter("cache.recv.stale_drops").set(rs.stale_drops);
    const OutcomeCache::Stats& gs = g_cache_.stats();
    reg.counter("cache.g.hits").set(gs.hits);
    reg.counter("cache.g.misses").set(gs.misses);
    reg.counter("cache.g.evictions").set(gs.evictions);
    reg.counter("cache.g.stale_drops").set(gs.stale_drops);
  }

  // Runtime-contract audit: universe table consistency (ids here really
  // do recycle) plus generation validity of every cache layer against
  // its liveness — a do_release that skipped an invalidate leaves a
  // valid-looking entry behind, ready to resurrect a recycled id; this
  // is the auditor that catches it.
  void audit_invariants() const override {
    universe_.audit_invariants("SknoRuleSource.universe");
    const auto live = [this](State s) { return universe_.is_live(s); };
    audit_outcome_cache("SknoRuleSource.outcome_cache", live);
    recv_cache_.audit_live_outputs("SknoRuleSource.recv_cache", live);
    g_cache_.audit_live_outputs("SknoRuleSource.g_cache", live);
  }

  // Checkpoint payload: the interned universe (free-list order included —
  // ids recycle here). The receive/g caches and the g token memo restart
  // cold: every successor a cold miss interns is already live in the
  // restored universe, so re-derivation cannot perturb id assignment.
  [[nodiscard]] bool checkpointable() const override { return true; }

 protected:
  friend struct AuditTestPeer;  // mutation-smoke state corruption (tests)

  void wire_metrics(obs::MetricRegistry* reg) override {
    universe_.set_metrics(reg);
  }

  void do_release(State s) override {
    recv_cache_.invalidate(s);
    g_cache_.invalidate(s);
    universe_.release(s);
  }

  void do_save_source(bin::Writer& w) const override {
    universe_.save_state(w);
  }
  void do_restore_source(bin::Reader& r) override {
    universe_.restore_state(r);
    recv_cache_.clear();
    g_cache_.clear();
    g_tok_.clear();  // memoized in tandem with g_cache_; rebuilt on demand
  }

 private:
  void encode_agent_into(const SknoCore::Agent& a, std::string& out) const;
  [[nodiscard]] std::string encode_agent(const SknoCore::Agent& a) const;
  [[nodiscard]] State intern_agent(const SknoCore::Agent& a);
  [[nodiscard]] State intern_successor(State base, const SknoCore::Agent& post,
                                       const SknoCore::Footprint& fp);
  void decode_agent_into(State s, SknoCore::Agent& out) const;
  [[nodiscard]] SknoCore::Agent decode_agent(State s) const;

  // The two byte-patch successor shapes of the starter routine g, shared
  // by intern_successor and starter_after_g (the byte layout lives in
  // exactly one place): remove the queue's front token (`nq` = pre-pop
  // length), and refill an available empty-queue agent with its own-state
  // run's indices 2..o+1.
  [[nodiscard]] State intern_pop_front(State base, std::uint16_t nq);
  [[nodiscard]] State intern_refilled(State base, State sim);
  // Decode-free starter routine g on the interned encoding: silent states
  // return themselves (`transmits` false); otherwise the successor is a
  // PoppedFront/Refilled patch and `tok` is the transmitted token.
  [[nodiscard]] State starter_after_g(State s, SknoCore::Token& tok,
                                      bool& transmits);
  // Same, memoized per state id (g depends on nothing else), so a hot
  // starter pays one table probe instead of a patch + intern.
  [[nodiscard]] State starter_after_g_cached(State s, SknoCore::Token& tok,
                                             bool& transmits);
  // Reactor receive half, cached on (token value, reactor id).
  [[nodiscard]] State receive_cached(State r, const SknoCore::Token& tok);
  // Reference path: decode both sides, run SknoCore::step, re-serialize.
  [[nodiscard]] StatePair outcome_by_step(InteractionClass c, State s, State r);

  std::shared_ptr<const Protocol> protocol_;
  SknoCore core_;  // track_provenance = false: the canonical value chain
  StateUniverse universe_;
  bool use_patches_ = true;
  OutcomeCache recv_cache_;  // (token, reactor id) -> reactor successor
  OutcomeCache g_cache_;     // starter id -> g successor
  std::vector<std::uint32_t> g_tok_;  // packed transmitted token per id
  // Hot-path scratch (reused across outcome() calls): per-call deque and
  // string construction was measured to dominate the cache-miss cost.
  SknoCore::Agent scratch_starter_, scratch_reactor_;
  mutable std::string enc_scratch_;
  mutable std::vector<std::uint32_t> debt_scratch_;
};

// --- construction glue (dispatch + CLI) -------------------------------------

// A parsed --simulate specification: "naive" | "sid" | "naming" |
// "skno[:o=K]" (omission bound K, default 0).
struct SimSpec {
  std::string kind = "skno";
  std::size_t omission_bound = 0;
};

[[nodiscard]] SimSpec parse_sim_spec(const std::string& spec);

// The model each simulator is designed for, used when the caller does not
// pick one: naive -> TW, skno -> I3, sid/naming -> IO (the weakest model).
[[nodiscard]] Model default_sim_model(const SimSpec& spec);

// Count-space rule source for the spec (n = population size; needed by
// the per-agent id assignment of SID and the activation threshold of
// naming).
[[nodiscard]] std::unique_ptr<DynamicRuleSource> make_sim_rule_source(
    const SimSpec& spec, Model model, std::shared_ptr<const Protocol> protocol,
    std::size_t n);

// Step-wise counterpart over the same spec (the event/matching-verifier
// facade and the native engine path).
[[nodiscard]] std::unique_ptr<Simulator> make_spec_simulator(
    const SimSpec& spec, Model model, std::shared_ptr<const Protocol> protocol,
    std::vector<State> initial);

}  // namespace ppfs
