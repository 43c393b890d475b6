// DynamicRuleSource: the open-universe generalization of RuleMatrix.
//
// A RuleMatrix (core/rule_matrix.hpp) is the *closed*-universe compiled form
// of "what an interaction does": every state is known up front, so the four
// per-class outcome tables are dense q x q arrays. The paper's simulators
// (§4) break that assumption — a simulator's wrapper state carries queues,
// debt lists and pairing records whose reachable set is unbounded a priori
// and only discovered while running. DynamicRuleSource is the lazily
// expanded counterpart: states live in a growing interned universe
// (StateUniverse) and per-class outcome rows are computed on first contact
// instead of precompiled, which is what lets the count-space batch engine
// (engine/batch/sim_batch_system.hpp) execute a *simulator* as if it were
// just another protocol.
//
// A source also declares structural facts the sparse engine exploits to
// keep leap sampling exact as new states appear:
//   * real_noop_factors(): the Real class is a no-op iff the starter is
//     "silent" (transmits nothing), independent of the reactor — the
//     one-way-simulator shape (SKnO). Changing weights then reduce to a
//     silent-population counter instead of an O(universe^2) scan.
//   * omission_transparent(): every omissive class is a global no-op
//     (reactor-side-only simulators: SID, naming), so omissive draws can
//     be tallied by binomial splitting without touching the configuration.
//   * open_universe(): states whose count returns to zero may be released
//     and their ids recycled (bounded-memory execution at n = 10^6).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/models.hpp"
#include "core/protocol.hpp"
#include "core/rule_matrix.hpp"
#include "core/types.hpp"
#include "obs/metrics.hpp"
#include "util/audit.hpp"
#include "util/binio.hpp"
#include "util/group_probe.hpp"

namespace ppfs {

// One byte-level edit applied while deriving a successor encoding from a
// base encoding (StateUniverse::intern_patched). Offsets address the
// buffer *as edited so far*: edits are applied strictly in sequence, so a
// rule source lists them in layout order and accounts for earlier
// insertions/erasures itself (in practice SKnO's patches never overlap).
// `bytes` is borrowed, not owned — callers keep the payload alive for the
// duration of the intern_patched call only.
struct ByteEdit {
  enum class Op : std::uint8_t { Replace, Insert, Erase };
  Op op = Op::Replace;
  std::size_t offset = 0;
  std::size_t erase_len = 0;    // Erase only
  std::string_view bytes{};     // Replace / Insert payload

  [[nodiscard]] static ByteEdit replace(std::size_t offset,
                                        std::string_view bytes) {
    return {Op::Replace, offset, 0, bytes};
  }
  [[nodiscard]] static ByteEdit insert(std::size_t offset,
                                       std::string_view bytes) {
    return {Op::Insert, offset, 0, bytes};
  }
  [[nodiscard]] static ByteEdit erase(std::size_t offset, std::size_t len) {
    return {Op::Erase, offset, len, {}};
  }
};

// Interns canonical byte encodings of wrapper states into dense ids.
// Released ids are recycled through a free list so long open-universe runs
// hold memory proportional to the number of *live* states, not the number
// of states ever seen.
class StateUniverse {
 public:
  // Look up `bytes`, interning it if new. Returns the dense id.
  State intern(std::string_view bytes);

  // Intern the successor obtained by patching the encoding of live id
  // `base` with `edits` (applied in order into a reusable scratch buffer):
  // the delta-encoded successor path — a fire touches only the bytes that
  // change instead of re-serializing the whole record. Throws
  // std::out_of_range on an edit that falls outside the evolving buffer.
  State intern_patched(State base, std::span<const ByteEdit> edits);

  // The canonical encoding of a live id.
  [[nodiscard]] const std::string& encoding(State s) const;

  // Forget a live id and recycle it. The caller must guarantee nothing
  // references `s` anymore (the sparse engine releases only states whose
  // count is zero).
  void release(State s);

  // Ids allocated so far (live + free); valid ids are < capacity().
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }
  [[nodiscard]] std::size_t live() const noexcept {
    return slots_.size() - free_.size();
  }
  [[nodiscard]] bool is_live(State s) const {
    return s < slots_.size() && slots_[s] != nullptr;
  }
  // Encodings interned as new ids so far: intern() calls whose bytes were
  // not live. A plain counter, kept under PPFS_METRICS=OFF too — the auto
  // engine's regime monitor reads it. By the cache-invisibility contract
  // (a cold cache miss re-interns only live ids) it is a function of the
  // trajectory alone, never of cache contents. Process-local: not part of
  // save_state.
  [[nodiscard]] std::uint64_t fresh() const noexcept { return fresh_; }

  // Wire intern/patch/GC instrumentation handles (obs/metrics.hpp); null
  // detaches. Purely observational — never changes interning behavior.
  void set_metrics(obs::MetricRegistry* reg);

  // Checkpoint round-trip: the live encodings (by id) plus the free-list
  // ORDER — intern() recycles free_.back() first, so a restored universe
  // must hand out the same ids to the same future encodings. The probe
  // table is NOT serialized: it is an index, rebuilt by rehash(), and its
  // layout (slot assignment, tombstones, growth timing) is invisible to
  // every caller — lookups return ids, not slots, and no Rng draw ever
  // depends on the table shape.
  void save_state(bin::Writer& w) const;
  void restore_state(bin::Reader& r);

  // Runtime-contract audit (util/audit.hpp), differential against a
  // reference map rebuilt from the live encodings: live/tombstone tallies
  // match the control bytes, every live id round-trips through its table
  // slot (tag, id, stored hash — the double-place bug class of the
  // intern() rehash path serves a dead id through exactly the stale slot
  // this catches), every FULL slot belongs to a live id, the free list
  // holds exactly the dead ids, and no two live ids share an encoding.
  // Cold code, always compiled; rule sources invoke it under
  // -DPPFS_AUDIT=ON. Throws AuditError.
  void audit_invariants(const char* who = "StateUniverse") const;

 private:
  friend struct AuditTestPeer;  // mutation-smoke state corruption (tests)

  // Index: a SwissTable-style open-addressing table probed one SIMD group
  // at a time (util/group_probe.hpp). One control byte per slot — the
  // 7-bit upper hash tag for full slots, empty/deleted sentinels otherwise
  // — so a lookup broadcasts the probe tag, compares a whole cache-line
  // group of candidates at once, and touches ids_/the encoding only on tag
  // hits. Quadratic probing over groups; deletions leave tombstones that
  // the next load-factor rehash sweeps. This replaced a node-based
  // unordered_map: the intern probe is the residual hot-path cost of the
  // delta-successor architecture (every patched fire ends in one), and the
  // group probe turns its per-miss chain of node hops into one tag
  // broadcast per 16 slots.
  static constexpr std::size_t kNoSlot = ~static_cast<std::size_t>(0);

  [[nodiscard]] static std::uint64_t hash_bytes(std::string_view bytes) noexcept {
    return std::hash<std::string_view>{}(bytes);
  }
  [[nodiscard]] static std::uint8_t tag_of(std::uint64_t h) noexcept {
    return static_cast<std::uint8_t>(h & 0x7f);
  }
  [[nodiscard]] std::size_t home_group(std::uint64_t h) const noexcept {
    return static_cast<std::size_t>(h >> 7) & group_mask_;
  }
  [[nodiscard]] std::size_t table_slots() const noexcept { return ctrl_.size(); }
  // First empty-or-deleted slot along h's probe path (the insert position
  // after a confirmed miss or during rehash).
  [[nodiscard]] std::size_t find_free_slot(std::uint64_t h) const;
  void place(State id, std::size_t slot);
  void rehash(std::size_t groups);

  std::vector<std::uint8_t> ctrl_;  // 1 byte/slot; size = groups * kWidth
  std::vector<State> ids_;          // slot -> id, valid on full slots only
  std::size_t group_mask_ = 0;      // #groups - 1 (power of two)
  std::size_t full_ = 0;            // occupied slots
  std::size_t tombstones_ = 0;      // deleted slots awaiting a rehash

  // Ids own their encoding bytes on the heap (stable addresses across
  // table rehashes and slot growth); slot_of_ lets release() find the
  // table slot without re-probing.
  std::vector<std::unique_ptr<std::string>> slots_;
  std::vector<std::uint64_t> hash_;     // id -> full hash (rehash, no re-hash)
  std::vector<std::size_t> slot_of_;    // id -> table slot
  std::vector<State> free_;
  std::string scratch_;  // intern_patched working buffer, reused across calls
  std::uint64_t fresh_ = 0;

  obs::Counter* m_intern_new_ = nullptr;   // encodings first seen
  obs::Counter* m_intern_hit_ = nullptr;   // lookups that found a live id
  obs::Counter* m_patched_ = nullptr;      // delta-encode (patch) interns
  obs::Counter* m_released_ = nullptr;     // ids recycled (GC reclaim)
  obs::SampledTimer* m_time_intern_ = nullptr;
};

// Bounded LRU cache over (class, starter, reactor) -> successor pair, the
// hot-path shortcut of the count-space engine: a hit skips the rule
// source's decode -> core step -> re-serialize -> intern round trip
// entirely. Laid out as a set-associative open-addressing table (8-way
// sets, per-set LRU by access stamp) so a lookup is one cache line scan —
// the hot path runs millions of probes per second and a node-based map
// was measured to dominate it. Open universes recycle ids, so every id
// carries a generation that release bumps (OutcomeCache::invalidate,
// wired into DynamicRuleSource::release_state): entries are validated
// against the generations of all four ids they mention and go stale — and
// are dropped on touch or overwritten by set pressure — the moment any of
// them is released. No entry can therefore resurrect a recycled id.
class OutcomeCache {
 public:
  static constexpr std::size_t kWays = 8;

  // Capacity 0 disables (and clears) the cache; otherwise rounded up to a
  // power-of-two number of sets times kWays entries.
  void set_capacity(std::size_t capacity);

  // Drop every entry (and reset generations/stats) but keep the capacity:
  // the restore-from-checkpoint path. Caches are distribution- and
  // trajectory-invisible (a cold miss re-derives the outcome from live
  // universe state and re-interns only ids that already exist), so a
  // restored run starts cold without perturbing byte-identity.
  void clear();
  [[nodiscard]] bool enabled() const noexcept { return !keys_.empty(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return keys_.size(); }

  // Returns the cached successor pair, or nullptr on miss/stale. The
  // pointer is invalidated by the next non-const call.
  [[nodiscard]] const StatePair* find(InteractionClass c, State s, State r);
  void insert(InteractionClass c, State s, State r, StatePair out);

  // Raw-key variant for source-internal caches (e.g. SKnO's (transmitted
  // token, reactor) table): the caller packs any non-zero key; `in` is
  // the input state validated alongside both outcome states.
  [[nodiscard]] const StatePair* find_raw(std::uint64_t key, State in);
  void insert_raw(std::uint64_t key, State in, StatePair out);

  // Mark every entry mentioning `s` (as pre- or post-state) stale.
  void invalidate(State s);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;   // live entries overwritten by set pressure
    std::uint64_t stale_drops = 0; // generation mismatches on touch
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  // Runtime-contract audit (util/audit.hpp): no currently-valid entry —
  // one whose stored generation truncations all match the live
  // generations — may reference a dead output id. A release that skipped
  // invalidate() leaves exactly such an entry behind, ready to resurrect
  // a recycled id. `live` is the owner's liveness predicate. Cold code,
  // always compiled. Throws AuditError.
  void audit_live_outputs(const char* who,
                          const std::function<bool(State)>& live) const;

 private:
  friend struct AuditTestPeer;  // mutation-smoke state corruption (tests)

  // 2-bit class | 31-bit starter | 31-bit reactor, biased by 1 so that 0
  // means "empty slot"; ids >= 2^31 (never reached in practice) simply
  // bypass the cache.
  [[nodiscard]] static std::uint64_t key(InteractionClass c, State s, State r) {
    if ((s | r) >> 31 != 0) return 0;
    return ((static_cast<std::uint64_t>(c) << 62) |
            (static_cast<std::uint64_t>(s) << 31) | r) +
           1;
  }
  [[nodiscard]] std::size_t set_of(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) &
           set_mask_;
  }
  [[nodiscard]] std::uint16_t gen(State s) const {
    return s < gen_.size() ? static_cast<std::uint16_t>(gen_[s]) : 0;
  }

  // Keys and payloads live in parallel arrays: a lookup scans one
  // 64-byte line of keys and touches the payload line only on a key
  // match.
  [[nodiscard]] const StatePair* find_validated(std::uint64_t k, State a,
                                                State b);
  void insert_validated(std::uint64_t k, State a, State b, StatePair out);

  // Payloads store 16-bit generation truncations to keep the table small
  // (latency on the hot path is bounded by how much of it stays in L2).
  // Full generations live in gen_; whenever an id's generation crosses a
  // 2^16 boundary (its 65536th release — effectively never) the whole
  // table is cleared, so no entry can survive a truncated-generation
  // wrap-around and validate falsely.
  struct Payload {
    StatePair out{};
    std::uint16_t g[4] = {0, 0, 0, 0};  // gens of a, b, out.starter, out.reactor
    std::uint32_t stamp = 0;            // access clock, per-set LRU order
  };

  std::vector<std::uint64_t> keys_;  // 0 = empty
  std::vector<Payload> payload_;
  std::size_t set_mask_ = 0;  // (#sets - 1); #sets = keys_.size() / kWays
  std::uint32_t clock_ = 0;
  std::vector<std::uint32_t> gen_;  // full generations, truncated into payloads
  Stats stats_;
};

// (state, agent count) groups of a per-agent state vector, in order of
// first appearance — the bulk form of an initial population. Every state
// must be < q; otherwise throws std::invalid_argument("<who>: initial
// state out of range").
[[nodiscard]] std::vector<std::pair<State, std::size_t>>
first_appearance_groups(const std::vector<State>& states, std::size_t q,
                        const char* who);

// The lazily-expanded rule source both engines can execute. States are ids
// in an interned universe owned by the source; `outcome` discovers rows on
// first contact. Implementations for the paper's simulators live in
// sim/sim_rules.hpp; MatrixRuleSource below adapts any compiled RuleMatrix
// (closed universes run through the same sparse engine unchanged).
class DynamicRuleSource {
 public:
  virtual ~DynamicRuleSource() = default;

  [[nodiscard]] virtual std::string describe() const = 0;
  [[nodiscard]] virtual Model model() const = 0;

  // The simulated protocol: projection target, output interpretation, and
  // the state space convergence probes run over.
  [[nodiscard]] virtual const Protocol& protocol() const = 0;
  [[nodiscard]] virtual std::shared_ptr<const Protocol> protocol_ptr() const = 0;

  // Ids handed out so far; every state mentioned by outcome()/project() is
  // < universe_size() at the time it is returned.
  [[nodiscard]] virtual std::size_t universe_size() const = 0;

  // Intern the wrapper states of an initial population whose simulated
  // states are `sim`; out[i] is agent i's wrapper state. (Simulators with
  // per-agent identities — SID ids, naming — map equal simulated states to
  // *distinct* wrapper states; exchangeable simulators collapse them.)
  [[nodiscard]] virtual std::vector<State> intern_initial(
      const std::vector<State>& sim) = 0;

  // Bulk form, the one the count-space engine builds from: the same
  // interning as intern_initial, returned as (wrapper state, agent count)
  // groups in the order the wrapper states first appear agent by agent —
  // so ids, and the engine's occupied-state order, equal the per-agent
  // form's. The default folds intern_initial (SID: one group per agent);
  // exchangeable sources override it to intern each distinct simulated
  // state once.
  [[nodiscard]] virtual std::vector<std::pair<State, std::size_t>>
  intern_initial_groups(const std::vector<State>& sim);

  // Post-states of a class-`c` interaction on wrapper pre-states (s, r).
  // May intern new states (growing the universe).
  [[nodiscard]] virtual StatePair outcome(InteractionClass c, State s,
                                          State r) = 0;

  // Cached front door (the one the count-space engine calls): consult the
  // bounded LRU outcome cache, fall through to outcome() on a miss. A hit
  // returns successor ids that are guaranteed live — release_state bumps
  // the generation of a released id, so entries mentioning it can never be
  // served again.
  [[nodiscard]] StatePair outcome_cached(InteractionClass c, State s, State r) {
    if (!cache_.enabled()) return outcome(c, s, r);
    if (const StatePair* hit = cache_.find(c, s, r)) return *hit;
    PPFS_TIMER_BEGIN(t0, m_time_miss_);
    const StatePair out = outcome(c, s, r);
    PPFS_TIMER_END(t0, m_time_miss_);
    cache_.insert(c, s, r, out);
    return out;
  }

  // Capacity 0 disables the cache (the engine default enables it; the
  // conformance suite runs both ways — the cache must be invisible in
  // distribution).
  void set_outcome_cache_capacity(std::size_t capacity) {
    cache_.set_capacity(capacity);
  }

  // --- observability --------------------------------------------------------
  // Wire hot-path instrumentation (outcome-cache miss timer, GC timer,
  // plus whatever the concrete source instruments via wire_metrics — its
  // own StateUniverse, typically). Null detaches. Purely observational.
  void set_metrics(obs::MetricRegistry* reg) {
    m_time_miss_ = reg ? &reg->timer("time.outcome_miss") : nullptr;
    m_time_gc_ = reg ? &reg->timer("time.gc", 4) : nullptr;
    wire_metrics(reg);
  }
  // Push pull-style statistics (the outcome-cache Stats; overrides add
  // source-internal caches) into `reg` as absolute counters. Called at
  // snapshot/sync time only, so tracking them costs the hot path nothing.
  virtual void export_metrics(obs::MetricRegistry& reg) const {
    const OutcomeCache::Stats& s = cache_.stats();
    reg.counter("cache.outcome.hits").set(s.hits);
    reg.counter("cache.outcome.misses").set(s.misses);
    reg.counter("cache.outcome.evictions").set(s.evictions);
    reg.counter("cache.outcome.stale_drops").set(s.stale_drops);
  }

  [[nodiscard]] bool is_noop(InteractionClass c, State s, State r) {
    const StatePair out = outcome_cached(c, s, r);
    return out.starter == s && out.reactor == r;
  }

  // pi_P: the simulated-protocol state a wrapper state projects to.
  [[nodiscard]] virtual State project(State s) const = 0;

  // --- structural hints (see file header) -----------------------------------
  [[nodiscard]] virtual bool open_universe() const { return false; }
  [[nodiscard]] virtual bool real_noop_factors() const { return false; }
  // Meaningful only when real_noop_factors(): outcome(Real, s, r) == (s, r)
  // for every r iff starter_silent(s).
  [[nodiscard]] virtual bool starter_silent(State s) {
    (void)s;
    return false;
  }
  [[nodiscard]] virtual bool omission_transparent() const { return false; }
  // True when the source maintains internal successor caches (e.g. SKnO's
  // per-side g/receive tables) that make the engine-level (class,
  // starter, reactor) outcome cache redundant: the engine then leaves the
  // outer cache off by default (an explicit capacity still wins).
  [[nodiscard]] virtual bool self_caching() const { return false; }
  // Estimated cost of one native/agent-space value step divided by the
  // cost of one count-space cached fire — the regime monitor's fire
  // signal (engine/batch/regime.hpp): count space is only favored while
  // the windowed fire fraction stays at/below this ratio. Sources whose
  // value step is expensive relative to a cached fire (SKnO's token-queue
  // machinery) return > 1, making the signal inert; sources whose step is
  // a trivial struct update next to a patched intern (SID/naming) return
  // < 1, conceding fire-heavy windows to agent space. The default is
  // inert.
  [[nodiscard]] virtual double fire_cost_ratio() const { return 8.0; }
  // Wrapper encodings interned as new ids so far (StateUniverse::fresh of
  // the source's universe) — the regime monitor's cold-fire signal. A
  // closed universe interns nothing: 0.
  [[nodiscard]] virtual std::uint64_t fresh_interned() const { return 0; }

  // Runtime-contract audit (util/audit.hpp): re-check source-internal
  // invariants — the interning universe's table consistency and the
  // generation validity of every cache (no valid row referencing a dead
  // id). Default: nothing (a closed universe has no recycled ids to
  // resurrect). Open-universe overrides audit their StateUniverse and
  // call audit_outcome_cache() with its liveness predicate. Cold code,
  // always compiled; SimBatchSystem folds this into its slice-boundary
  // audit under -DPPFS_AUDIT=ON. Throws AuditError.
  virtual void audit_invariants() const {}

  // --- checkpoint/restore ---------------------------------------------------
  // Sources that can serialize their mutable state (interned universe +
  // whatever per-source bookkeeping exists beyond caches) opt in here.
  // Caches and memo tables are NEVER serialized: restore_checkpoint clears
  // them and correctness rests on the cache-invisibility contract (a cold
  // miss recomputes the same outcome from the same live state, and every
  // id it interns is already live, so intern() degenerates to a lookup).
  [[nodiscard]] virtual bool checkpointable() const { return false; }
  void save_checkpoint(bin::Writer& w) const {
    if (!checkpointable())
      throw std::logic_error("DynamicRuleSource: source is not checkpointable");
    do_save_source(w);
  }
  void restore_checkpoint(bin::Reader& r) {
    if (!checkpointable())
      throw std::logic_error("DynamicRuleSource: source is not checkpointable");
    cache_.clear();
    do_restore_source(r);
  }

  // Release front door for zero-count states (open universes only): evicts
  // outcome-cache rows mentioning `s` — ids recycle, so this is the
  // invalidation point the cache's correctness rests on — then hands the
  // id back to the source.
  void release_state(State s) {
    PPFS_TIMER_BEGIN(t0, m_time_gc_);
    cache_.invalidate(s);
    do_release(s);
    PPFS_TIMER_END(t0, m_time_gc_);
  }

 protected:
  // Audit the engine-level outcome cache against the owner's liveness
  // predicate (see OutcomeCache::audit_live_outputs).
  void audit_outcome_cache(const char* who,
                           const std::function<bool(State)>& live) const {
    cache_.audit_live_outputs(who, live);
  }

  // Source-specific release (recycle the interned id). Default: keep.
  virtual void do_release(State s) { (void)s; }
  // Source-specific instrumentation wiring (e.g. the source's own
  // StateUniverse). Default: nothing.
  virtual void wire_metrics(obs::MetricRegistry* reg) { (void)reg; }
  // Source-specific checkpoint payload; called only when checkpointable().
  virtual void do_save_source(bin::Writer& w) const { (void)w; }
  virtual void do_restore_source(bin::Reader& r) { (void)r; }

 private:
  OutcomeCache cache_;
  obs::SampledTimer* m_time_miss_ = nullptr;
  obs::SampledTimer* m_time_gc_ = nullptr;
};

// Closed-universe adapter: a compiled RuleMatrix as a DynamicRuleSource.
// This is also the count-space form of the naive TW/T1..T3 simulator
// (sim/tw_naive.hpp): with identity omission reactions the per-class tables
// are exactly the faulty outcomes the naive wrapper realizes.
class MatrixRuleSource final : public DynamicRuleSource {
 public:
  explicit MatrixRuleSource(RuleMatrix rules) : rules_(std::move(rules)) {}

  [[nodiscard]] std::string describe() const override {
    return "matrix(" + model_name(rules_.model()) + ", " +
           rules_.protocol().name() + ")";
  }
  [[nodiscard]] Model model() const override { return rules_.model(); }
  [[nodiscard]] const Protocol& protocol() const override {
    return rules_.protocol();
  }
  [[nodiscard]] std::shared_ptr<const Protocol> protocol_ptr() const override {
    return rules_.protocol_ptr();
  }
  [[nodiscard]] std::size_t universe_size() const override {
    return rules_.num_states();
  }
  [[nodiscard]] std::vector<State> intern_initial(
      const std::vector<State>& sim) override;
  [[nodiscard]] std::vector<std::pair<State, std::size_t>>
  intern_initial_groups(const std::vector<State>& sim) override {
    return first_appearance_groups(sim, rules_.num_states(),
                                   "MatrixRuleSource");
  }
  [[nodiscard]] StatePair outcome(InteractionClass c, State s,
                                  State r) override {
    return rules_.outcome(c, s, r);
  }
  [[nodiscard]] State project(State s) const override { return s; }

  // Closed universe, no mutable source state: the checkpoint payload is
  // empty and restore is a cache clear.
  [[nodiscard]] bool checkpointable() const override { return true; }

  [[nodiscard]] const RuleMatrix& rules() const noexcept { return rules_; }

 private:
  RuleMatrix rules_;
};

}  // namespace ppfs
