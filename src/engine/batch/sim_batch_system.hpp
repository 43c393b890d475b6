// SimBatchSystem: count-space execution over an OPEN state universe — the
// engine that runs the paper's simulators (exposed as DynamicRuleSources,
// sim/sim_rules.hpp) on million-agent populations.
//
// The closed-universe BatchSystem precompiles dense q x q outcome tables
// and rescans them for changing weights; neither is possible when states
// are discovered while running. This engine instead keeps:
//
//   * a SparseConfiguration — counts over the interned ids the rule source
//     hands out, tracking only the occupied subset (ids are dense by
//     construction, so the "hash map over interned states" is a growing
//     vector plus an occupied list; the hash map lives inside the
//     interner);
//   * one CountIndex over the same ids: O(1) point updates and
//     early-exit linear-scan inverse-CDF draws that ride the heavy
//     concentration of population mass on low ids (see the class
//     comment). Factored starters (non-silent only) are drawn by
//     rejection against the silence memo: a try succeeds w.p. (n - S)/n,
//     and fires arrive at rate (n - S)/n per covered interaction, so the
//     expected rejection work is O(1) PER COVERED INTERACTION regardless
//     of the silent fraction — cheaper than maintaining a second
//     non-silent index on every count change;
//   * incrementally maintained per-class changing weights, so the
//     geometric no-op leap stays EXACT as the universe grows:
//       - factored sources (real_noop_factors — SKnO): a Real interaction
//         is a no-op iff the starter is silent, so the changing weight is
//         (n - S)(n - 1) for S = silent population, maintained O(1) per
//         count change with silence classified once per interned state;
//       - general sources (SID, naming, closed matrices): adaptive. In
//         the dense regime (fires frequent — the locking simulators
//         change wrapper state on almost every delivery) the engine takes
//         direct hypergeometric steps, which need no weights at all and
//         cost O(log universe); only after kLeapThreshold consecutive
//         no-ops does it pay the O(occupied^2) weight scan and switch to
//         geometric leaping, re-entering the dense path on the next fire.
//         Both paths are exact realizations of the same chain, so the
//         trajectory-dependent switch introduces no bias.
//
// Omission adversaries (Def. 1–2) attach exactly as on BatchSystem,
// burst cap included (the exact within-burst Markov leap — see
// BatchSystem's header). Leaps split into real and omissive draws:
// omission-transparent sources (reactor-side-only simulators) use the
// burst-capped leg or, when the cap cannot bind, the binomial split —
// omissive draws cannot change counts — while the general path punctuates
// the leap per omissive delivery (tracking the shared burst counter) and
// draws the victim pair hypergeometrically, applying whatever the
// omissive class outcome is (distribution-identical to BatchSystem's
// Wo/T split, O(1) index work per delivered omission).
//
// Open universes (rule sources with open_universe()) release states whose
// count returns to zero: ids recycle through the interner's free list, so
// resident memory tracks the number of LIVE states (<= n + transients),
// not the states ever seen — the property that makes n = 10^6 SKnO runs
// fit in memory.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/dynamic_rules.hpp"
#include "engine/batch/configuration.hpp"
#include "engine/stats.hpp"
#include "obs/metrics.hpp"
#include "sched/omission_process.hpp"
#include "util/audit.hpp"
#include "util/rng.hpp"

namespace ppfs {

// Two-level count index over growing dense ids: per-id u32 counts plus
// per-256-id bucket sums. Point updates are O(1) (two increments), and
// inverse-CDF sampling / prefix sums are linear scans with early exit —
// an open-universe run keeps its population mass heavily concentrated on
// low ids (early states plus recycled ids), so the expected scan is a few
// hot L1 cache lines. This replaced a Fenwick tree whose pointer-chasing
// descent was measured to dominate the fire hot path (~140 ns per draw on
// the reference box vs ~10-20 ns here). Per-id counts are u32: populations
// beyond 2^32 agents in one state are out of scope for this engine.
class CountIndex {
 public:
  void ensure(std::size_t m) {
    if (m <= counts_.size()) return;
    counts_.resize(m, 0);
    buckets_.resize((m + kBucket - 1) / kBucket, 0);
  }

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t get(std::size_t i) const { return counts_.at(i); }

  void add(std::size_t i, std::int64_t delta) {
    if (i >= counts_.size()) ensure(i + 1);  // freshly interned successor ids
    counts_[i] = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(counts_[i]) + delta);
    buckets_[i >> kShift] = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(buckets_[i >> kShift]) + delta);
    total_ = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(total_) + delta);
  }

  // Smallest id i with prefix_sum(0..i) > pick; requires pick < total().
  [[nodiscard]] std::size_t find(std::uint64_t pick) const {
    std::size_t b = 0;
    while (pick >= buckets_[b]) pick -= buckets_[b++];
    std::size_t i = b << kShift;
    while (pick >= counts_[i]) pick -= counts_[i++];
    record_probe_depth(b, i);
    return i;
  }

  // find() over the counts with one copy of id `excl` removed (the
  // hypergeometric second draw); requires pick < total() - 1 and
  // count(excl) >= 1. Single scan, no temporary mutation.
  [[nodiscard]] std::size_t find_excluding(std::uint64_t pick,
                                           std::size_t excl) const {
    const std::size_t eb = excl >> kShift;
    std::size_t b = 0;
    for (;; ++b) {
      const std::uint64_t w = buckets_[b] - (b == eb ? 1 : 0);
      if (pick < w) break;
      pick -= w;
    }
    std::size_t i = b << kShift;
    for (;; ++i) {
      const std::uint64_t w = counts_[i] - (i == excl ? 1 : 0);
      if (pick < w) break;
      pick -= w;
    }
    record_probe_depth(b, i);
    return i;
  }

  // Wire the inverse-CDF probe-depth histogram (obs layer); null
  // detaches. Depths are subsampled 1-in-16 — two finds per fire would
  // otherwise make this the most expensive hook on the hot path.
  void set_metrics(obs::MetricRegistry* reg) {
    m_probe_depth_ = reg ? &reg->histogram("index.probe_depth") : nullptr;
  }

  // Runtime-contract audit (util/audit.hpp): every bucket sum and the
  // grand total recomputed from the per-id counts. Throws AuditError.
  void audit_invariants(const char* who = "CountIndex") const {
    std::uint64_t sum = 0;
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      std::uint64_t bucket = 0;
      const std::size_t lo = b << kShift;
      const std::size_t hi = std::min(counts_.size(), lo + kBucket);
      for (std::size_t i = lo; i < hi; ++i) bucket += counts_[i];
      audit::check(bucket == buckets_[b], who,
                   "bucket sum agrees with per-id counts",
                   "bucket " + std::to_string(b) + ": " +
                       audit::expected_got(bucket, buckets_[b]));
      sum += bucket;
    }
    audit::check(sum == total_, who, "total agrees with per-id counts",
                 audit::expected_got(sum, total_));
  }

 private:
  friend struct AuditTestPeer;  // mutation-smoke state corruption (tests)

  static constexpr std::size_t kShift = 8;
  static constexpr std::size_t kBucket = 1u << kShift;

  void record_probe_depth(std::size_t b, std::size_t i) const {
#if PPFS_METRICS
    if (m_probe_depth_ && (probe_tick_++ & 15u) == 0)
      // ppfs-lint: allow(metric-macro): the 1-in-16 subsample gate must
      // share probe_tick_'s compile-out with the emission, which the
      // single-call PPFS_METRIC macro cannot express.
      m_probe_depth_->record(b + (i - (b << kShift)) + 1);
#else
    (void)b;
    (void)i;
#endif
  }

  std::vector<std::uint32_t> counts_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t total_ = 0;
  obs::Histogram* m_probe_depth_ = nullptr;
  mutable std::uint64_t probe_tick_ = 0;
};

// Counts over interned wrapper states, tracking the occupied subset.
// Per-state counts and occupied positions are u32 — populations beyond
// 2^32 agents are out of scope — which keeps the arrays the hot path
// touches on every fire L2-resident at n = 10^6.
class SparseConfiguration {
 public:
  void grow_to(std::size_t universe_size);
  void add(State s, std::size_t k);
  void remove(State s, std::size_t k);

  [[nodiscard]] std::size_t count(State s) const {
    return s < counts_.size() ? counts_[s] : 0;
  }
  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  // Occupied states, unordered; stable only until the next add/remove.
  [[nodiscard]] const std::vector<State>& occupied() const noexcept {
    return occupied_;
  }

  // Runtime-contract audit (util/audit.hpp): the occupied list and the
  // position index describe exactly the nonzero counts, which sum to n.
  // Throws AuditError.
  void audit_invariants(const char* who = "SparseConfiguration") const;

 private:
  friend struct AuditTestPeer;  // mutation-smoke state corruption (tests)

  static constexpr std::uint32_t kNoPos = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> counts_;
  std::vector<std::uint32_t> pos_;  // state -> index in occupied_, or kNoPos
  std::vector<State> occupied_;
  std::size_t n_ = 0;
};

class SimBatchSystem {
 public:
  // Ceiling on the default outcome-cache bound (entries): sized so the
  // hot pairs of an n = 10^6 SKnO run fit while the cache stays tens of
  // MB. The constructor's default scales with the population (hot pairs
  // scale with live states) so small test populations don't pay a
  // megabyte-scale allocation per engine. Pass an explicit capacity to
  // override; 0 runs uncached (the equivalence suites do both).
  static constexpr std::size_t kDefaultOutcomeCacheCapacity = 1u << 20;

  // `sim_initial` holds simulated-protocol states, one per agent; the rule
  // source interns the corresponding wrapper states in bulk
  // (DynamicRuleSource::intern_initial_groups) and the counts are adopted
  // as below. `outcome_cache_capacity` overrides the default LRU bound on
  // the (class, starter, reactor) -> successors cache the hot path
  // consults before touching the rule source's core.
  SimBatchSystem(std::shared_ptr<DynamicRuleSource> rules,
                 const std::vector<State>& sim_initial,
                 std::optional<std::size_t> outcome_cache_capacity = {});

  // Adopt an ALREADY-INTERNED wrapper population — pairs of (live wrapper
  // id, agent count), entered in the given order — instead of interning
  // fresh simulated initial states (the engine=auto representation
  // bridge). The step counter starts at `start_step`, the run's global
  // step index: an omission process compares its NO horizon and activity
  // against it. Stats start empty. The auto engine folds stats into its
  // master record and lends its one omission process to whichever face is
  // running (lend_omission_process), so the process and the global step
  // both arrive through the bridge.
  struct AdoptWrappers {};
  SimBatchSystem(std::shared_ptr<DynamicRuleSource> rules, AdoptWrappers,
                 const std::vector<std::pair<State, std::size_t>>& wrappers,
                 std::optional<std::size_t> outcome_cache_capacity = {},
                 std::size_t start_step = 0);

  // A copy would release wrapper ids the other still holds in the shared
  // rule source.
  SimBatchSystem(const SimBatchSystem&) = delete;
  SimBatchSystem& operator=(const SimBatchSystem&) = delete;

  // Run under an omission process (Def. 1–2) the caller owns and keeps
  // alive — the engine's, carried across representation switches with its
  // burst and budget state. The source's model must be omissive. max_burst
  // is honored as-is, exactly as on BatchSystem: advance() samples the
  // within-burst Markov chain, sharing the burst counter with step()'s
  // should_omit.
  void lend_omission_process(OmissionProcess& process);

  // Cover at most `budget` uniform-scheduler interactions: leap the
  // geometric run of no-ops, then fire count-changing rules. Factored
  // sources without an active omission process keep alternating leap/fire
  // until the budget is exhausted (one call covers the whole slice — the
  // per-call overhead would otherwise dominate the nearly-noop-free SKnO
  // hot path); other paths return after the first fire exactly like
  // BatchSystem::advance. The delta's fired/s/r/out describe the LAST
  // fire of the call.
  BatchDelta advance(std::size_t budget, Rng& rng);

  // Exact single hypergeometric step (integer draws only — the
  // platform-stable reference used by the regression tests).
  BatchDelta step(Rng& rng);

  [[nodiscard]] const DynamicRuleSource& rules() const noexcept {
    return *rules_;
  }
  [[nodiscard]] const Protocol& protocol() const { return rules_->protocol(); }
  [[nodiscard]] std::size_t size() const noexcept { return conf_.size(); }
  [[nodiscard]] std::size_t steps() const noexcept { return steps_; }
  [[nodiscard]] const SparseConfiguration& configuration() const noexcept {
    return conf_;
  }
  // Counts of the simulated projection pi_P (rebuilt lazily on demand).
  [[nodiscard]] const std::vector<std::size_t>& projected_counts() const;
  [[nodiscard]] int consensus_output() const {
    return counts_consensus_output(projected_counts(), rules_->protocol());
  }
  // Occupied (live) wrapper states right now.
  [[nodiscard]] std::size_t universe_live() const noexcept {
    return conf_.occupied().size();
  }
  [[nodiscard]] std::size_t omissions() const noexcept {
    return omit_ ? omit_->emitted() : 0;
  }
  [[nodiscard]] const OmissionProcess* omission_process() const noexcept {
    return omit_;
  }

  [[nodiscard]] RunStats& stats() noexcept { return stats_; }
  [[nodiscard]] const RunStats& stats() const noexcept { return stats_; }

  // Wire hot-path instrumentation across the whole stack this system
  // owns: leap-length histogram, direct-step / weight-scan counters, fire
  // timer, CountIndex probe depths, the rule source's universe counters
  // and the omission process's burst histogram. Null detaches. Purely
  // observational — never consumes Rng draws or changes trajectories.
  void set_metrics(obs::MetricRegistry* reg);

  // Runtime-contract audit (util/audit.hpp): the configuration, the
  // count index and their agreement; silent-population and incremental
  // changing-weight agreement with reference rescans; projected counts
  // conserving n; occupied states decodable (live) in the rule source;
  // then the rule source's and adversary's own audits. Non-const because
  // the reference weight rescan may intern successor states (exactly as
  // the hot path would). Cold code, always compiled; engines invoke it
  // at slice boundaries under -DPPFS_AUDIT=ON. Throws AuditError.
  void audit_invariants();

  // Checkpoint round-trip. The payload embeds the rule source's checkpoint
  // (interned universe, free-list order) followed by the occupied
  // (state, count) pairs IN OCCUPIED-LIST ORDER — pick_changing_pair's
  // sparse weighted scan walks that list, so its order is part of the draw
  // sequence — then the scalar trajectory state. Derived structures
  // (CountIndex, silence memo, projection memo, projected counts) rebuild
  // deterministically; the requirements on the restoring system are a
  // matching rule-source construction and adversary attachment.
  void save_state(bin::Writer& w) const;
  void restore_state(bin::Reader& r);

 private:
  friend struct AuditTestPeer;  // mutation-smoke state corruption (tests)

  // (changing weight, total weight) of the Real class under the current
  // counts; the no-op run before the next real count-change is geometric
  // with success w/t.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> real_weight();
  [[nodiscard]] std::uint64_t scan_changing_weight();

  void grow_to_universe();
  // Silence classification, cached per interned id (factored mode).
  [[nodiscard]] bool silent(State s);
  // pi_P per interned id, memoized (an id's encoding is immutable while
  // live; reset on release).
  [[nodiscard]] State project_of(State s);
  void change_count(State s, std::int64_t delta);
  void release_if_dead(State s);

  // Reactor drawn from the n-1 agents other than one starter copy of `s`:
  // one prefix query + at most one inverse-CDF search, no temporary count
  // mutation.
  [[nodiscard]] State draw_reactor_excluding(State s, Rng& rng);
  // Ordered pair drawn hypergeometrically from the counts.
  [[nodiscard]] std::pair<State, State> draw_any_pair(Rng& rng);
  // Pre-states of a Real-class count-changing pair, drawn with exact
  // probability pair_weight / changing weight.
  [[nodiscard]] std::pair<State, State> pick_changing_pair(std::uint64_t w,
                                                           Rng& rng);
  void apply_fire(InteractionClass c, State s, State r, StatePair out,
                  BatchDelta& d);
  void fire_real(std::uint64_t w, Rng& rng, BatchDelta& d);
  // One exact hypergeometric interaction (shared by step() and the dense
  // adaptive path); returns whether a rule fired.
  bool step_once(Rng& rng, BatchDelta& d);

  // Consecutive no-ops after which the general mode switches from direct
  // stepping to weight-scan leaping. A streak of L suggests a changing
  // fraction ~1/L, so a leap saves ~L direct steps per fire — but every
  // fire invalidates the weights, and the rescan costs O(occupied^2)
  // outcome evaluations. Leaping therefore only pays once L is of the
  // order of occupied^2: small universes (converged naive/matrix runs)
  // leap almost immediately, while large non-factored universes (SID at
  // big n, whose nearly-silent pairing chain fires at rate ~1/n) stay on
  // the O(log) stepping path instead of stalling in scans.
  static constexpr std::size_t kLeapThreshold = 64;
  [[nodiscard]] std::size_t leap_threshold() const noexcept {
    const std::size_t occ = conf_.occupied().size();
    return std::max(kLeapThreshold, occ * occ);
  }

  std::shared_ptr<DynamicRuleSource> rules_;
  bool factored_ = false;
  bool open_ = false;
  SparseConfiguration conf_;
  CountIndex idx_;  // counts per id (the sampling index)
  std::vector<std::uint8_t> silent_known_;  // 0 unknown / 1 active / 2 silent
  std::uint64_t silent_count_ = 0;          // agents in silent states
  std::vector<State> proj_memo_;            // pi_P per id, kNoState = unknown
  // Projected counts are rebuilt lazily from the occupied set (an O(live)
  // scan per probe slice) instead of being maintained per fire — four
  // random projection touches per fire were measurable on the hot path.
  mutable std::vector<std::size_t> projected_;
  mutable bool projected_valid_ = true;
  std::size_t steps_ = 0;
  RunStats stats_;
  OmissionProcess* omit_ = nullptr;  // lent; null without an adversary
  InteractionClass omit_class_ = InteractionClass::OmitBoth;
  bool weights_valid_ = false;  // general mode
  std::uint64_t w_real_ = 0;    // general mode
  std::size_t noop_streak_ = 0;  // general mode: dense/sparse switch

  obs::Histogram* m_leap_len_ = nullptr;    // no-op runs leapt in one draw
  obs::Counter* m_weight_scans_ = nullptr;  // O(occupied^2) changing scans
  obs::Counter* m_direct_steps_ = nullptr;  // dense-path hypergeometric steps
  obs::SampledTimer* m_time_fire_ = nullptr;
  obs::MetricRegistry* metrics_reg_ = nullptr;  // re-wire late-attached omit_
};

}  // namespace ppfs
