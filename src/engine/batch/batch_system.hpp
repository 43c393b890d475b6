// Count-based batch engine for the uniform scheduler, generalized over the
// whole model lattice (§2.2–2.3) and the omission adversaries (Def. 1–2).
//
// The uniform scheduler draws ordered agent pairs uniformly at random, so
// the state-count vector is a Markov chain of its own: pick a starter
// state s with probability C[s]/n, then a reactor state r with probability
// (C[r] - [r == s]) / (n - 1) — sequential hypergeometric draws — and fire
// the interaction's outcome. BatchSystem advances this chain directly,
// never touching a per-agent array, and leaps over runs of no-op
// interactions in one step. Model semantics come from a compiled
// RuleMatrix (core/rule_matrix.hpp) — the same tables the per-agent
// InteractionSystem applies — so one-way and omissive models run in count
// space with no second encoding of §2.2–2.3.
//
// advance() runs the omission-aware leap leap::advance
// (leap_sampling.hpp), which describes its regimes: the exact integer leap
// without an active omission process, and with one (Def. 1–2, burst cap
// and NO horizon included) exact splits of each no-op run into real and
// omissive draws. Omissions are inert here when their class weight Wo is
// 0; otherwise an omissive delivery changes counts with exact integer
// probability Wo/T.
//
// The changing weights Wr / Wo are maintained INCREMENTALLY: each class
// keeps a fixed enumeration of its count-changing pairs (is_noop depends
// only on the compiled rules) inside a DynamicPairSampler
// (alias_sampler.hpp), a fire dirties only the states whose count it
// changed (at most four; a side whose pre-state equals its post-state
// moves nothing), and flushing a dirty state re-sets only the pairs
// adjacent to it. Totals are O(1)
// reads and the firing pair is drawn in O(log q) (Fenwick) or O(1)
// (alias) instead of the former O(q^2) rescan + linear walk — the fix for
// dense regimes where every delivery fires and leaping degenerates. The
// round engine (round_system.hpp) batches those regimes further and runs
// as a friend over this state.
#pragma once

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/rule_matrix.hpp"
#include "engine/batch/alias_sampler.hpp"
#include "engine/batch/configuration.hpp"
#include "engine/batch/leap_sampling.hpp"
#include "engine/stats.hpp"
#include "obs/metrics.hpp"
#include "sched/omission_process.hpp"
#include "util/rng.hpp"

namespace ppfs {

class BatchSystem {
 public:
  // Plain TW batch system (PR 1 behavior).
  BatchSystem(std::shared_ptr<const Protocol> protocol,
              std::vector<State> initial);
  explicit BatchSystem(Configuration initial);

  // Model-generic batch system: any model in kAllModels, compiled rules.
  BatchSystem(RuleMatrix rules, std::vector<std::size_t> counts);

  // Attach an omission process (Def. 1–2). The rule matrix must belong to
  // an omissive model; lift non-omissive models with omissive_closure()
  // first. Must be called before the run starts.
  void set_omission_process(const AdversaryParams& params);

  // Cover at most `budget` uniform-scheduler interactions in one batch:
  // skip the geometric run of no-ops (splitting it into real and omissive
  // draws when an omission process is attached), then fire one
  // count-changing rule (unless the budget ran out first, or no rule can
  // fire at all). The geometric distribution is memoryless, so truncating
  // a batch at the budget and resuming later leaves the process
  // distribution unchanged.
  BatchDelta advance(std::size_t budget, Rng& rng);

  // Exact single interaction of the count chain (the hypergeometric
  // reference step), consulting the omission process per delivery — the
  // step-wise reference the conformance suite compares against. Honors
  // max_burst (it delegates to OmissionProcess::should_omit).
  BatchDelta step(Rng& rng);

  [[nodiscard]] const Configuration& configuration() const noexcept {
    return conf_;
  }
  [[nodiscard]] const std::vector<std::size_t>& counts() const noexcept {
    return conf_.counts();
  }
  [[nodiscard]] const Protocol& protocol() const noexcept {
    return conf_.protocol();
  }
  [[nodiscard]] const RuleMatrix& rules() const noexcept { return rules_; }
  [[nodiscard]] std::size_t size() const noexcept { return conf_.size(); }
  [[nodiscard]] std::size_t steps() const noexcept { return steps_; }
  [[nodiscard]] int consensus_output() const { return conf_.consensus_output(); }
  [[nodiscard]] const OmissionProcess* omission_process() const noexcept {
    return omit_ ? &*omit_ : nullptr;
  }
  [[nodiscard]] std::size_t omissions() const noexcept {
    return omit_ ? omit_->emitted() : 0;
  }

  // True when no reachable interaction — real or insertable omissive —
  // can change the configuration. advance() then consumes its whole
  // budget in one leap.
  [[nodiscard]] bool silent() const;

  // Total weight of count-changing ordered pairs of class `c` —
  // incrementally maintained (dirty-state flush), an O(1) read between
  // fires. Classes without a live sampler (neither Real nor the class of
  // an adversary that is still active) fall back to the audit scan.
  [[nodiscard]] std::uint64_t changing_weight(InteractionClass c) const;
  // Reference O(q^2) rescan of the same quantity, for audits and tests.
  [[nodiscard]] std::uint64_t audit_changing_weight(InteractionClass c)
      const noexcept;
  // P(a delivered interaction changes counts): ((1-p)·Wr + p·Wo)/T while
  // the adversary is active, Wr/T otherwise — the density signal the
  // adaptive engine feeds the regime monitor.
  [[nodiscard]] double fire_density() const;

  [[nodiscard]] RunStats& stats() noexcept { return stats_; }
  [[nodiscard]] const RunStats& stats() const noexcept { return stats_; }

  // Wire hot-path instrumentation (leap-length histogram, weight-refresh
  // counter, burst-episode histogram on the omission process). Null
  // detaches. Purely observational: never consumes Rng draws.
  void set_metrics(obs::MetricRegistry* reg);

  // Runtime-contract audit (util/audit.hpp): flush, then check count
  // conservation, incremental-vs-rescan changing-weight agreement for
  // every live class (the omissive one only while the adversary is
  // active), per-slot sampler weights against the count vector, the
  // samplers' own derived structures, and the adversary's budget / burst
  // state. Cold code, always compiled; engines invoke it at slice
  // boundaries under -DPPFS_AUDIT=ON. Throws AuditError.
  void audit_invariants() const;

  // Checkpoint round-trip. Persists the count vector, step/stat/adversary
  // state, and the sampler draw-policy faces; the pair tables and weights
  // are rebuilt deterministically from the restored counts (mark-all +
  // flush), so the byte payload is O(q), not O(q^2). The restoring system
  // must be constructed over the same rules/protocol (and with the same
  // attached adversary params) — only mutable run state round-trips.
  void save_state(bin::Writer& w) const;
  void restore_state(bin::Reader& r);

 private:
  friend class RoundSystem;    // the round-dense face shares this state
  friend struct AuditTestPeer;  // mutation-smoke state corruption (tests)
  template <class System>
  friend void leap::advance(System&, std::size_t, Rng&, BatchDelta&);

  // leap::advance hooks: (Wr, T) after a flush; omissions are inert when
  // their class weight is 0; fire one real changing pair; resolve one
  // omissive delivery (a count change w.p. Wo/T).
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> leap_weight() const;
  [[nodiscard]] bool omissions_inert() const noexcept { return w_omit_ == 0; }
  void fire_real(std::uint64_t w, Rng& rng, BatchDelta& d);
  bool fire_omission(std::uint64_t t, Rng& rng, BatchDelta& d);

  // Weight of ordered pair (s, r): C[s] * (C[r] - [s == r]).
  [[nodiscard]] std::uint64_t pair_weight(State s, State r) const noexcept;

  // One count-changing pair of a class and its outcome, so a fire reads
  // its post-states from the slot it drew.
  struct PairSlot {
    State s;
    State r;
    StatePair out;
  };
  // Fixed enumeration of one class's count-changing pairs plus the
  // dynamic sampler over their current weights. The slots and the flat
  // per-state adjacency (the slots touching state x are
  // adj[adj_begin[x] .. adj_begin[x + 1])) never change after
  // construction; only weights do.
  struct PairTable {
    std::vector<PairSlot> pairs;
    std::vector<std::uint32_t> adj_begin;  // q + 1 offsets into adj
    std::vector<std::uint32_t> adj;        // slot indices, by state
    DynamicPairSampler sampler;
  };
  void build_pair_table(InteractionClass c, PairTable& table) const;

  // Push dirty-state count changes into the samplers (only the pairs
  // adjacent to a dirty state are re-set) and refresh the cached totals.
  // The omissive table is kept only while omit_live().
  void flush_weights() const;
  // An adversary is attached and still active. Once false it stays false,
  // and the omissive table and w_omit_ go stale.
  [[nodiscard]] bool omit_live() const noexcept {
    return omit_pairs_ && omit_->active(steps_);
  }
  void mark_dirty(State s) const {
    if (s >= q_ || dirty_flag_[s]) return;
    dirty_flag_[s] = 1;
    dirty_.push_back(s);
  }
  // Dirty the states whose count the move (s, r) -> out changed. Pair
  // weights depend only on the counts of their two states, so the others
  // need no flush: a side whose pre-state equals its post-state moves
  // nothing, and a swap (s, r) -> (r, s) moves no count at all.
  void mark_moved(State s, State r, StatePair out) const {
    const auto moved = [&](State x) {
      return (x == out.starter) + (x == out.reactor) != (x == s) + (x == r);
    };
    if (s != out.starter) {
      if (moved(s)) mark_dirty(s);
      if (moved(out.starter)) mark_dirty(out.starter);
    }
    if (r != out.reactor) {
      if (moved(r)) mark_dirty(r);
      if (moved(out.reactor)) mark_dirty(out.reactor);
    }
  }

  // A count-changing pair of class `c` with its outcome, drawn with
  // probability pair_weight / changing_weight(c) by the class sampler.
  // Requires flushed weights (every advance path flushes first).
  [[nodiscard]] const PairSlot& pick_changing_pair(InteractionClass c,
                                                   Rng& rng) const;
  void apply_fire(InteractionClass c, const PairSlot& p, BatchDelta& d);
  void apply_fire(InteractionClass c, State s, State r, BatchDelta& d) {
    apply_fire(c, PairSlot{s, r, rules_.outcome(c, s, r)}, d);
  }
  // Fire (s, r) -> outcome(c, s, r) `times` times as one count move — the
  // round face's bulk credit. The pairs cover distinct agents, so the
  // moves compose; records stats and marks the touched states dirty.
  void bulk_fire(InteractionClass c, State s, State r, std::size_t times);

  RuleMatrix rules_;
  Configuration conf_;
  std::size_t q_ = 0;
  std::size_t steps_ = 0;
  RunStats stats_;
  std::optional<OmissionProcess> omit_;
  // Outcome class of inserted omissions, derived from the adversary's
  // side (OmitStarter / OmitReactor / OmitBoth; collapses one-way).
  InteractionClass omit_class_ = InteractionClass::OmitBoth;
  // Mutable: flushing the dirty list is a cache refresh reachable from
  // const observers (silent(), changing_weight()).
  mutable PairTable real_pairs_;
  mutable std::optional<PairTable> omit_pairs_;
  mutable std::vector<State> dirty_;
  mutable std::vector<std::uint8_t> dirty_flag_;
  mutable std::uint64_t w_real_ = 0;
  mutable std::uint64_t w_omit_ = 0;

  obs::Histogram* m_leap_len_ = nullptr;      // no-op runs leapt in one draw
  obs::Counter* m_weight_refreshes_ = nullptr;  // O(q^2) table rescans
  obs::MetricRegistry* metrics_reg_ = nullptr;  // re-wire late-attached omit_
};

}  // namespace ppfs
