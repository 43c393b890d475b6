// OmissionProcess: the omission-insertion state machine of Definitions 1–2,
// factored out of the OmissionAdversary scheduler wrapper so that BOTH
// execution paths consume one definition of the adversary classes:
//
//   * the step-wise path (OmissionAdversary, the dispatch native engine)
//     asks should_omit() before delivering each interaction;
//   * the count-based batch engine (engine/batch/) reads the process
//     parameters (rate / remaining budget / quiet horizon) and splits each
//     leap into real and omissive draws by exact geometric/binomial
//     sampling, crediting the omissions back via note_omissions().
//
// Adversary classes:
//   * UO  ("unfair omissive"): may insert omissions forever;
//   * NO  ("eventually non-omissive"): stops inserting after a horizon;
//   * NO1: inserts at most one omission in the whole run;
//   * Budget(o): inserts at most o omissions (the knowledge-of-omissions
//     assumption of §4.1 bounds the total number of omissions by o).
//
// Both paths honor max_burst (a cap on consecutive insertions): the
// step-wise path through should_omit's burst counter, the batch path
// through an exact Markov-chain leap over the same within-burst state
// (leap::advance in engine/batch/leap_sampling.hpp, which describes its
// regimes), reading and writing the shared counter via burst() /
// set_burst(). When the cap cannot bind — unbounded max_burst, or too
// little omission budget left to ever complete a burst
// (burst_cap_reachable() false, an absorbing condition since
// burst + remaining budget never increases) — the leap falls back to
// the cheaper uncapped splits, which are then exact as-is.
//
// The round face counts a whole round's omissions at once
// (sample_round_omissions). Under a capped adversary it uses a coupling:
// draw i.i.d. rate coins c_j; the capped chain omits at j exactly when
// c_j = 1 and the burst is below the cap, so it differs from the raw
// coins only inside runs of at least m = max_burst + 1 ones. When such
// runs are rare in a round the count is one binomial draw plus a
// run-probability correction; otherwise the chain is walked.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

#include "core/types.hpp"
#include "obs/metrics.hpp"
#include "util/audit.hpp"
#include "util/binio.hpp"
#include "util/rng.hpp"

namespace ppfs {

enum class AdversaryKind : std::uint8_t { UO, NO, NO1, Budget };

[[nodiscard]] std::string adversary_kind_name(AdversaryKind k);

struct AdversaryParams {
  AdversaryKind kind = AdversaryKind::UO;
  // Probability of inserting an omissive interaction before each real one
  // (re-rolled after each insertion, geometric burst lengths).
  double rate = 0.1;
  // NO: no omissions are inserted at or after this step index.
  std::size_t quiet_after = std::numeric_limits<std::size_t>::max();
  // Budget / NO1: maximum total omissions (NO1 forces 1).
  std::size_t max_omissions = std::numeric_limits<std::size_t>::max();
  // Cap on consecutive insertions, honored by BOTH engines (the batch
  // path samples the within-burst Markov chain exactly). The spec suffix
  // ":burst=K" / ":burst=inf" overrides it.
  std::size_t max_burst = 8;
  // Which side inserted omissions strike (two-way models; the T-relation
  // faulty outcomes). One-way models have no side distinction and ignore
  // it. Both engines honor this: the native path stamps it on inserted
  // interactions, the batch path selects the matching RuleMatrix outcome
  // class (OmitStarter / OmitReactor / OmitBoth).
  OmitSide side = OmitSide::Both;
};

// Parse a command-line adversary spec:
//   "none" | "uo[:rate]" | "no:quiet[:rate]" | "no1[:rate]" |
//   "budget:B[:rate]"
// e.g. "budget:1000" or "uo:0.05". Returns kind UO with rate 0 for "none".
// The kind may carry a side suffix "@starter" | "@reactor" | "@both"
// (default both), e.g. "uo@starter:0.2" or "budget@reactor:8". A trailing
// ":burst=K" (or ":burst=inf" for unbounded) overrides the default
// consecutive-insertion cap of 8, e.g. "uo:0.2:burst=3".
[[nodiscard]] AdversaryParams parse_adversary_spec(const std::string& spec);

class OmissionProcess {
 public:
  explicit OmissionProcess(AdversaryParams params);

  // Step-wise draw: should the interaction delivered at `step` be an
  // inserted omission? Updates the burst/budget state.
  [[nodiscard]] bool should_omit(Rng& rng, std::size_t step);

  // --- batch-side views -----------------------------------------------------
  // Can any further omission be inserted at or after `step`? Inactivity is
  // absorbing: once false for the current step it stays false forever.
  // Inline: the leap asks it on every call.
  [[nodiscard]] bool active(std::size_t step) const noexcept {
    return !(params_.rate <= 0.0) && emitted_ < params_.max_omissions &&
           !(params_.kind == AdversaryKind::NO && step >= params_.quiet_after);
  }
  [[nodiscard]] double rate() const noexcept { return params_.rate; }
  [[nodiscard]] std::size_t remaining_budget() const noexcept;
  // The part of `budget` deliveries from `step` on that stays short of the
  // NO quiet horizon: a leap or round never crosses it, because the
  // omission probability drops to zero there.
  [[nodiscard]] std::size_t horizon_cap(std::size_t step,
                                        std::size_t budget) const noexcept {
    if (params_.quiet_after == std::numeric_limits<std::size_t>::max() ||
        params_.quiet_after <= step)
      return budget;
    return std::min(budget, params_.quiet_after - step);
  }
  // Credit `k` omissions sampled by a batch leap.
  void note_omissions(std::size_t k) noexcept { emitted_ += k; }

  // Exact per-ROUND accounting (the round engine's counterpart of the
  // per-leap splits): the number of omissive marks among `deliveries`
  // consecutive deliveries starting at `step`, advancing the burst/budget
  // state exactly as that many should_omit() calls would (same joint law
  // of omissions, final burst and emitted). The caller must keep the
  // round short of the NO quiet horizon (the round engine caps its length
  // there). Three regimes, chosen from (deliveries, rate, cap, budget)
  // without drawing:
  //   * the cap can never bind and the budget covers the round: one exact
  //     Binomial(deliveries, rate) draw;
  //   * finite cap, budget covering the round, and long runs rare
  //     ((deliveries + 1)·rate^(cap+1) <= 1/16): O(1) expected draws and
  //     O(sqrt(deliveries·rate)) arithmetic (sample_capped_round);
  //   * otherwise an exact walk over the within-burst chain, one burst
  //     episode per iteration, but one rate coin per delivery while
  //     rate >= 1/64 — O(deliveries) draws. Budget exhaustion mid-round
  //     is handled here.
  [[nodiscard]] std::size_t sample_round_omissions(std::size_t deliveries,
                                                   std::size_t step, Rng& rng);

  // --- shared within-burst state (step-wise should_omit and the batch
  // --- burst-capped leap drive one counter) -------------------------------
  [[nodiscard]] std::size_t burst() const noexcept { return burst_; }
  void set_burst(std::size_t b) noexcept {
    // A reset from a non-zero burst closes one burst episode — both paths
    // (should_omit and the batch leaps) end episodes through here or
    // through should_omit's own reset.
    if (b == 0 && burst_ > 0) PPFS_METRIC(m_burst_len_, record(burst_));
    burst_ = b;
  }
  [[nodiscard]] std::size_t max_burst() const noexcept {
    return params_.max_burst;
  }
  // Can a burst ever reach the cap from the current state? Absorbing once
  // false: burst + remaining budget never increases.
  [[nodiscard]] bool burst_cap_reachable() const noexcept {
    return params_.max_burst != std::numeric_limits<std::size_t>::max() &&
           remaining_budget() > params_.max_burst - burst_;
  }

  [[nodiscard]] std::size_t emitted() const noexcept { return emitted_; }
  [[nodiscard]] const AdversaryParams& params() const noexcept { return params_; }

  // Checkpoint round-trip. Only the mutable face (emitted/burst) is
  // persisted — params_ are reconstructed from the scenario spec by the
  // resuming process, which keeps the adversary class definition in exactly
  // one place (parse_adversary_spec).
  void save_state(bin::Writer& w) const {
    w.var(emitted_);
    w.var(burst_);
  }
  void restore_state(bin::Reader& r) {
    emitted_ = r.var();
    burst_ = r.var();
  }

  // Wire the burst-episode-length histogram (obs layer); null detaches.
  // On the round face adv.burst_len records only the episodes that were
  // walked: bursts closed coin by coin at a round's start and the long
  // runs of sample_capped_round. Episodes that a round's binomial count
  // covers are not recorded.
  // Budget drain is pull-style: engines gauge remaining_budget() at
  // snapshot time instead of instrumenting the draw path.
  void set_metrics(obs::MetricRegistry* reg) {
    m_burst_len_ = reg ? &reg->histogram("adv.burst_len") : nullptr;
  }

  // Runtime-contract audit (util/audit.hpp): the emitted total never
  // exceeds the omission budget, and the shared within-burst counter
  // never exceeds a finite burst cap. Cold code, always compiled; the
  // batch systems fold this into their slice-boundary audits under
  // -DPPFS_AUDIT=ON. Throws AuditError.
  void audit_invariants() const {
    static constexpr const char* kWho = "OmissionProcess";
    audit::check(emitted_ <= params_.max_omissions, kWho,
                 "emitted omissions within budget",
                 "budget " + std::to_string(params_.max_omissions) +
                     ", emitted " + std::to_string(emitted_));
    if (params_.max_burst != std::numeric_limits<std::size_t>::max())
      audit::check(burst_ <= params_.max_burst, kWho,
                   "burst counter within the consecutive-insertion cap",
                   "cap " + std::to_string(params_.max_burst) + ", burst " +
                       std::to_string(burst_));
  }

 private:
  friend struct AuditTestPeer;  // mutation-smoke state corruption (tests)
  friend struct OmissionProcessTestPeer;  // forces the capped-round path

  // Do runs of max_burst + 1 rate coins stay rare in a round of
  // `deliveries`? Finite cap and (deliveries + 1)·rate^(cap+1) <= 1/16.
  [[nodiscard]] bool long_runs_rare(std::size_t deliveries) const noexcept;
  // sample_round_omissions under a finite cap whose budget covers the
  // round: counts the round from the coin coupling instead of walking it.
  std::size_t sample_capped_round(std::size_t deliveries, Rng& rng);

  AdversaryParams params_;
  std::size_t emitted_ = 0;
  std::size_t burst_ = 0;
  obs::Histogram* m_burst_len_ = nullptr;
};

}  // namespace ppfs
