// RoundSystem: the round-dense face of the count-space engine — batched
// collision processing after Berenbrink et al. (*Simulating Population
// Protocols in Sub-Constant Time per Interaction*, PAPERS.md), run as a
// friend over a BatchSystem's state (one shared configuration, stats,
// steps and omission process; no bridge, no copy).
//
// The leap faces win when almost no delivery changes counts. In DENSE
// regimes (beacon-or, SKnO mid-convergence) nearly every delivery fires
// and per-interaction work degenerates to one sampler draw + one count
// move. The round engine instead processes the maximal COLLISION-FREE
// PREFIX of the schedule in one batch:
//
//   1. Round length. Scheduler pairs are i.i.d. uniform ordered pairs;
//      pair i+1 avoids the 2i agents already touched with probability
//      U(U-1)/T, U = n - 2i, T = n(n-1). The prefix length L has
//      P(L >= i) = n! / ((n-2i)! T^i) — one exact sequential draw for
//      small n, one inverted uniform through the lgamma survival function
//      above (leap::sample_round_length). Truncation at the interaction
//      budget or the NO quiet horizon is exact: pairs are i.i.d., so the
//      discarded suffix is independent of the prefix and the next round
//      restarts fresh.
//   2. Composition. Given L = l, the 2l touched agents are a uniformly
//      random sequence of distinct agents (the collision probability at
//      every step depends only on l, not on which agents were drawn, so
//      the conditioning does not tilt the prefix). Their per-state
//      composition is multivariate hypergeometric — drawn as chained
//      univariate draws (leap::sample_hypergeometric, exact integer
//      trials for small draws).
//   3. Roles and pairing. Which l of the 2l agents are starters is a
//      uniform l-subset (MVHG over the composition); reactors match the
//      starters as a uniform permutation, so each starter-state row of
//      the pair-type contingency table N[s][r] is MVHG from the depleted
//      reactor pool.
//   4. Omissions. Whether delivery j of the round is omissive depends
//      only on the position j (the adversary's burst/budget chain), never
//      on the pair drawn there, and the pair sequence is exchangeable
//      given the contingency table — so only the COUNT of omissive marks
//      matters. OmissionProcess::sample_round_omissions draws that count
//      exactly: one binomial when the burst cap cannot bind, O(1)
//      expected draws under a capped adversary whose long bursts are rare
//      in a round (the default uo:0.1 cap 8), and a walk of the
//      burst/budget chain — one rate coin per delivery while the rate is
//      >= 1/64 — when the budget can run out mid-round or bursts are
//      long. The marks are assigned to cells by one more MVHG split.
//   5. Application. Every cell (s, r) fires its real and omissive parts
//      as single count moves (BatchSystem::bulk_fire — the 2l agents are
//      distinct, so the moves compose exactly), accumulating the touched
//      agents' POST-states.
//   6. The collision interaction. Pair l+1 is uniform over ordered pairs
//      NOT entirely untouched: with probability 2l(n-1)/M the starter is
//      one of the touched agents (categorical over the touched multiset)
//      and the reactor uniform over the other n-1; otherwise the starter
//      is untouched (global counts minus touched) and the reactor
//      touched. M = T - U(U-1). Its omission mark is one ordinary
//      should_omit draw, continuing the round's burst chain.
//
// Amortized cost per interaction is O(q^2 / l) — sub-constant once rounds
// are long (l ~ sqrt(n) at full density), which is what pushes standard
// workloads to n = 10^9 — plus the omission count's share: O(1/l) on its
// binomial and capped-round paths, but O(1) per interaction on its walk.
// Distribution-exactness is pinned by chi-square against the native
// engine with and without adversaries (tests/conformance_test.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "engine/batch/batch_system.hpp"

namespace ppfs {

class RoundSystem {
 public:
  explicit RoundSystem(BatchSystem& base);

  // Cover at most `budget` scheduler interactions with one collision-free
  // round plus its collision interaction, truncating exactly at the
  // budget and at the NO quiet horizon. Advances the base system's
  // configuration, stats, step counter and omission process in place.
  BatchDelta advance(std::size_t budget, Rng& rng);

  [[nodiscard]] std::size_t rounds() const noexcept { return rounds_; }
  [[nodiscard]] const BatchSystem& base() const noexcept { return base_; }

  // Checkpoint round-trip: the round counter is the only cross-advance
  // state here (everything else is per-round scratch); the shared chain
  // state lives in the base BatchSystem, serialized by its owner.
  void save_state(bin::Writer& w) const { w.var(rounds_); }
  void restore_state(bin::Reader& r) { rounds_ = r.var(); }

  // Wire round-length histogram + round counter; null detaches.
  void set_metrics(obs::MetricRegistry* reg);

 private:
  friend struct AuditTestPeer;  // mutation-smoke state corruption (tests)

  // Runtime-contract audit (util/audit.hpp): MVHG split totals must
  // recompose the round — cells sum to the round length, omissive marks
  // to the sampled omission count, the post-state multiset to 2*len —
  // and the base configuration still conserves n. Invoked at the end of
  // the bulk application (phase 6) while the scratch is live, under
  // -DPPFS_AUDIT=ON; always compiled for the mutation smokes. Throws
  // AuditError.
  void audit_round(std::uint64_t len, std::uint64_t k_om) const;

  BatchSystem& base_;
  std::size_t rounds_ = 0;

  // Per-round scratch, reused to keep a round allocation-free.
  std::vector<std::uint64_t> comp_;      // composition / live reactor pool
  std::vector<std::uint64_t> starters_;  // starter split by state
  std::vector<std::uint64_t> cells_;     // q*q pair-type counts
  std::vector<std::uint64_t> omits_;     // q*q omissive split
  std::vector<std::uint64_t> touched_;   // post-state multiset, sums to 2l

  obs::Histogram* m_round_len_ = nullptr;
  obs::Counter* m_rounds_ = nullptr;
};

}  // namespace ppfs
