// Dynamic weighted sampling over a fixed slot set (the changing pairs of
// one interaction class), replacing the per-draw linear weight walk and
// the O(q^2) changing_weight() rescan in the count-space engines.
//
// Two faces over the same weight vector, chosen by the update/draw ratio:
//
//   * Fenwick (partial-sum) tree — set() and draw() are O(log k), exact
//     (the draw descends on rng.below(total), never touching floating
//     point). This is the update-heavy face: in dense regimes every fire
//     dirties up to four states, so weights change between most draws
//     and an alias table would be rebuilt for a single use. The tree sums
//     blocks of kBlock slots, and a draw ends with a scan of one block:
//     a set() then touches log(k / kBlock) nodes, and the few-slot tables
//     of small protocols (exact-majority has 6) keep one node in all.
//   * Alias table — O(1) draws, O(k) rebuild, exact integer thresholds
//     (Vose's method run on w_i * k against bucket capacity W = total;
//     the build intermediates need unsigned __int128 because W can reach
//     n(n-1) ~ 10^18 at n = 10^9 and w_i * k then overflows u64, but
//     every stored threshold is <= W and fits back in u64). This is the
//     draw-heavy face: the round engine draws its collision pair and the
//     sim engines probe stable windows many times between weight changes.
//
// The policy is automatic: draws served while no set() has intervened
// are counted, and once they amortize one rebuild (>= size() draws) the
// alias table is built and serves until the next set() invalidates it.
// Callers never pick a face.
//
// The terminal "weight scan exhausted" paths of both engines' linear
// scans funnel through sampler_invariant_failure() below: a structured,
// shared invariant check that preserves the pick and the total actually
// covered, so a stale-weight bug or a rounding edge reports the numbers
// needed to reproduce it instead of a bare logic_error string.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/audit.hpp"
#include "util/rng.hpp"

namespace ppfs {

// Thrown when a weighted pick is not covered by the weights it was drawn
// against — stale totals, a count/weight desync, or a rounding edge
// walking past the last bucket. Carries the numbers, not just prose.
class SamplerInvariantError : public std::logic_error {
 public:
  SamplerInvariantError(const char* context, std::uint64_t pick,
                        std::uint64_t covered)
      : std::logic_error(std::string(context) + ": weighted pick " +
                         std::to_string(pick) + " not covered by total " +
                         std::to_string(covered) +
                         " (stale weights or rounding past the last slot)"),
        context_(context),
        pick_(pick),
        covered_(covered) {}

  [[nodiscard]] const char* context() const noexcept { return context_; }
  [[nodiscard]] std::uint64_t pick() const noexcept { return pick_; }
  [[nodiscard]] std::uint64_t covered() const noexcept { return covered_; }

 private:
  const char* context_;
  std::uint64_t pick_;
  std::uint64_t covered_;
};

[[noreturn]] inline void sampler_invariant_failure(const char* context,
                                                   std::uint64_t pick,
                                                   std::uint64_t covered) {
  throw SamplerInvariantError(context, pick, covered);
}

// Terminal linear scan shared by the sparse sampler paths: returns the
// slot i with prefix(i) <= pick < prefix(i+1), or raises the structured
// invariant failure with the weight actually covered.
template <class WeightAt>
std::size_t weighted_scan(std::size_t k, std::uint64_t pick,
                          const char* context, WeightAt&& weight_at) {
  const std::uint64_t original = pick;
  std::uint64_t covered = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint64_t w = weight_at(i);
    if (pick < w) return i;
    pick -= w;
    covered += w;
  }
  sampler_invariant_failure(context, original, covered);
}

class DynamicPairSampler {
 public:
  DynamicPairSampler() = default;
  explicit DynamicPairSampler(std::size_t k) { reset(k); }

  // Slots per Fenwick leaf block.
  static constexpr std::size_t kBlock = 8;

  // Reinitialize to k slots of weight 0.
  void reset(std::size_t k) {
    w_.assign(k, 0);
    const std::size_t blocks = (k + kBlock - 1) / kBlock;
    tree_.assign(blocks + 1, 0);
    total_ = 0;
    top_ = 1;
    while (top_ * 2 <= blocks) top_ *= 2;
    alias_valid_ = false;
    draws_since_update_ = 0;
  }

  [[nodiscard]] std::size_t size() const noexcept { return w_.size(); }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t weight(std::size_t i) const { return w_[i]; }

  // O(log k); idempotent for equal weights (no alias invalidation, no
  // tree walk), so callers may re-set every pair adjacent to a dirty
  // state without tracking which weights actually moved.
  void set(std::size_t i, std::uint64_t w) {
    const std::uint64_t old = w_[i];
    if (w == old) return;
    w_[i] = w;
    total_ += w - old;  // u64 wraparound carries the signed delta exactly
    const std::uint64_t delta = w - old;
    const std::size_t blocks = tree_.size() - 1;
    for (std::size_t j = i / kBlock + 1; j <= blocks; j += j & (0 - j))
      tree_[j] += delta;
    alias_valid_ = false;
    draws_since_update_ = 0;
  }

  // Draw slot i with probability weight(i)/total(). Requires total() > 0;
  // a draw against an all-zero sampler is the same invariant breach as a
  // pick past the end and reports through the shared helper.
  std::size_t draw(Rng& rng) {
    if (total_ == 0)
      sampler_invariant_failure("DynamicPairSampler::draw", 0, 0);
    if (!alias_valid_ && ++draws_since_update_ >= w_.size() && w_.size() >= 2)
      build_alias();
    if (alias_valid_) {
      ++alias_draws_;
      const std::size_t b = static_cast<std::size_t>(rng.below(w_.size()));
      return rng.below(total_) < cut_[b] ? b : to_[b];
    }
    ++fenwick_draws_;
    return fenwick_pick(rng.below(total_));
  }

  // Runtime-contract audit (util/audit.hpp): recompute every derived
  // structure from the weight vector and compare. Cold code, always
  // compiled; the engines invoke it at slice boundaries under
  // -DPPFS_AUDIT=ON. Checks, in order: total_ is the exact weight sum,
  // the Fenwick tree is the tree a fresh build would produce, and a
  // valid alias table redistributes exactly w_i * k mass to slot i.
  void audit_invariants(const char* who = "DynamicPairSampler") const {
    const std::size_t k = w_.size();
    unsigned __int128 sum = 0;
    for (const std::uint64_t w : w_) sum += w;
    audit::check(sum == static_cast<unsigned __int128>(total_), who,
                 "total() == sum of slot weights",
                 audit::expected_got(static_cast<std::uint64_t>(sum), total_));
    const std::size_t blocks = tree_.size() - 1;
    std::vector<std::uint64_t> ref(blocks + 1, 0);
    for (std::size_t i = 0; i < k; ++i)
      for (std::size_t j = i / kBlock + 1; j <= blocks; j += j & (0 - j))
        ref[j] += w_[i];
    for (std::size_t j = 1; j <= blocks; ++j)
      audit::check(ref[j] == tree_[j], who,
                   "Fenwick node agrees with rebuild from weights",
                   "node " + std::to_string(j) + ": " +
                       audit::expected_got(ref[j], tree_[j]));
    if (alias_valid_) {
      const unsigned __int128 cap = total_;
      std::vector<unsigned __int128> mass(k, 0);
      for (std::size_t b = 0; b < k; ++b) {
        audit::check(cut_[b] <= total_, who,
                     "alias threshold within bucket capacity",
                     "bucket " + std::to_string(b));
        audit::check(to_[b] < k, who, "alias donation target in range",
                     "bucket " + std::to_string(b));
        mass[b] += cut_[b];
        mass[to_[b]] += cap - cut_[b];
      }
      for (std::size_t i = 0; i < k; ++i)
        audit::check(mass[i] == static_cast<unsigned __int128>(w_[i]) * k,
                     who, "alias table redistributes exact slot mass",
                     "slot " + std::to_string(i));
    }
  }

  // Checkpoint face. The weights themselves are rebuilt deterministically
  // by the owning system (flush_weights from restored counts); what must
  // survive a round-trip is the draw-policy state — which face would serve
  // the next draw, and how far the amortization counter has run — because
  // the alias face consumes a different number of Rng draws per pick than
  // the Fenwick face. build_alias() is a pure function of the weights, so
  // re-running it reproduces the exact table.
  [[nodiscard]] bool alias_face() const noexcept { return alias_valid_; }
  [[nodiscard]] std::size_t draws_since_update() const noexcept {
    return draws_since_update_;
  }
  void restore_face(bool alias_valid, std::size_t draws_since_update) {
    draws_since_update_ = draws_since_update;
    if (alias_valid && w_.size() >= 2)
      build_alias();
    else
      alias_valid_ = false;
  }

  // Telemetry for tests and the bench harness.
  [[nodiscard]] std::size_t alias_builds() const noexcept {
    return alias_builds_;
  }
  [[nodiscard]] std::size_t alias_draws() const noexcept {
    return alias_draws_;
  }
  [[nodiscard]] std::size_t fenwick_draws() const noexcept {
    return fenwick_draws_;
  }

 private:
  friend struct AuditTestPeer;  // mutation-smoke state corruption (tests)

  // Smallest i with prefix(i+1) > pick, exact: the Fenwick descent finds
  // the block holding the pick, a scan of that block the slot.
  std::size_t fenwick_pick(std::uint64_t pick) const {
    const std::uint64_t original = pick;
    std::size_t block = 0;
    for (std::size_t mask = top_; mask != 0; mask >>= 1) {
      const std::size_t next = block + mask;
      if (next < tree_.size() && tree_[next] <= pick) {
        block = next;
        pick -= tree_[next];
      }
    }
    // ppfs-lint: allow(weight-mul): slot indices, at most size() + kBlock.
    const std::size_t end = std::min(w_.size(), (block + 1) * kBlock);
    for (std::size_t i = block * kBlock; i < end; ++i) {
      if (pick < w_[i]) return i;
      pick -= w_[i];
    }
    sampler_invariant_failure("DynamicPairSampler::fenwick_pick", original,
                              total_);
  }

  // Vose's alias method on integer weights: bucket capacity W = total_,
  // per-slot mass r_i = w_i * k (exact in u128). Each bucket b keeps its
  // own slot below cut_[b] and donates the rest to to_[b]; stored
  // thresholds are <= W so they round-trip through u64.
  void build_alias() {
    const std::size_t k = w_.size();
    cut_.resize(k);
    to_.resize(k);
    std::vector<unsigned __int128> r(k);
    std::vector<std::uint32_t> small, large;
    small.reserve(k);
    large.reserve(k);
    const unsigned __int128 cap = total_;
    for (std::size_t i = 0; i < k; ++i) {
      r[i] = static_cast<unsigned __int128>(w_[i]) * k;
      (r[i] < cap ? small : large).push_back(static_cast<std::uint32_t>(i));
    }
    while (!small.empty() && !large.empty()) {
      const std::uint32_t s = small.back();
      small.pop_back();
      const std::uint32_t g = large.back();
      cut_[s] = static_cast<std::uint64_t>(r[s]);
      to_[s] = g;
      r[g] -= cap - r[s];
      if (r[g] < cap) {
        large.pop_back();
        small.push_back(g);
      }
    }
    for (const std::uint32_t i : large) {
      cut_[i] = total_;
      to_[i] = i;
    }
    for (const std::uint32_t i : small) {  // r == cap exactly (fp-free)
      cut_[i] = total_;
      to_[i] = i;
    }
    alias_valid_ = true;
    ++alias_builds_;
  }

  std::vector<std::uint64_t> w_;
  std::vector<std::uint64_t> tree_;  // 1-indexed Fenwick sums of blocks
  std::uint64_t total_ = 0;
  std::size_t top_ = 1;  // highest power of two <= block count

  bool alias_valid_ = false;
  std::size_t draws_since_update_ = 0;
  std::vector<std::uint64_t> cut_;  // in-bucket threshold, <= total_
  std::vector<std::uint32_t> to_;   // donation target per bucket

  std::size_t alias_builds_ = 0;
  std::size_t alias_draws_ = 0;
  std::size_t fenwick_draws_ = 0;
};

}  // namespace ppfs
