#include "engine/batch/round_system.hpp"

#include <algorithm>

#include "engine/batch/leap_sampling.hpp"

namespace ppfs {

namespace {

// Categorical walk over a count multiset: the index i with
// prefix(i) <= pick < prefix(i+1). WeightAt lets the collision draw
// subtract the starter's copy / the touched multiset without
// materializing the adjusted vector.
template <class WeightAt>
State pick_state(std::size_t q, std::uint64_t pick, const char* context,
                 WeightAt&& weight_at) {
  return static_cast<State>(
      weighted_scan(q, pick, context, std::forward<WeightAt>(weight_at)));
}

}  // namespace

RoundSystem::RoundSystem(BatchSystem& base)
    : base_(base),
      comp_(base.q_, 0),
      starters_(base.q_, 0),
      cells_(base.q_ * base.q_, 0),
      omits_(base.q_ * base.q_, 0),
      touched_(base.q_, 0) {}

void RoundSystem::set_metrics(obs::MetricRegistry* reg) {
  m_round_len_ = reg ? &reg->histogram("engine.round_len") : nullptr;
  m_rounds_ = reg ? &reg->counter("engine.rounds") : nullptr;
}

void RoundSystem::audit_round(std::uint64_t len, std::uint64_t k_om) const {
  static constexpr const char* kWho = "RoundSystem";
  std::uint64_t cells = 0;
  for (const std::uint64_t c : cells_) cells += c;
  audit::check(cells == len, kWho, "contingency cells sum to round length",
               audit::expected_got(len, cells));
  std::uint64_t omits = 0;
  for (const std::uint64_t o : omits_) omits += o;
  audit::check(omits == k_om, kWho,
               "omissive split sums to sampled omission count",
               audit::expected_got(k_om, omits));
  std::uint64_t touched = 0;
  for (const std::uint64_t t : touched_) touched += t;
  audit::check(touched == 2 * len, kWho,
               "post-state multiset covers every touched agent",
               audit::expected_got(2 * len, touched));
  std::uint64_t total = 0;
  for (const std::size_t c : base_.conf_.counts()) total += c;
  audit::check(total == base_.conf_.size(), kWho,
               "round application conserves population size",
               audit::expected_got(base_.conf_.size(), total));
}

BatchDelta RoundSystem::advance(std::size_t budget, Rng& rng) {
  BatchDelta d;
  if (budget == 0) return d;
  const std::size_t q = base_.q_;
  const std::uint64_t n = base_.conf_.size();
  // ppfs-lint: allow(weight-mul): n < 2^32 keeps the pair total in u64.
  const std::uint64_t t = n * (n - 1);
  OmissionProcess* omit = base_.omit_ && base_.omit_->active(base_.steps_)
                              ? &*base_.omit_
                              : nullptr;

  // Never let a round cross the NO quiet horizon: the per-delivery
  // omission probability flips to zero there, which the next round
  // (adversary then inactive) picks up.
  const std::size_t cap =
      omit ? omit->horizon_cap(base_.steps_, budget) : budget;

  // 1. Collision-free prefix length (truncation at `cap` is exact).
  const std::size_t len = leap::sample_round_length(n, rng, cap);
  PPFS_METRIC(m_round_len_, record(len));
  PPFS_METRIC(m_rounds_, add());
  ++rounds_;
  const std::uint64_t len2 = 2 * static_cast<std::uint64_t>(len);

  // 2. Composition of the 2l distinct touched agents by state: chained
  // hypergeometric draws over the occupied states.
  const auto& counts = base_.conf_.counts();
  std::uint64_t pool = n;
  std::uint64_t left = len2;
  std::fill(comp_.begin(), comp_.end(), 0);
  for (std::size_t s = 0; s < q && left > 0; ++s) {
    if (counts[s] == 0) continue;
    const std::uint64_t k =
        leap::sample_hypergeometric(pool, counts[s], left, rng);
    comp_[s] = k;
    pool -= counts[s];
    left -= k;
  }

  // 3. Starter split: a uniform l-subset of the 2l agents starts.
  std::fill(starters_.begin(), starters_.end(), 0);
  pool = len2;
  left = len;
  for (std::size_t s = 0; s < q && left > 0; ++s) {
    if (comp_[s] == 0) continue;
    const std::uint64_t k =
        leap::sample_hypergeometric(pool, comp_[s], left, rng);
    starters_[s] = k;
    pool -= comp_[s];
    left -= k;
  }

  // 4. Pair-type contingency: each starter-state row is MVHG from the
  // depleted reactor pool (comp_ now doubles as that live pool).
  std::fill(cells_.begin(), cells_.end(), 0);
  for (std::size_t s = 0; s < q; ++s) comp_[s] -= starters_[s];
  std::uint64_t reactors_left = len;
  std::uint64_t assigned = 0;
  for (std::size_t s = 0; s < q; ++s) {
    std::uint64_t row = starters_[s];
    if (row == 0) continue;
    std::uint64_t rest = reactors_left;
    for (std::size_t r = 0; r < q && row > 0; ++r) {
      if (comp_[r] == 0) continue;
      const std::uint64_t k =
          leap::sample_hypergeometric(rest, comp_[r], row, rng);
      cells_[s * q + r] = k;
      rest -= comp_[r];
      comp_[r] -= k;
      row -= k;
      assigned += k;
    }
    reactors_left -= starters_[s];
  }
  if (assigned != len)
    sampler_invariant_failure("RoundSystem::contingency", assigned, len);

  // 5. Omissive marks: only the count matters (marks depend on position,
  // pairs are exchangeable across positions), split over cells by MVHG.
  std::size_t k_om = 0;
  if (omit)
    k_om = omit->sample_round_omissions(len, base_.steps_, rng);
  std::fill(omits_.begin(), omits_.end(), 0);
  if (k_om > 0) {
    std::uint64_t rest = len;
    std::uint64_t left_om = k_om;
    for (std::size_t i = 0; i < cells_.size() && left_om > 0; ++i) {
      if (cells_[i] == 0) continue;
      const std::uint64_t k =
          leap::sample_hypergeometric(rest, cells_[i], left_om, rng);
      omits_[i] = k;
      rest -= cells_[i];
      left_om -= k;
    }
  }

  // 6. Apply every cell as bulk count moves, accumulating the touched
  // agents' post-round states for the collision draw.
  std::fill(touched_.begin(), touched_.end(), 0);
  const InteractionClass oc = base_.omit_class_;
  for (std::size_t s = 0; s < q; ++s) {
    for (std::size_t r = 0; r < q; ++r) {
      const std::uint64_t m = cells_[s * q + r];
      if (m == 0) continue;
      const auto ss = static_cast<State>(s);
      const auto rr = static_cast<State>(r);
      const std::uint64_t om = omits_[s * q + r];
      const std::uint64_t real = m - om;
      if (real > 0) {
        if (base_.rules_.is_noop(InteractionClass::Real, ss, rr)) {
          base_.stats_.record_noops(real);
          d.noops += real;
          touched_[s] += real;
          touched_[r] += real;
        } else {
          const StatePair out =
              base_.rules_.outcome(InteractionClass::Real, ss, rr);
          base_.bulk_fire(InteractionClass::Real, ss, rr, real);
          touched_[out.starter] += real;
          touched_[out.reactor] += real;
          d.fired = true;
        }
      }
      if (om > 0) {
        if (base_.rules_.is_noop(oc, ss, rr)) {
          base_.stats_.record_omissive_noops(om);
          d.noops += om;
          touched_[s] += om;
          touched_[r] += om;
        } else {
          const StatePair out = base_.rules_.outcome(oc, ss, rr);
          base_.bulk_fire(oc, ss, rr, om);
          touched_[out.starter] += om;
          touched_[out.reactor] += om;
          d.fired = true;
          d.omissive = true;
        }
      }
    }
  }
  d.interactions += len;
  d.omissions += k_om;
  base_.steps_ += len;
  PPFS_AUDIT_INVOKE(audit_round(len, k_om));

  // 7. The collision interaction — pair l+1, uniform over ordered pairs
  // not entirely untouched — unless the round was truncated at the cap.
  if (len < cap) {
    const auto& cnow = base_.conf_.counts();
    const std::uint64_t untouched = n - len2;
    // ppfs-lint: allow(weight-mul): untouched <= n and 2l <= n with
    // n < 2^32, so both ordered-pair products stay inside u64.
    const std::uint64_t m_all = t - untouched * (untouched - 1);
    const std::uint64_t v = rng.below(m_all);
    State s2;
    State r2;
    // ppfs-lint: allow(weight-mul): see the m_all bound above.
    if (v < len2 * (n - 1)) {
      // Starter touched, reactor anyone else.
      s2 = pick_state(q, rng.below(len2), "RoundSystem::collision_starter",
                      [&](std::size_t i) { return touched_[i]; });
      r2 = pick_state(q, rng.below(n - 1), "RoundSystem::collision_reactor",
                      [&](std::size_t i) {
                        return static_cast<std::uint64_t>(cnow[i]) -
                               (i == s2 ? 1 : 0);
                      });
    } else {
      // Starter untouched, reactor among the touched.
      s2 = pick_state(q, rng.below(untouched),
                      "RoundSystem::collision_starter",
                      [&](std::size_t i) {
                        return static_cast<std::uint64_t>(cnow[i]) -
                               touched_[i];
                      });
      r2 = pick_state(q, rng.below(len2), "RoundSystem::collision_reactor",
                      [&](std::size_t i) { return touched_[i]; });
    }
    const bool omissive =
        base_.omit_ && base_.omit_->should_omit(rng, base_.steps_);
    const InteractionClass cls = omissive ? oc : InteractionClass::Real;
    if (omissive) ++d.omissions;
    if (base_.rules_.is_noop(cls, s2, r2)) {
      ++d.noops;
      if (omissive) base_.stats_.record_omissive_noops(1);
      else base_.stats_.record_noops(1);
    } else {
      base_.apply_fire(cls, s2, r2, d);
    }
    ++d.interactions;
    ++base_.steps_;
  }
  return d;
}

}  // namespace ppfs
