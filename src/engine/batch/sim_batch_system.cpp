#include "engine/batch/sim_batch_system.hpp"

#include <limits>
#include <stdexcept>

#include "engine/batch/alias_sampler.hpp"
#include "engine/batch/leap_sampling.hpp"

namespace ppfs {

// --- SparseConfiguration ----------------------------------------------------

void SparseConfiguration::grow_to(std::size_t universe_size) {
  if (universe_size > counts_.size()) {
    counts_.resize(universe_size, 0);
    pos_.resize(universe_size, kNoPos);
  }
}

void SparseConfiguration::add(State s, std::size_t k) {
  if (k == 0) return;
  grow_to(static_cast<std::size_t>(s) + 1);
  if (counts_[s] == 0) {
    pos_[s] = static_cast<std::uint32_t>(occupied_.size());
    occupied_.push_back(s);
  }
  counts_[s] += static_cast<std::uint32_t>(k);
  n_ += k;
}

void SparseConfiguration::remove(State s, std::size_t k) {
  if (k == 0) return;
  if (count(s) < k)
    throw std::invalid_argument("SparseConfiguration: removing unpopulated state");
  counts_[s] -= static_cast<std::uint32_t>(k);
  n_ -= k;
  if (counts_[s] == 0) {
    // Swap-erase from the occupied list.
    const std::size_t p = pos_[s];
    const State last = occupied_.back();
    occupied_[p] = last;
    pos_[last] = p;
    occupied_.pop_back();
    pos_[s] = kNoPos;
  }
}

void SparseConfiguration::audit_invariants(const char* who) const {
  std::uint64_t total = 0;
  std::size_t nonzero = 0;
  for (std::size_t s = 0; s < counts_.size(); ++s) {
    total += counts_[s];
    if (counts_[s] == 0) {
      audit::check(pos_[s] == kNoPos, who,
                   "zero-count state has no occupied position",
                   "state " + std::to_string(s));
      continue;
    }
    ++nonzero;
    audit::check(pos_[s] < occupied_.size() &&
                     occupied_[pos_[s]] == static_cast<State>(s),
                 who, "occupied position round-trips",
                 "state " + std::to_string(s));
  }
  audit::check(nonzero == occupied_.size(), who,
               "occupied list covers exactly the nonzero counts",
               audit::expected_got(nonzero, occupied_.size()));
  audit::check(total == n_, who, "counts sum to population size",
               audit::expected_got(total, n_));
}

// --- SimBatchSystem ---------------------------------------------------------

SimBatchSystem::SimBatchSystem(std::shared_ptr<DynamicRuleSource> rules,
                               const std::vector<State>& sim_initial,
                               std::optional<std::size_t> outcome_cache_capacity)
    : SimBatchSystem(rules, AdoptWrappers{},
                     rules ? rules->intern_initial_groups(sim_initial)
                           : std::vector<std::pair<State, std::size_t>>{},
                     outcome_cache_capacity) {}

SimBatchSystem::SimBatchSystem(
    std::shared_ptr<DynamicRuleSource> rules, AdoptWrappers,
    const std::vector<std::pair<State, std::size_t>>& wrappers,
    std::optional<std::size_t> outcome_cache_capacity, std::size_t start_step)
    : rules_(std::move(rules)), steps_(start_step) {
  if (!rules_) throw std::invalid_argument("SimBatchSystem: null rule source");
  std::size_t n = 0;
  for (const auto& [s, k] : wrappers) n += k;
  if (n < 2)
    throw std::invalid_argument("SimBatchSystem: need at least two agents");
  rules_->set_outcome_cache_capacity(outcome_cache_capacity.value_or(
      rules_->self_caching()
          ? 0
          : std::min<std::size_t>(kDefaultOutcomeCacheCapacity,
                                  std::max<std::size_t>(n * 4, 256))));
  factored_ = rules_->real_noop_factors();
  open_ = rules_->open_universe();
  stats_.reset(rules_->protocol().num_states());
  projected_.assign(rules_->protocol().num_states(), 0);
  grow_to_universe();
  for (const auto& [s, k] : wrappers) {
    if (k == 0) continue;
    change_count(s, static_cast<std::int64_t>(k));
    projected_.at(rules_->project(s)) += k;
  }
}

void SimBatchSystem::set_metrics(obs::MetricRegistry* reg) {
  metrics_reg_ = reg;
  m_leap_len_ = reg ? &reg->histogram("engine.leap_len") : nullptr;
  m_weight_scans_ = reg ? &reg->counter("engine.weight_scans") : nullptr;
  m_direct_steps_ = reg ? &reg->counter("engine.direct_steps") : nullptr;
  m_time_fire_ = reg ? &reg->timer("time.fire") : nullptr;
  idx_.set_metrics(reg);
  rules_->set_metrics(reg);
  if (omit_) omit_->set_metrics(reg);
}

void SimBatchSystem::lend_omission_process(OmissionProcess& process) {
  if (!is_omissive(rules_->model()))
    throw std::invalid_argument(
        "SimBatchSystem: model " + model_name(rules_->model()) +
        " has no omission adversary");
  if (process.rate() < 0.0 || process.rate() > 1.0)
    throw std::invalid_argument(
        "SimBatchSystem: omission rate must be in [0, 1]");
  omit_ = &process;
  omit_->set_metrics(metrics_reg_);
  omit_class_ = omission_class_for(rules_->model(), process.params().side);
}

void SimBatchSystem::grow_to_universe() {
  const std::size_t m = rules_->universe_size();
  conf_.grow_to(m);
  idx_.ensure(m);
  if (factored_ && silent_known_.size() < m) silent_known_.resize(m, 0);
}

bool SimBatchSystem::silent(State s) {
  if (!factored_) return false;
  if (s >= silent_known_.size()) silent_known_.resize(rules_->universe_size(), 0);
  std::uint8_t& flag = silent_known_[s];
  if (flag == 0) flag = rules_->starter_silent(s) ? 2 : 1;
  return flag == 2;
}

State SimBatchSystem::project_of(State s) {
  if (s >= proj_memo_.size()) proj_memo_.resize(rules_->universe_size(), kNoState);
  State& p = proj_memo_[s];
  if (p == kNoState) p = rules_->project(s);
  return p;
}

void SimBatchSystem::change_count(State s, std::int64_t delta) {
  if (delta > 0)
    conf_.add(s, static_cast<std::size_t>(delta));
  else
    conf_.remove(s, static_cast<std::size_t>(-delta));
  idx_.add(s, delta);
  if (factored_ && silent(s))
    silent_count_ = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(silent_count_) + delta);
}

void SimBatchSystem::release_if_dead(State s) {
  if (!open_ || conf_.count(s) != 0) return;
  if (s < silent_known_.size()) silent_known_[s] = 0;
  if (s < proj_memo_.size()) proj_memo_[s] = kNoState;
  rules_->release_state(s);
}

std::pair<std::uint64_t, std::uint64_t> SimBatchSystem::real_weight() {
  const std::uint64_t n = conf_.size();
  if (factored_) return {n - silent_count_, n};
  if (!weights_valid_) {
    w_real_ = scan_changing_weight();
    weights_valid_ = true;
  }
  // ppfs-lint: allow(weight-mul): n < 2^32 keeps the pair total in u64.
  return {w_real_, n * (n - 1)};
}

std::uint64_t SimBatchSystem::scan_changing_weight() {
  PPFS_METRIC(m_weight_scans_, add());
  std::uint64_t w = 0;
  const auto& occ = conf_.occupied();
  for (const State s : occ) {
    const std::uint64_t cs = conf_.count(s);
    for (const State r : occ) {
      if (rules_->is_noop(InteractionClass::Real, s, r)) continue;
      // ppfs-lint: allow(weight-mul): counts <= n < 2^32, and the sum is
      // bounded by the u64 pair total n(n-1).
      w += cs * (conf_.count(r) - static_cast<std::uint64_t>(s == r));
    }
  }
  grow_to_universe();  // is_noop may have interned successor states
  return w;
}

State SimBatchSystem::draw_reactor_excluding(State s, Rng& rng) {
  // Hypergeometric second draw: uniform over the n - 1 agents left after
  // removing one starter copy of `s`.
  return static_cast<State>(idx_.find_excluding(rng.below(conf_.size() - 1), s));
}

std::pair<State, State> SimBatchSystem::draw_any_pair(Rng& rng) {
  const State s = static_cast<State>(idx_.find(rng.below(conf_.size())));
  return {s, draw_reactor_excluding(s, rng)};
}

std::pair<State, State> SimBatchSystem::pick_changing_pair(std::uint64_t w,
                                                           Rng& rng) {
  if (factored_) {
    // Starter proportional to counts over non-silent states — drawn by
    // rejection against the silence memo (a try accepts w.p. (n - S)/n,
    // which is exactly the per-interaction fire rate, so rejections cost
    // O(1) per covered interaction amortized) — reactor over everyone
    // else: every such pair changes counts (factored contract).
    State s;
    do {
      s = static_cast<State>(idx_.find(rng.below(conf_.size())));
    } while (silent(s));
    return {s, draw_reactor_excluding(s, rng)};
  }
  const std::uint64_t n = conf_.size();
  // ppfs-lint: allow(weight-mul): n < 2^32 keeps the pair total in u64.
  const std::uint64_t t = n * (n - 1);
  if (w >= t / 16) {
    // Dense regime: rejection against the count draw (expected <= 16
    // tries), O(log universe) per try.
    for (;;) {
      const auto [s, r] = draw_any_pair(rng);
      if (!rules_->is_noop(InteractionClass::Real, s, r)) return {s, r};
    }
  }
  // Sparse regime: exact weighted scan over occupied pairs. An exhausted
  // pick (stale w, or a rounding edge walking past the last pair) funnels
  // through the samplers' shared structured invariant check, which
  // preserves the pick and the weight actually covered.
  std::uint64_t pick = rng.below(w);
  std::uint64_t covered = 0;
  const auto& occ = conf_.occupied();
  for (const State s : occ) {
    const std::uint64_t cs = conf_.count(s);
    for (const State r : occ) {
      if (rules_->is_noop(InteractionClass::Real, s, r)) continue;
      // ppfs-lint: allow(weight-mul): counts <= n < 2^32, product < n(n-1).
      const std::uint64_t pw = cs * (conf_.count(r) - static_cast<std::uint64_t>(s == r));
      if (pick < pw) return {s, r};
      pick -= pw;
      covered += pw;
    }
  }
  sampler_invariant_failure("SimBatchSystem::pick_changing_pair",
                            covered + pick, covered);
}

void SimBatchSystem::apply_fire(InteractionClass c, State s, State r,
                                StatePair out, BatchDelta& d) {
  // No up-front universe growth: every array the hot path touches grows
  // lazily (conf_/idx_ inside add, silence/projection memos on access).
  const State ps = project_of(s);
  const State pr = project_of(r);
  d.fired = true;
  d.omissive = c != InteractionClass::Real;
  d.s = s;
  d.r = r;
  d.out = out;
  change_count(s, -1);
  change_count(r, -1);
  change_count(out.starter, +1);
  change_count(out.reactor, +1);
  projected_valid_ = false;
  // RunStats in projection space: the simulated pre-states of the fired
  // wrapper rule (wrapper-level fires whose projection is unchanged still
  // count — they are the simulator's bookkeeping traffic).
  if (d.omissive) stats_.record_omissive_fire(ps, pr);
  else stats_.record_fire(ps, pr);
  weights_valid_ = false;
  noop_streak_ = 0;
  if (open_) {
    release_if_dead(s);
    if (r != s) release_if_dead(r);
  }
}

const std::vector<std::size_t>& SimBatchSystem::projected_counts() const {
  if (!projected_valid_) {
    std::fill(projected_.begin(), projected_.end(), 0);
    for (const State s : conf_.occupied())
      projected_[rules_->project(s)] += conf_.count(s);
    projected_valid_ = true;
  }
  return projected_;
}

void SimBatchSystem::fire_real(std::uint64_t w, Rng& rng, BatchDelta& d) {
  PPFS_TIMER_BEGIN(t0, m_time_fire_);
  const auto [s, r] = pick_changing_pair(w, rng);
  const StatePair out = rules_->outcome_cached(InteractionClass::Real, s, r);
  if (out.starter == s && out.reactor == r)
    throw std::logic_error(
        "SimBatchSystem: rule source violated its no-op structure (picked "
        "changing pair is a no-op)");
  apply_fire(InteractionClass::Real, s, r, out, d);
  ++d.interactions;
  ++steps_;
  PPFS_TIMER_END(t0, m_time_fire_);
}

BatchDelta SimBatchSystem::advance(std::size_t budget, Rng& rng) {
  BatchDelta d;
  // Factored hot loop (SKnO without an active omission process): the
  // whole slice alternates O(1)-weight leaps and fires inside one tight
  // loop — the omission checks and general-mode machinery are hoisted out
  // entirely.
  if (factored_ && (!omit_ || !omit_->active(steps_))) {
    const std::uint64_t n = conf_.size();
    while (d.interactions < budget) {
      const std::uint64_t w = n - silent_count_;
      if (w == 0) {
        const std::size_t remaining = budget - d.interactions;
        d.interactions += remaining;
        d.noops += remaining;
        steps_ += remaining;
        stats_.record_noops(remaining);
        return d;
      }
      if (silent_count_ != 0) {
        const std::size_t cap = budget - d.interactions;
        const std::size_t skipped = leap::sample_noop_run(w, n, rng, cap);
        PPFS_METRIC(m_leap_len_, record(skipped));
        if (skipped > 0) {
          d.noops += skipped;
          d.interactions += skipped;
          steps_ += skipped;
          stats_.record_noops(skipped);
          if (skipped == cap) return d;
        }
      }
      fire_real(w, rng, d);
    }
    return d;
  }
  // Dense adaptive path (general mode): while fires are frequent, direct
  // steps beat weight maintenance — no O(occupied^2) scans at all. A
  // no-op streak of kLeapThreshold hands over to the leap machinery below.
  if (!factored_) {
    const std::size_t threshold = leap_threshold();
    while (d.interactions < budget && noop_streak_ < threshold) {
      if (step_once(rng, d)) return d;
    }
    if (d.interactions >= budget) return d;
  }
  while (d.interactions < budget) {
    const std::size_t remaining = budget - d.interactions;
    const auto [w, t] = real_weight();

    if (!omit_ || !omit_->active(steps_)) {
      // No insertable omissions now or ever again (inactivity is
      // absorbing): the exact integer leap.
      if (w == 0) {
        d.interactions += remaining;
        d.noops += remaining;
        steps_ += remaining;
        stats_.record_noops(remaining);
        return d;
      }
      const std::size_t skipped = leap::sample_noop_run(w, t, rng, remaining);
      PPFS_METRIC(m_leap_len_, record(skipped));
      d.noops += skipped;
      d.interactions += skipped;
      steps_ += skipped;
      stats_.record_noops(skipped);
      if (skipped == remaining) return d;
      fire_real(w, rng, d);
      return d;
    }

    const double p = omit_->rate();
    // Never leap across the NO quiet horizon: the omission probability
    // flips to zero there, which the next loop iteration picks up.
    std::size_t cap = remaining;
    if (omit_->quiet_after() != std::numeric_limits<std::size_t>::max() &&
        omit_->quiet_after() > steps_)
      cap = std::min(cap, omit_->quiet_after() - steps_);

    const double wr = static_cast<double>(w) / static_cast<double>(t);
    const bool capped = omit_->burst_cap_reachable();
    if (rules_->omission_transparent() && capped) {
      // Omissive draws are global no-ops (reactor-side-only simulators)
      // but the burst cap binds: sample the within-burst Markov chain
      // exactly, one burst episode at a time (budget exhaustion is
      // handled inside the leg).
      std::size_t burst = omit_->burst();
      const leap::BurstLeg leg = leap::sample_capped_burst_leg(
          p, w, t, omit_->max_burst(), burst, omit_->remaining_budget(), cap,
          rng);
      omit_->set_burst(burst);
      omit_->note_omissions(leg.omissions);
      const std::size_t noops = leg.deliveries - (leg.fire ? 1 : 0);
      stats_.record_omissive_noops(leg.omissions);
      stats_.record_noops(noops - leg.omissions);
      d.noops += noops;
      d.omissions += leg.omissions;
      d.interactions += noops;
      steps_ += noops;
      if (leg.fire) {
        fire_real(w, rng, d);
        return d;
      }
      if (cap == remaining) return d;  // budget exhausted
      continue;                        // crossed the quiet horizon
    }

    if (rules_->omission_transparent() && omit_->remaining_budget() > cap) {
      // Omissive draws are global no-ops, the burst cap can never bind
      // again, and the budget cannot run out mid-leap: geometric run to
      // the next (necessarily real) change, binomial split of the no-ops
      // into real and omissive draws.
      const double rho = (1.0 - p) * wr;
      const std::size_t run = leap::sample_bernoulli_run(rho, rng, cap);
      PPFS_METRIC(m_leap_len_, record(run));
      if (run > 0) {
        const double q_om = p / (1.0 - rho);  // P(omissive | no-op)
        const std::size_t om = leap::sample_binomial(run, q_om, rng);
        omit_->note_omissions(om);
        stats_.record_omissive_noops(om);
        stats_.record_noops(run - om);
        d.noops += run;
        d.omissions += om;
        d.interactions += run;
        steps_ += run;
      }
      if (run == cap) {
        if (cap == remaining) return d;  // budget exhausted
        continue;                        // crossed the quiet horizon
      }
      fire_real(w, rng, d);
      return d;
    }

    if (capped && omit_->burst() >= omit_->max_burst()) {
      // A full burst forces the next delivery to be real (no rate coin).
      omit_->set_burst(0);
      if (w > 0 && rng.below(t) < w) {
        fire_real(w, rng, d);
        return d;
      }
      stats_.record_noops(1);
      ++d.noops;
      ++d.interactions;
      ++steps_;
      continue;
    }

    // Event-punctuated leap: an "event" is an omissive delivery or a real
    // count-change; the run of real no-ops before it is geometric (every
    // real delivery resets the burst, so the omission probability is p
    // throughout the run). Each omissive delivery draws its victim pair
    // hypergeometrically and applies the omissive-class outcome, whatever
    // it is — identical in distribution to BatchSystem's Wo/T split.
    const double sigma = p + (1.0 - p) * wr;
    const std::size_t run = leap::sample_bernoulli_run(sigma, rng, cap);
    PPFS_METRIC(m_leap_len_, record(run));
    if (run > 0) {
      stats_.record_noops(run);
      d.noops += run;
      d.interactions += run;
      steps_ += run;
      omit_->set_burst(0);
    }
    if (run == cap) {
      if (cap == remaining) return d;
      continue;
    }
    if (rng.chance(p / sigma)) {
      omit_->note_omissions(1);
      omit_->set_burst(omit_->burst() + 1);
      ++d.omissions;
      const auto [s, r] = draw_any_pair(rng);
      const StatePair out = rules_->outcome_cached(omit_class_, s, r);
      if (out.starter == s && out.reactor == r) {
        stats_.record_omissive_noops(1);
        ++d.noops;
        ++d.interactions;
        ++steps_;
        continue;  // budget/horizon/burst state may have changed
      }
      apply_fire(omit_class_, s, r, out, d);
      ++d.interactions;
      ++steps_;
      return d;
    }
    fire_real(w, rng, d);
    omit_->set_burst(0);
    return d;
  }
  return d;
}

void SimBatchSystem::audit_invariants() {
  static constexpr const char* kWho = "SimBatchSystem";
  conf_.audit_invariants("SimBatchSystem.conf");
  idx_.audit_invariants("SimBatchSystem.idx");
  audit::check(conf_.size() == idx_.total(), kWho,
               "configuration and count index agree on n",
               audit::expected_got(conf_.size(), idx_.total()));
  std::uint64_t silent_sum = 0;
  for (const State s : conf_.occupied()) {
    audit::check(conf_.count(s) == idx_.get(s), kWho,
                 "configuration and count index agree per state",
                 "state " + std::to_string(s) + ": " +
                     audit::expected_got(conf_.count(s), idx_.get(s)));
    // Occupied states must be decodable — a released-but-still-counted id
    // throws from the source's projection, which we surface structurally.
    try {
      (void)rules_->project(s);
    } catch (const std::exception& e) {
      audit::check(false, kWho, "occupied state is live in the rule source",
                   "state " + std::to_string(s) + ": " + e.what());
    }
    if (factored_ && s < silent_known_.size()) {
      audit::check(silent_known_[s] != 0, kWho,
                   "occupied state has a silence classification",
                   "state " + std::to_string(s));
      if (silent_known_[s] == 2) silent_sum += conf_.count(s);
    }
  }
  if (factored_)
    audit::check(silent_sum == silent_count_, kWho,
                 "silent-population counter agrees with classification",
                 audit::expected_got(silent_sum, silent_count_));
  if (!factored_ && weights_valid_) {
    const std::uint64_t ref = scan_changing_weight();
    audit::check(w_real_ == ref, kWho,
                 "incremental changing-weight agrees with rescan",
                 audit::expected_got(ref, w_real_));
  }
  if (projected_valid_) {
    std::uint64_t proj = 0;
    for (const std::size_t c : projected_) proj += c;
    audit::check(proj == conf_.size(), kWho,
                 "projected counts conserve population size",
                 audit::expected_got(conf_.size(), proj));
  }
  rules_->audit_invariants();
  if (omit_) omit_->audit_invariants();
}

bool SimBatchSystem::step_once(Rng& rng, BatchDelta& d) {
  PPFS_METRIC(m_direct_steps_, add());
  const bool omissive = omit_ && omit_->should_omit(rng, steps_);
  if (omissive) ++d.omissions;
  const auto [s, r] = draw_any_pair(rng);
  const InteractionClass c = omissive ? omit_class_ : InteractionClass::Real;
  const StatePair out = rules_->outcome_cached(c, s, r);
  ++d.interactions;
  ++steps_;
  if (out.starter == s && out.reactor == r) {
    ++d.noops;
    ++noop_streak_;
    if (omissive) stats_.record_omissive_noops(1);
    else stats_.record_noops(1);
    return false;
  }
  apply_fire(c, s, r, out, d);
  return true;
}

BatchDelta SimBatchSystem::step(Rng& rng) {
  BatchDelta d;
  (void)step_once(rng, d);
  return d;
}

void SimBatchSystem::save_state(bin::Writer& w) const {
  rules_->save_checkpoint(w);
  const std::vector<State>& occ = conf_.occupied();
  w.var(occ.size());
  for (const State s : occ) {
    w.var(s);
    w.var(conf_.count(s));
  }
  w.var(steps_);
  stats_.save_state(w);
  w.u8(omit_ ? 1 : 0);
  if (omit_) omit_->save_state(w);
  w.u8(weights_valid_ ? 1 : 0);
  w.var(w_real_);
  w.var(noop_streak_);
}

void SimBatchSystem::restore_state(bin::Reader& r) {
  rules_->restore_checkpoint(r);
  const std::size_t nocc = r.var();
  std::vector<std::pair<State, std::uint64_t>> occ(nocc);
  for (auto& [s, k] : occ) {
    s = static_cast<State>(r.var());
    k = r.var();
  }
  // Rebuild the derived index stack by replaying the saved (state, count)
  // pairs through change_count in occupied-list order: reconstructs conf_
  // (same occupied order — pick_changing_pair's sparse scan walks it),
  // idx_, and the silent tally; the silence/projection memos refill
  // lazily (pure per encoding).
  conf_ = SparseConfiguration{};
  idx_ = CountIndex{};
  silent_known_.clear();
  silent_count_ = 0;
  proj_memo_.clear();
  grow_to_universe();
  for (const auto& [s, k] : occ) change_count(s, static_cast<std::int64_t>(k));
  projected_valid_ = false;
  steps_ = r.var();
  stats_.restore_state(r);
  const bool had_omit = r.u8() != 0;
  if (had_omit != (omit_ != nullptr))
    throw std::runtime_error(
        "SimBatchSystem::restore_state: omission-process mismatch");
  if (omit_) omit_->restore_state(r);
  weights_valid_ = r.u8() != 0;
  w_real_ = r.var();
  noop_streak_ = r.var();
  // idx_ was reconstructed from scratch: re-wire instrumentation handles.
  if (metrics_reg_) set_metrics(metrics_reg_);
}

}  // namespace ppfs
