#include "engine/batch/batch_system.hpp"

#include <stdexcept>

#include "engine/batch/leap_sampling.hpp"
#include "util/audit.hpp"

namespace ppfs {


BatchSystem::BatchSystem(std::shared_ptr<const Protocol> protocol,
                         std::vector<State> initial)
    : BatchSystem(
          Configuration::from_population(Population(std::move(protocol),
                                                    std::move(initial)))) {}

BatchSystem::BatchSystem(Configuration initial)
    : BatchSystem(RuleMatrix::compile(initial.protocol_ptr(), Model::TW),
                  initial.counts()) {}

BatchSystem::BatchSystem(RuleMatrix rules, std::vector<std::size_t> counts)
    : rules_(std::move(rules)),
      conf_(rules_.protocol_ptr(), std::move(counts)),
      q_(conf_.num_states()),
      stats_(q_) {
  if (conf_.size() < 2)
    throw std::invalid_argument("BatchSystem: need at least two agents");
  dirty_flag_.assign(q_, 0);
  build_pair_table(InteractionClass::Real, real_pairs_);
  w_real_ = real_pairs_.sampler.total();
}

void BatchSystem::set_metrics(obs::MetricRegistry* reg) {
  metrics_reg_ = reg;
  m_leap_len_ = reg ? &reg->histogram("engine.leap_len") : nullptr;
  m_weight_refreshes_ = reg ? &reg->counter("engine.weight_refreshes") : nullptr;
  if (omit_) omit_->set_metrics(reg);
}

void BatchSystem::set_omission_process(const AdversaryParams& params) {
  if (!rules_.omissive())
    throw std::invalid_argument(
        "BatchSystem: model " + model_name(rules_.model()) +
        " has no omission adversary (lift it with omissive_closure first)");
  if (params.rate < 0.0 || params.rate > 1.0)
    throw std::invalid_argument("BatchSystem: omission rate must be in [0, 1]");
  // max_burst is honored as-is: advance() samples the within-burst Markov
  // chain exactly (leap::advance), sharing the burst counter with step()'s
  // should_omit.
  omit_.emplace(params);
  omit_->set_metrics(metrics_reg_);
  omit_class_ = rules_.omission_class(params.side);
  omit_pairs_.emplace();
  build_pair_table(omit_class_, *omit_pairs_);
  w_omit_ = omit_pairs_->sampler.total();
}

// ppfs-lint: allow(weight-mul): both factors are counts <= n and the
// engine bounds n < 2^32 (the changing weight <= n(n-1) must itself fit
// u64); the alias table's larger per-slot mass products go through u128.
std::uint64_t BatchSystem::pair_weight(State s, State r) const noexcept {
  const auto& c = conf_.counts();
  const std::uint64_t cs = c[s];
  const std::uint64_t cr = c[r] - static_cast<std::uint64_t>(s == r);
  return cs == 0 ? 0 : cs * cr;
}

std::uint64_t BatchSystem::audit_changing_weight(
    InteractionClass c) const noexcept {
  std::uint64_t w = 0;
  for (State s = 0; s < q_; ++s) {
    if (conf_.counts()[s] == 0) continue;
    for (State r = 0; r < q_; ++r) {
      if (!rules_.is_noop(c, s, r)) w += pair_weight(s, r);
    }
  }
  return w;
}

void BatchSystem::build_pair_table(InteractionClass c, PairTable& table) const {
  table.pairs.clear();
  rules_.for_each_changing_pair(c, [&](State s, State r) {
    table.pairs.push_back({s, r, rules_.outcome(c, s, r)});
  });
  // Flat adjacency: count each state's slots, turn the counts into end
  // offsets, then place the slots backwards so every offset ends at its
  // state's start and each state lists its slots in ascending order.
  table.adj_begin.assign(q_ + 1, 0);
  for (const PairSlot& p : table.pairs) {
    ++table.adj_begin[p.s];
    if (p.r != p.s) ++table.adj_begin[p.r];
  }
  std::uint32_t end = 0;
  for (std::uint32_t& b : table.adj_begin) b = end += b;
  table.adj.resize(end);
  for (auto i = static_cast<std::uint32_t>(table.pairs.size()); i-- > 0;) {
    const PairSlot& p = table.pairs[i];
    table.adj[--table.adj_begin[p.s]] = i;
    if (p.r != p.s) table.adj[--table.adj_begin[p.r]] = i;
  }
  table.sampler.reset(table.pairs.size());
  for (std::size_t i = 0; i < table.pairs.size(); ++i)
    table.sampler.set(i, pair_weight(table.pairs[i].s, table.pairs[i].r));
}

void BatchSystem::flush_weights() const {
  if (dirty_.empty()) return;
  PPFS_METRIC(m_weight_refreshes_, add());
  // Inactivity is absorbing, so an inactive adversary's table is never
  // read again and stops being kept.
  const bool omit = omit_live();
  const auto refresh = [&](PairTable& table, State x) {
    for (std::uint32_t j = table.adj_begin[x]; j < table.adj_begin[x + 1];
         ++j) {
      const std::uint32_t i = table.adj[j];
      table.sampler.set(i, pair_weight(table.pairs[i].s, table.pairs[i].r));
    }
  };
  for (const State x : dirty_) {
    dirty_flag_[x] = 0;
    refresh(real_pairs_, x);
    if (omit) refresh(*omit_pairs_, x);
  }
  dirty_.clear();
  w_real_ = real_pairs_.sampler.total();
  if (omit) w_omit_ = omit_pairs_->sampler.total();
}

std::uint64_t BatchSystem::changing_weight(InteractionClass c) const {
  flush_weights();
  if (c == InteractionClass::Real) return w_real_;
  if (omit_live() && c == omit_class_) return w_omit_;
  return audit_changing_weight(c);
}

double BatchSystem::fire_density() const {
  flush_weights();
  const double t = static_cast<double>(conf_.size()) *
                   static_cast<double>(conf_.size() - 1);
  const double wr = static_cast<double>(w_real_);
  if (!omit_ || !omit_->active(steps_)) return wr / t;
  const double p = omit_->rate();
  return ((1.0 - p) * wr + p * static_cast<double>(w_omit_)) / t;
}

bool BatchSystem::silent() const {
  flush_weights();
  if (w_real_ != 0) return false;
  if (omit_ && omit_->active(steps_) && w_omit_ != 0) return false;
  return true;
}

void BatchSystem::audit_invariants() const {
  static constexpr const char* kWho = "BatchSystem";
  // Count conservation: the count vector still sums to n.
  std::uint64_t total = 0;
  for (const std::size_t c : conf_.counts()) total += c;
  audit::check(total == conf_.size(), kWho, "counts sum to population size",
               audit::expected_got(conf_.size(), total));
  // Incremental weights vs the O(q^2) reference rescan. flush_weights()
  // first: between fires the dirty list legitimately holds pending
  // deltas — the contract is agreement *after* a flush.
  flush_weights();
  audit::check(dirty_.empty(), kWho, "dirty list empty after flush");
  for (const std::uint8_t f : dirty_flag_)
    audit::check(f == 0, kWho, "dirty flags clear after flush");
  audit::check(w_real_ == audit_changing_weight(InteractionClass::Real), kWho,
               "incremental real changing-weight agrees with rescan",
               audit::expected_got(
                   audit_changing_weight(InteractionClass::Real), w_real_));
  if (omit_live())
    audit::check(w_omit_ == audit_changing_weight(omit_class_), kWho,
                 "incremental omissive changing-weight agrees with rescan",
                 audit::expected_got(audit_changing_weight(omit_class_),
                                     w_omit_));
  // Per-slot sampler weights against the live count vector, then the
  // samplers' own derived structures (Fenwick / alias).
  const auto audit_table = [&](const PairTable& table, const char* name) {
    for (std::size_t i = 0; i < table.pairs.size(); ++i) {
      const std::uint64_t want =
          pair_weight(table.pairs[i].s, table.pairs[i].r);
      audit::check(table.sampler.weight(i) == want, name,
                   "slot weight agrees with pair_weight over counts",
                   "slot " + std::to_string(i) + ": " +
                       audit::expected_got(want, table.sampler.weight(i)));
    }
    table.sampler.audit_invariants(name);
  };
  audit_table(real_pairs_, "BatchSystem.real_pairs");
  if (omit_live()) audit_table(*omit_pairs_, "BatchSystem.omit_pairs");
  if (omit_) omit_->audit_invariants();
}

void BatchSystem::apply_fire(InteractionClass c, const PairSlot& p,
                             BatchDelta& d) {
  d.fired = true;
  d.omissive = c != InteractionClass::Real;
  d.s = p.s;
  d.r = p.r;
  d.out = p.out;
  conf_.apply_outcome(p.s, p.r, p.out);
  if (d.omissive) stats_.record_omissive_fire(p.s, p.r);
  else stats_.record_fire(p.s, p.r);
  mark_moved(p.s, p.r, p.out);
}

void BatchSystem::bulk_fire(InteractionClass c, State s, State r,
                            std::size_t times) {
  if (times == 0) return;
  const StatePair out = rules_.outcome(c, s, r);
  conf_.move(s, out.starter, times);
  conf_.move(r, out.reactor, times);
  if (c == InteractionClass::Real) stats_.record_fire(s, r, times);
  else stats_.record_omissive_fire(s, r, times);
  mark_moved(s, r, out);
}

std::pair<std::uint64_t, std::uint64_t> BatchSystem::leap_weight() const {
  flush_weights();
  const std::uint64_t n = conf_.size();
  // ppfs-lint: allow(weight-mul): n < 2^32 keeps the pair total in u64.
  return {w_real_, n * (n - 1)};
}

void BatchSystem::fire_real(std::uint64_t, Rng& rng, BatchDelta& d) {
  apply_fire(InteractionClass::Real,
             pick_changing_pair(InteractionClass::Real, rng), d);
}

bool BatchSystem::fire_omission(std::uint64_t t, Rng& rng, BatchDelta& d) {
  // The omissive delivery changes counts with exact probability Wo/T.
  if (w_omit_ == 0 || rng.below(t) >= w_omit_) return false;
  apply_fire(omit_class_, pick_changing_pair(omit_class_, rng), d);
  return true;
}

BatchDelta BatchSystem::advance(std::size_t budget, Rng& rng) {
  BatchDelta d;
  leap::advance(*this, budget, rng, d);
  return d;
}

const BatchSystem::PairSlot& BatchSystem::pick_changing_pair(
    InteractionClass c, Rng& rng) const {
  // Draw the firing pair proportionally to its weight (exact integers);
  // an exhausted pick surfaces as the samplers' shared structured
  // invariant failure instead of the old terminal linear-scan throw.
  PairTable& table =
      c == InteractionClass::Real ? real_pairs_ : *omit_pairs_;
  return table.pairs[table.sampler.draw(rng)];
}

BatchDelta BatchSystem::step(Rng& rng) {
  BatchDelta d;
  d.interactions = 1;
  const std::size_t n = conf_.size();
  const auto& c = conf_.counts();

  const bool omissive = omit_ && omit_->should_omit(rng, steps_);
  if (omissive) ++d.omissions;

  // Starter: uniform over the n agents == categorical over counts.
  std::uint64_t pick = rng.below(n);
  State s = 0;
  for (; s < q_; ++s) {
    if (pick < c[s]) break;
    pick -= c[s];
  }
  // Reactor: uniform over the remaining n-1 agents (starter removed).
  pick = rng.below(n - 1);
  State r = 0;
  for (; r < q_; ++r) {
    const std::uint64_t cr = c[r] - static_cast<std::uint64_t>(r == s);
    if (pick < cr) break;
    pick -= cr;
  }

  const InteractionClass cls =
      omissive ? omit_class_ : InteractionClass::Real;
  if (rules_.is_noop(cls, s, r)) {
    d.noops = 1;
    if (omissive) stats_.record_omissive_noops(1);
    else stats_.record_noops(1);
  } else {
    apply_fire(cls, s, r, d);
  }
  ++steps_;
  return d;
}

void BatchSystem::save_state(bin::Writer& w) const {
  // Flush first so the sampler faces saved below describe the same weight
  // tables a restore's mark-all + flush will rebuild.
  flush_weights();
  const std::vector<std::size_t>& c = conf_.counts();
  w.var(c.size());
  for (const std::size_t k : c) w.var(k);
  w.var(steps_);
  stats_.save_state(w);
  w.u8(omit_ ? 1 : 0);
  if (omit_) omit_->save_state(w);
  w.u8(real_pairs_.sampler.alias_face() ? 1 : 0);
  w.var(real_pairs_.sampler.draws_since_update());
  w.u8(omit_pairs_ ? 1 : 0);
  if (omit_pairs_) {
    w.u8(omit_pairs_->sampler.alias_face() ? 1 : 0);
    w.var(omit_pairs_->sampler.draws_since_update());
  }
}

void BatchSystem::restore_state(bin::Reader& r) {
  const std::size_t q = r.var();
  if (q != q_)
    throw std::runtime_error("BatchSystem::restore_state: state-count mismatch");
  std::vector<std::size_t> counts(q);
  for (auto& k : counts) k = r.var();
  conf_ = Configuration(conf_.protocol_ptr(), std::move(counts));
  steps_ = r.var();
  stats_.restore_state(r);
  const bool had_omit = r.u8() != 0;
  if (had_omit != omit_.has_value())
    throw std::runtime_error(
        "BatchSystem::restore_state: omission-process mismatch");
  if (omit_) omit_->restore_state(r);
  // Rebuild every sampler weight from the restored counts, then restore
  // the draw-policy faces (build_alias is a pure function of the weights).
  for (State s = 0; s < q_; ++s) mark_dirty(s);
  flush_weights();
  const bool real_alias = r.u8() != 0;
  const std::size_t real_draws = r.var();
  real_pairs_.sampler.restore_face(real_alias, real_draws);
  const bool had_omit_pairs = r.u8() != 0;
  if (had_omit_pairs != omit_pairs_.has_value())
    throw std::runtime_error(
        "BatchSystem::restore_state: omissive pair-table mismatch");
  if (omit_pairs_) {
    const bool omit_alias = r.u8() != 0;
    const std::size_t omit_draws = r.var();
    omit_pairs_->sampler.restore_face(omit_alias, omit_draws);
  }
}

}  // namespace ppfs
