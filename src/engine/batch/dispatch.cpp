#include "engine/batch/dispatch.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "engine/batch/agent_space.hpp"
#include "engine/batch/regime.hpp"
#include "engine/batch/round_system.hpp"
#include "sched/adversary.hpp"
#include "util/audit.hpp"

namespace ppfs {

namespace {

// Resolve the effective model for a (model, adversary) pair: attaching an
// adversary to a non-omissive model lifts it to its omissive closure
// (undetectable omissions — the Fig. 1 embedding); an adversary with rate
// 0 is no adversary at all.
struct ResolvedConfig {
  Model model;
  std::optional<AdversaryParams> adversary;
};

ResolvedConfig resolve(const EngineConfig& config) {
  ResolvedConfig r{config.model, config.adversary};
  if (r.adversary && r.adversary->rate <= 0.0) r.adversary.reset();
  if (r.adversary) r.model = omissive_closure(config.model);
  return r;
}

// Pull-style adversary accounting, shared by every adapter that owns an
// omission process: total emitted omissions, and the remaining budget as a
// gauge when the adversary class bounds it (UO's unbounded budget is not a
// meaningful gauge).
void sync_adversary_metrics(obs::MetricRegistry& reg,
                            const OmissionProcess& omit) {
  reg.counter("adv.omissions").set(omit.emitted());
  const std::size_t budget = omit.remaining_budget();
  if (budget != std::numeric_limits<std::size_t>::max())
    reg.gauge("adv.budget_remaining").set(static_cast<double>(budget));
}

class NativeEngine final : public Engine {
 public:
  NativeEngine(RuleMatrix rules, std::vector<State> initial,
               const std::optional<AdversaryParams>& adversary)
      : sys_(std::move(rules), std::move(initial)),
        stats_(sys_.rules().num_states()) {
    if (adversary) omit_.emplace(*adversary);
  }

  [[nodiscard]] std::string kind() const override { return "native"; }
  [[nodiscard]] const Protocol& protocol() const override {
    return sys_.rules().protocol();
  }
  [[nodiscard]] Model model() const override { return sys_.rules().model(); }
  [[nodiscard]] std::size_t size() const override { return sys_.size(); }
  [[nodiscard]] std::size_t interactions() const override { return sys_.steps(); }
  [[nodiscard]] std::size_t omissions() const override { return sys_.omissions(); }

  void counts_into(std::vector<std::size_t>& out) const override {
    sys_.population().counts_into(out);
  }

  std::size_t advance(std::size_t budget, Scheduler& sched, Rng& rng) override {
    const RuleMatrix& rules = sys_.rules();
    OmissionProcess* omit = omit_ ? &*omit_ : nullptr;
    for (std::size_t i = 0; i < budget; ++i) {
      const Interaction ia =
          next_delivery(omit, sched, rng, sys_.steps(), sys_.size());
      const State s = sys_.state(ia.starter);
      const State r = sys_.state(ia.reactor);
      const InteractionClass cls = rules.classify(ia);
      // interact() may throw (e.g. an omissive interaction from a
      // hand-built scheduler under a non-omissive model); record only
      // interactions that executed.
      sys_.interact(ia);
      if (rules.is_noop(cls, s, r)) {
        if (ia.omissive) stats_.record_omissive_noops(1);
        else stats_.record_noops(1);
      } else {
        if (ia.omissive) stats_.record_omissive_fire(s, r);
        else stats_.record_fire(s, r);
      }
      if (trace_ != nullptr) trace_->append(ia);
    }
    return budget;
  }

  [[nodiscard]] RunStats& stats() noexcept override { return stats_; }

  bool record_trace(Trace* sink) override {
    trace_ = sink;
    return true;
  }

  void sync_metrics() override {
    Engine::sync_metrics();
    if (metrics() != nullptr && omit_)
      sync_adversary_metrics(*metrics(), *omit_);
  }

 protected:
  void wire_metrics(obs::MetricRegistry& reg) override {
    sys_.set_metrics(&reg);
    if (omit_) omit_->set_metrics(&reg);
  }

 private:
  InteractionSystem sys_;
  RunStats stats_;
  std::optional<OmissionProcess> omit_;
  Trace* trace_ = nullptr;
};

class BatchEngine final : public Engine {
 public:
  BatchEngine(RuleMatrix rules, std::vector<std::size_t> counts,
              const std::optional<AdversaryParams>& adversary)
      : sys_(std::move(rules), std::move(counts)) {
    if (adversary) sys_.set_omission_process(*adversary);
  }

  [[nodiscard]] std::string kind() const override { return "batch"; }
  [[nodiscard]] const Protocol& protocol() const override {
    return sys_.protocol();
  }
  [[nodiscard]] Model model() const override { return sys_.rules().model(); }
  [[nodiscard]] std::size_t size() const override { return sys_.size(); }
  [[nodiscard]] std::size_t interactions() const override { return sys_.steps(); }
  [[nodiscard]] std::size_t omissions() const override { return sys_.omissions(); }

  void counts_into(std::vector<std::size_t>& out) const override {
    out = sys_.counts();
  }

  std::size_t advance(std::size_t budget, Scheduler& sched, Rng& rng) override {
    // The batch engine realizes the uniform distribution internally; the
    // scheduler argument is validated, not consumed.
    const auto* uniform = dynamic_cast<const UniformScheduler*>(&sched);
    if (uniform == nullptr || uniform->size() != sys_.size())
      throw std::invalid_argument(
          "batch engine: scheduler is not the uniform distribution over this "
          "population (scripted/hand-built adversarial runs need the native "
          "engine; omission adversaries attach via make_engine)");
    std::size_t covered = 0;
    while (covered < budget) covered += sys_.advance(budget - covered, rng).interactions;
    PPFS_AUDIT_INVOKE(sys_.audit_invariants());
    return covered;
  }

  [[nodiscard]] RunStats& stats() noexcept override { return sys_.stats(); }

  [[nodiscard]] bool checkpointable() const override { return true; }
  void save_state(bin::Writer& w) const override { sys_.save_state(w); }
  void restore_state(bin::Reader& r) override { sys_.restore_state(r); }

  void sync_metrics() override {
    Engine::sync_metrics();
    if (metrics() == nullptr) return;
    if (const OmissionProcess* o = sys_.omission_process())
      sync_adversary_metrics(*metrics(), *o);
  }

 protected:
  void wire_metrics(obs::MetricRegistry& reg) override {
    sys_.set_metrics(&reg);
  }

 private:
  BatchSystem sys_;
};

// engine=auto over a closed universe: two faces — the count-leap face
// (BatchSystem::advance, wins when almost no delivery changes counts) and
// the round-dense face (RoundSystem, wins when almost every delivery
// does) — over ONE BatchSystem. The faces share the configuration, stats,
// step counter and omission process, so switching moves no state and
// consumes no Rng draws; the trajectory distribution is identical on both
// (each is an exact sampler of the same count chain). A RegimeMonitor
// arbitrates on the fire density ((1-p)Wr + p·Wo)/T — an O(1) read off
// the incrementally-maintained class weights — with Space::Agent mapped
// to the round face: at or above `kToRound` density rounds win (the leap
// degenerates to one draw per interaction), at or below `kToLeap` leaping
// wins (rounds pay O(q^2) per ~sqrt(n) mostly-noop interactions), and the
// monitor's hysteresis/cooldown keeps the boundary from flapping.
class AdaptiveBatchEngine final : public Engine {
 public:
  AdaptiveBatchEngine(RuleMatrix rules, std::vector<std::size_t> counts,
                      const std::optional<AdversaryParams>& adversary)
      : sys_(std::move(rules), std::move(counts)), round_(sys_) {
    if (adversary) sys_.set_omission_process(*adversary);
    RegimeMonitor::Thresholds thr;
    thr.to_agent = kToRound;
    thr.to_count = kToLeap;
    monitor_.emplace(RegimeMonitor::favored(sys_.fire_density(), thr), thr);
  }

  [[nodiscard]] std::string kind() const override { return "auto"; }
  [[nodiscard]] std::string active_kind() const override {
    return in_round() ? "round" : "leap";
  }
  [[nodiscard]] const Protocol& protocol() const override {
    return sys_.protocol();
  }
  [[nodiscard]] Model model() const override { return sys_.rules().model(); }
  [[nodiscard]] std::size_t size() const override { return sys_.size(); }
  [[nodiscard]] std::size_t interactions() const override { return sys_.steps(); }
  [[nodiscard]] std::size_t omissions() const override { return sys_.omissions(); }

  void counts_into(std::vector<std::size_t>& out) const override {
    out = sys_.counts();
  }

  std::size_t advance(std::size_t budget, Scheduler& sched, Rng& rng) override {
    const auto* uniform = dynamic_cast<const UniformScheduler*>(&sched);
    if (uniform == nullptr || uniform->size() != sys_.size())
      throw std::invalid_argument(
          "auto engine: scheduler is not the uniform distribution over this "
          "population (scripted/hand-built adversarial runs need the native "
          "engine; omission adversaries attach via make_engine)");
    std::size_t covered = 0;
    while (covered < budget) {
      // Internal slice between regime checks, independent of the caller's
      // advance() granularity. Truncating a round or a leap at the slice
      // boundary is exact (i.i.d. pairs / memoryless geometric).
      const std::size_t slice = std::min(kSlice, budget - covered);
      std::size_t c = 0;
      if (in_round()) {
        while (c < slice) c += round_.advance(slice - c, rng).interactions;
      } else {
        while (c < slice) c += sys_.advance(slice - c, rng).interactions;
      }
      covered += c;
      PPFS_AUDIT_INVOKE(sys_.audit_invariants());
      // Density is the exact per-delivery fire probability, so the
      // monitor's dispersion channel carries it directly; the fresh-id
      // channel is neutral (nothing is interned here) and the fire-cost
      // override stays cold (both faces already ARE count space).
      // Arbitration is deterministic — the draw ledger pins that no Rng
      // draw hides here (a draw would silently shift the trajectory across
      // face switches).
      {
        PPFS_DRAW_FREE(rng, "AdaptiveBatchEngine regime arbitration");
        (void)monitor_->observe(
            RegimeMonitor::Signals{.dispersion = sys_.fire_density()});
      }
    }
    return covered;
  }

  [[nodiscard]] RunStats& stats() noexcept override { return sys_.stats(); }

  // Both faces share one BatchSystem; the only face-private state is the
  // round counter and the monitor's hysteresis face.
  [[nodiscard]] bool checkpointable() const override { return true; }
  void save_state(bin::Writer& w) const override {
    sys_.save_state(w);
    round_.save_state(w);
    monitor_->save_state(w);
  }
  void restore_state(bin::Reader& r) override {
    sys_.restore_state(r);
    round_.restore_state(r);
    monitor_->restore_state(r);
  }

  void sync_metrics() override {
    Engine::sync_metrics();
    if (metrics() == nullptr) return;
    obs::MetricRegistry& reg = *metrics();
    reg.gauge("auto.round_face").set(in_round() ? 1.0 : 0.0);
    reg.gauge("auto.switches")
        .set(static_cast<double>(monitor_->switches()));
    if (const OmissionProcess* o = sys_.omission_process())
      sync_adversary_metrics(reg, *o);
  }

 protected:
  void wire_metrics(obs::MetricRegistry& reg) override {
    sys_.set_metrics(&reg);
    round_.set_metrics(&reg);
  }

 private:
  // Fire density at/above which the round face runs, at/below which the
  // leap face runs; the band between is sticky. At density d the leap
  // covers 1/d interactions per draw, so below ~1/16 leaping is already
  // an order of magnitude ahead; above ~1/4 rounds of ~sqrt(n) amortize
  // their O(q^2) table work to sub-constant per interaction.
  static constexpr double kToRound = 0.25;
  static constexpr double kToLeap = 1.0 / 16;
  static constexpr std::size_t kSlice = 1u << 16;

  [[nodiscard]] bool in_round() const {
    return monitor_->current() == RegimeMonitor::Space::Agent;
  }

  BatchSystem sys_;
  RoundSystem round_;  // second face over sys_'s state
  std::optional<RegimeMonitor> monitor_;
};

// Step-wise simulator behind the Engine interface: the per-agent facade of
// the (simulator x engine) lattice. Event recording is off — engine runs
// are throughput/convergence runs; verification-grade runs use the
// Simulator directly.
class SimNativeEngine final : public Engine {
 public:
  SimNativeEngine(std::unique_ptr<Simulator> sim,
                  const std::optional<AdversaryParams>& adversary)
      : sim_(std::move(sim)), stats_(sim_->protocol().num_states()) {
    if (adversary) omit_.emplace(*adversary);
    sim_->record_events(false);
  }

  [[nodiscard]] std::string kind() const override { return "native"; }
  [[nodiscard]] const Protocol& protocol() const override {
    return sim_->protocol();
  }
  [[nodiscard]] Model model() const override { return sim_->model(); }
  [[nodiscard]] std::size_t size() const override { return sim_->num_agents(); }
  [[nodiscard]] std::size_t interactions() const override {
    return sim_->interactions();
  }
  [[nodiscard]] std::size_t omissions() const override {
    // Inserted by our own process, or delivered pre-marked by an
    // adversarial scheduler — the simulator counts both.
    return sim_->omissions();
  }

  void counts_into(std::vector<std::size_t>& out) const override {
    out = sim_->projected_counts();
  }

  std::size_t advance(std::size_t budget, Scheduler& sched, Rng& rng) override {
    const std::size_t n = sim_->num_agents();
    OmissionProcess* omit = omit_ ? &*omit_ : nullptr;
    for (std::size_t i = 0; i < budget; ++i) {
      const Interaction ia =
          next_delivery(omit, sched, rng, sim_->interactions(), n);
      // Fire/no-op at the simulated level: did the interaction emit any
      // simulated update? Recorded against the agents' projected
      // pre-states.
      const State ps = sim_->simulated_state(ia.starter);
      const State pr = sim_->simulated_state(ia.reactor);
      const std::uint64_t before = sim_->simulated_updates();
      sim_->interact(ia);
      const bool fired = sim_->simulated_updates() > before;
      if (fired) {
        if (ia.omissive) stats_.record_omissive_fire(ps, pr);
        else stats_.record_fire(ps, pr);
      } else {
        if (ia.omissive) stats_.record_omissive_noops(1);
        else stats_.record_noops(1);
      }
    }
    return budget;
  }

  [[nodiscard]] RunStats& stats() noexcept override { return stats_; }

  void sync_metrics() override {
    Engine::sync_metrics();
    if (metrics() != nullptr && omit_)
      sync_adversary_metrics(*metrics(), *omit_);
  }

 protected:
  // The step-wise Simulator facade carries no hot-path hooks (it is the
  // verification path, not the throughput path); only the adversary wires.
  void wire_metrics(obs::MetricRegistry& reg) override {
    if (omit_) omit_->set_metrics(&reg);
  }

 private:
  std::unique_ptr<Simulator> sim_;
  RunStats stats_;
  std::optional<OmissionProcess> omit_;
};

// Count-space simulator engine over the open-universe SimBatchSystem.
class SimBatchEngine final : public Engine {
 public:
  SimBatchEngine(std::shared_ptr<DynamicRuleSource> rules,
                 const std::vector<State>& sim_initial,
                 const std::optional<AdversaryParams>& adversary,
                 std::optional<std::size_t> outcome_cache_capacity)
      : sys_(std::move(rules), sim_initial, outcome_cache_capacity) {
    if (adversary) sys_.set_omission_process(*adversary);
  }

  [[nodiscard]] std::string kind() const override { return "batch"; }
  [[nodiscard]] const Protocol& protocol() const override {
    return sys_.protocol();
  }
  [[nodiscard]] Model model() const override { return sys_.rules().model(); }
  [[nodiscard]] std::size_t size() const override { return sys_.size(); }
  [[nodiscard]] std::size_t interactions() const override { return sys_.steps(); }
  [[nodiscard]] std::size_t omissions() const override { return sys_.omissions(); }

  void counts_into(std::vector<std::size_t>& out) const override {
    out = sys_.projected_counts();
  }

  std::size_t advance(std::size_t budget, Scheduler& sched, Rng& rng) override {
    const auto* uniform = dynamic_cast<const UniformScheduler*>(&sched);
    if (uniform == nullptr || uniform->size() != sys_.size())
      throw std::invalid_argument(
          "sim batch engine: scheduler is not the uniform distribution over "
          "this population (scripted/hand-built adversarial runs need the "
          "native engine; omission adversaries attach via make_sim_engine)");
    std::size_t covered = 0;
    while (covered < budget)
      covered += sys_.advance(budget - covered, rng).interactions;
    PPFS_AUDIT_INVOKE(sys_.audit_invariants());
    return covered;
  }

  [[nodiscard]] RunStats& stats() noexcept override { return sys_.stats(); }

  [[nodiscard]] bool checkpointable() const override {
    return sys_.rules().checkpointable();
  }
  void save_state(bin::Writer& w) const override { sys_.save_state(w); }
  void restore_state(bin::Reader& r) override { sys_.restore_state(r); }

  [[nodiscard]] std::size_t universe_live() const override {
    return sys_.universe_live();
  }

  void sync_metrics() override {
    Engine::sync_metrics();
    if (metrics() == nullptr) return;
    obs::MetricRegistry& reg = *metrics();
    sys_.rules().export_metrics(reg);
    reg.gauge("universe.live").set(static_cast<double>(sys_.universe_live()));
    reg.gauge("universe.size")
        .set(static_cast<double>(sys_.rules().universe_size()));
    if (const OmissionProcess* o = sys_.omission_process())
      sync_adversary_metrics(reg, *o);
  }

  void fill_summary(obs::ConfigSummary& out, std::size_t top_k) const override {
    Engine::fill_summary(out, top_k);
    // top_counts stay the simulated projection (those labels mean
    // something to a reader); the distinct-state count tracks the
    // execution universe instead — dispersion then measures wrapper-state
    // growth, the quantity the open-universe design exists to bound.
    out.distinct_states = sys_.universe_live();
  }

 protected:
  void wire_metrics(obs::MetricRegistry& reg) override {
    sys_.set_metrics(&reg);
  }

 private:
  SimBatchSystem sys_;
};

// engine=auto: one rule source, two execution strategies — the count-space
// SimBatchSystem and the direct per-agent AgentSpaceSim driver — with a
// RegimeMonitor (engine/batch/regime.hpp) choosing between them. The run
// starts on whichever representation the initial dispersion favors and may
// switch at internal slice boundaries; the representation bridge moves the
// wrapper-state MULTISET (counts -> records in sorted-id order, records ->
// counts by re-interning), which consumes zero Rng draws and is
// distribution-exact because wrapper states are exchangeable under the
// uniform scheduler. Stats from both strategies fold into one master
// RunStats at the simulated-projection level.
//
// An omission adversary is ONE OmissionProcess owned here and lent to
// whichever face runs: the agent driver gets it per advance() together
// with the global step index, the count face through
// SimBatchSystem::lend_omission_process, with a bridged SimBatchSystem
// starting at the global step. Burst, budget and the NO horizon therefore
// carry across every switch, and auto arbitrates under adversaries exactly
// as without one.
class AutoSimEngine final : public Engine {
 public:
  AutoSimEngine(std::shared_ptr<DynamicRuleSource> rules,
                const std::vector<State>& sim_initial,
                const std::optional<AdversaryParams>& adversary,
                std::optional<std::size_t> outcome_cache_capacity,
                std::optional<std::size_t> force_switch_at)
      : rules_(std::move(rules)),
        stats_(rules_->protocol().num_states()),
        cache_cap_(outcome_cache_capacity),
        force_switch_at_(force_switch_at) {
    driver_ = make_agent_space_sim(*rules_);
    sys_ = std::make_unique<SimBatchSystem>(rules_, sim_initial, cache_cap_);
    if (adversary) sys_->lend_omission_process(omit_.emplace(*adversary));
    n_ = sys_->size();
    slice_ = std::clamp<std::size_t>(16 * n_, kMinSlice, kMaxSlice);
    const double d0 = static_cast<double>(sys_->universe_live()) /
                      static_cast<double>(n_);
    RegimeMonitor::Thresholds thr;
    thr.fire_cost_ratio = rules_->fire_cost_ratio();
    monitor_.emplace(driver_ ? RegimeMonitor::favored(d0, thr)
                             : RegimeMonitor::Space::Count,
                     thr);
    if (driver_ && monitor_->current() == RegimeMonitor::Space::Agent)
      to_agent_space();
    last_fresh_ = rules_->fresh_interned();  // initial interning is not a fire
    // The auto.* gauges are how the engine reports its arbitration, so it
    // carries a registry from construction; everything the monitor reads
    // is engine state, never the registry.
    enable_metrics();
  }

  [[nodiscard]] std::string kind() const override { return "auto"; }
  [[nodiscard]] std::string active_kind() const override {
    return in_agent_ ? "agent" : "count";
  }
  [[nodiscard]] const Protocol& protocol() const override {
    return rules_->protocol();
  }
  [[nodiscard]] Model model() const override { return rules_->model(); }
  [[nodiscard]] std::size_t size() const override { return n_; }
  [[nodiscard]] std::size_t interactions() const override { return steps_; }
  [[nodiscard]] std::size_t omissions() const override {
    return omit_ ? omit_->emitted() : 0;
  }

  void counts_into(std::vector<std::size_t>& out) const override {
    if (in_agent_) driver_->projected_counts(out);
    else out = sys_->projected_counts();
  }

  std::size_t advance(std::size_t budget, Scheduler& sched, Rng& rng) override {
    const auto* uniform = dynamic_cast<const UniformScheduler*>(&sched);
    if (uniform == nullptr || uniform->size() != n_)
      throw std::invalid_argument(
          "auto engine: scheduler is not the uniform distribution over this "
          "population (scripted/hand-built adversarial runs need the native "
          "engine; omission adversaries attach via make_sim_engine)");
    std::size_t covered = 0;
    while (covered < budget) {
      const std::size_t slice = std::min(slice_, budget - covered);
      if (in_agent_) {
        driver_->advance(slice, rng, stats_, omit_ ? &*omit_ : nullptr,
                         steps_);
        steps_ += slice;
        covered += slice;
      } else {
        std::size_t c = 0;
        while (c < slice) c += sys_->advance(slice - c, rng).interactions;
        fold_count_stats();
        steps_ += c;
        covered += c;
        PPFS_AUDIT_INVOKE(sys_->audit_invariants());
      }
      // Arbitration AND the representation bridges it may trigger are
      // draw-free by design (the bridge moves the wrapper multiset, which
      // is exchangeable — see the class comment); the draw ledger turns
      // that design claim into a checked contract.
      {
        PPFS_DRAW_FREE(rng, "AutoSimEngine regime arbitration/bridge");
        maybe_switch();
      }
    }
    return covered;
  }

  [[nodiscard]] RunStats& stats() noexcept override { return stats_; }

  // Exact, with or without an adversary: arbitration reads only state that
  // round-trips — the master stats, the live universe and the fresh-id
  // window, whose in-window partial is saved below.
  [[nodiscard]] bool checkpointable() const override {
    return rules_->checkpointable();
  }

  void save_state(bin::Writer& w) const override {
    w.u8(in_agent_ ? 1 : 0);
    if (in_agent_) {
      // Agent face: the interner plus the per-agent records ARE the
      // population.
      rules_->save_checkpoint(w);
      driver_->save_records(w);
      if (omit_) omit_->save_state(w);
    } else {
      // Count face: the SimBatchSystem payload embeds the rule-source
      // checkpoint and the state of the process it runs under.
      sys_->save_state(w);
    }
    stats_.save_state(w);
    monitor_->save_state(w);
    w.u8(forced_done_ ? 1 : 0);
    w.var(steps_);
    w.var(next_obs_);
    w.var(last_distinct_);
    w.var(last_fires_);
    w.var(last_fire_steps_);
    w.var(rules_->fresh_interned() - last_fresh_);
  }

  void restore_state(bin::Reader& r) override {
    const bool agent = r.u8() != 0;
    if (agent && driver_ == nullptr)
      throw std::runtime_error(
          "auto engine restore: checkpoint is in agent space but this rule "
          "source has no agent-space driver (mismatched construction)");
    // Align the live representation with the checkpoint's BEFORE reading
    // its payload; the bridge's placeholder contents are overwritten
    // wholesale below (rules_->restore_checkpoint resets the interner,
    // restore_records / sys_->restore_state reset the population).
    if (agent && !in_agent_) to_agent_space();
    else if (!agent && in_agent_) to_count_space();
    if (agent) {
      rules_->restore_checkpoint(r);
      driver_->restore_records(r);
      if (omit_) omit_->restore_state(r);
    } else {
      sys_->restore_state(r);
    }
    stats_.restore_state(r);
    monitor_->restore_state(r);
    forced_done_ = r.u8() != 0;
    steps_ = r.var();
    next_obs_ = r.var();
    last_distinct_ = r.var();
    last_fires_ = r.var();
    last_fire_steps_ = r.var();
    // The fresh-id counter is process-local: rebase the window on it.
    last_fresh_ = rules_->fresh_interned() - r.var();
  }

  [[nodiscard]] std::size_t universe_live() const override {
    return in_agent_ ? last_distinct_ : sys_->universe_live();
  }

  void sync_metrics() override {
    Engine::sync_metrics();
    if (metrics() == nullptr) return;
    obs::MetricRegistry& reg = *metrics();
    rules_->export_metrics(reg);
    reg.gauge("universe.live").set(static_cast<double>(universe_live()));
    reg.gauge("universe.size")
        .set(static_cast<double>(rules_->universe_size()));
    reg.gauge("auto.agent_space").set(in_agent_ ? 1.0 : 0.0);
    reg.gauge("auto.switches")
        .set(static_cast<double>(monitor_->switches()));
    if (omit_) sync_adversary_metrics(reg, *omit_);
  }

  void fill_summary(obs::ConfigSummary& out, std::size_t top_k) const override {
    Engine::fill_summary(out, top_k);
    out.distinct_states = universe_live();
  }

 protected:
  void wire_metrics(obs::MetricRegistry& reg) override {
    rules_->set_metrics(&reg);
    if (sys_) sys_->set_metrics(&reg);
    if (omit_) omit_->set_metrics(&reg);
  }

 private:
  using Space = RegimeMonitor::Space;

  // Internal slice between regime checks — independent of the caller's
  // advance() granularity, so run_engine_steps(2M) still re-evaluates the
  // regime along the way. Count space observes once per slice of
  // clamp(16 n, 2^12, 2^16) interactions: a switch takes `hysteresis`
  // observations, and at small n a fixed 2^16 slice held the run in the
  // wrong face for a large share of short windows.
  static constexpr std::size_t kMinSlice = 1u << 12;
  static constexpr std::size_t kMaxSlice = 1u << 16;

  void fold_count_stats() {
    stats_.merge(sys_->stats());
    sys_->stats().reset(stats_.num_states());
  }

  // Count space observes every slice (dispersion is an O(1) gauge); agent
  // space amortizes its O(n) distinct-hash estimate over >= n covered
  // interactions.
  void maybe_switch() {
    if (driver_ == nullptr) return;
    if (force_switch_at_ && !forced_done_ && steps_ >= *force_switch_at_) {
      forced_done_ = true;
      if (in_agent_) to_count_space();
      else to_agent_space();
      monitor_->note_forced(in_agent_ ? Space::Agent : Space::Count);
      return;
    }
    if (in_agent_ && steps_ < next_obs_) return;
    next_obs_ = steps_ + std::max(slice_, n_);
    double live;
    if (in_agent_) {
      last_distinct_ = driver_->distinct_wrapper_estimate();
      live = static_cast<double>(last_distinct_);
    } else {
      live = static_cast<double>(sys_->universe_live());
    }
    const Space want =
        monitor_->observe(window_signals(live / static_cast<double>(n_)));
    if (want == Space::Agent && !in_agent_) to_agent_space();
    else if (want == Space::Count && in_agent_) to_count_space();
  }

  // The windowed signals since the last observation: fires (real +
  // omissive) per interaction covered, and fresh wrapper ids interned per
  // fire. Both come from the master RunStats and the source's fresh-id
  // counter — count-space slices fold in before maybe_switch() and the
  // agent driver records directly, so the deltas are
  // representation-independent, and they are functions of the trajectory
  // alone (deterministic per seed, unlike wall-clock probing, and blind to
  // cache contents).
  [[nodiscard]] RegimeMonitor::Signals window_signals(double dispersion) {
    const std::uint64_t fires = stats_.total_fires() + stats_.omissive_fires();
    const std::uint64_t fresh = rules_->fresh_interned();
    const std::uint64_t df = fires - last_fires_;
    const std::uint64_t dsteps = steps_ - last_fire_steps_;
    const std::uint64_t dfresh = fresh - last_fresh_;
    last_fires_ = fires;
    last_fire_steps_ = steps_;
    last_fresh_ = fresh;
    RegimeMonitor::Signals s;
    s.dispersion = dispersion;
    if (df != 0)
      s.fresh_per_fire = static_cast<double>(dfresh) / static_cast<double>(df);
    if (dsteps != 0)
      s.fire_fraction = static_cast<double>(df) / static_cast<double>(dsteps);
    return s;
  }

  void to_agent_space() {
    fold_count_stats();
    const SparseConfiguration& conf = sys_->configuration();
    std::vector<std::pair<State, std::uint32_t>> pairs;
    pairs.reserve(conf.occupied().size());
    for (const State s : conf.occupied())
      pairs.emplace_back(s, static_cast<std::uint32_t>(conf.count(s)));
    std::sort(pairs.begin(), pairs.end());  // deterministic record layout
    driver_->load(pairs);
    last_distinct_ = pairs.size();
    sys_.reset();
    // Open universes: the records now live in the driver, so release the
    // ids — the interner's footprint keeps tracking the live set, and the
    // generation bumps guard the outcome caches for when ids recycle.
    if (rules_->open_universe())
      for (const auto& [s, k] : pairs) rules_->release_state(s);
    in_agent_ = true;
    next_obs_ = steps_ + std::max(slice_, n_);
  }

  void to_count_space() {
    std::vector<State> ids;
    driver_->store(ids);
    std::sort(ids.begin(), ids.end());
    std::vector<std::pair<State, std::size_t>> pairs;
    for (std::size_t i = 0; i < ids.size();) {
      std::size_t j = i;
      while (j < ids.size() && ids[j] == ids[i]) ++j;
      pairs.emplace_back(ids[i], j - i);
      i = j;
    }
    sys_ = std::make_unique<SimBatchSystem>(
        rules_, SimBatchSystem::AdoptWrappers{}, pairs, cache_cap_, steps_);
    if (metrics() != nullptr) sys_->set_metrics(metrics());
    if (omit_) sys_->lend_omission_process(*omit_);
    in_agent_ = false;
    // The bridge's own re-interning is not a fire: restart the window.
    last_fresh_ = rules_->fresh_interned();
  }

  std::shared_ptr<DynamicRuleSource> rules_;
  std::unique_ptr<SimBatchSystem> sys_;    // live in count space only
  std::unique_ptr<AgentSpaceSim> driver_;  // null: count-only source
  std::optional<RegimeMonitor> monitor_;
  RunStats stats_;  // master record; per-strategy slices fold in
  std::optional<std::size_t> cache_cap_;
  std::optional<std::size_t> force_switch_at_;
  bool forced_done_ = false;
  std::optional<OmissionProcess> omit_;  // the one process, lent to the face
  bool in_agent_ = false;
  std::size_t n_ = 0;
  std::size_t slice_ = kMaxSlice;
  std::size_t steps_ = 0;
  std::size_t next_obs_ = 0;
  std::size_t last_distinct_ = 0;
  std::uint64_t last_fires_ = 0;
  std::uint64_t last_fire_steps_ = 0;
  std::uint64_t last_fresh_ = 0;
};

// Count-vector construction point, shared by build() below and the
// make_engine_from_counts overloads (populations too large to enumerate
// per agent). "native" has no counts path by design.
std::unique_ptr<Engine> build_from_counts(
    const std::string& kind, RuleMatrix rules, std::vector<std::size_t> counts,
    const std::optional<AdversaryParams>& adversary) {
  if (counts.size() > rules.num_states())
    throw std::invalid_argument(
        "make_engine: counts vector longer than the protocol's state space");
  counts.resize(rules.num_states(), 0);
  if (kind == "batch")
    return std::make_unique<BatchEngine>(std::move(rules), std::move(counts),
                                         adversary);
  // Closed universes still have a regime — not dispersion (the state
  // space is fixed) but fire DENSITY: sparse runs want the leap face,
  // dense runs the round face. "auto" arbitrates between them.
  if (kind == "auto")
    return std::make_unique<AdaptiveBatchEngine>(std::move(rules),
                                                 std::move(counts), adversary);
  if (kind == "native")
    throw std::invalid_argument(
        "make_engine_from_counts: the native engine is per-agent; populations "
        "built from counts exist to avoid materializing agents — use "
        "make_engine, or kind \"batch\"/\"auto\"");
  throw std::invalid_argument("make_engine: unknown engine kind '" + kind + "'");
}

// Histogram of a per-agent initial vector over q states: the one read the
// count-space kinds make of it.
std::vector<std::size_t> count_initial(const std::vector<State>& initial,
                                       std::size_t q) {
  std::vector<std::size_t> counts(q, 0);
  for (const State s : initial) {
    if (s >= q)
      throw std::invalid_argument("make_engine: initial state out of range");
    ++counts[s];
  }
  return counts;
}

// Deduped occupied states of a counts vector — the Q'_P seed a one-way
// compile needs (it seeds reachable states, multiplicity is irrelevant).
std::vector<State> occupied_states(const std::vector<std::size_t>& counts) {
  std::vector<State> seed;
  for (std::size_t q = 0; q < counts.size(); ++q)
    if (counts[q] != 0) seed.push_back(static_cast<State>(q));
  return seed;
}

}  // namespace

bool Engine::record_trace(Trace* /*sink*/) { return false; }

void Engine::save_state(bin::Writer& /*w*/) const {
  throw std::logic_error("engine '" + kind() + "' is not checkpointable");
}

void Engine::restore_state(bin::Reader& /*r*/) {
  throw std::logic_error("engine '" + kind() + "' is not checkpointable");
}

obs::MetricRegistry& Engine::enable_metrics() {
  if (!metrics_) {
    metrics_ = std::make_unique<obs::MetricRegistry>();
    wire_metrics(*metrics_);
  }
  return *metrics_;
}

void Engine::sync_metrics() {
  if (!metrics_) return;
  metrics_->counter("run.interactions").set(interactions());
  metrics_->counter("run.omissions").set(omissions());
  const RunStats& st = stats();
  metrics_->counter("run.fires").set(st.total_fires());
  metrics_->counter("run.noops").set(st.noops());
}

void Engine::fill_summary(obs::ConfigSummary& out, std::size_t top_k) const {
  out.interactions = interactions();
  std::vector<std::size_t> c;
  counts_into(c);
  std::vector<std::pair<std::size_t, std::size_t>> occupied;  // (count, state)
  for (std::size_t q = 0; q < c.size(); ++q)
    if (c[q] != 0) occupied.emplace_back(c[q], q);
  out.distinct_states = occupied.size();
  std::sort(occupied.begin(), occupied.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  if (occupied.size() > top_k) occupied.resize(top_k);
  out.top_counts.clear();
  const Protocol& p = protocol();
  for (const auto& [cnt, q] : occupied)
    out.top_counts.push_back({p.state_name(static_cast<State>(q)), cnt});
}

namespace {

// Snapshot the engine into the recorder if a slice boundary crossed its
// cadence. Metrics need not be enabled: the timeline then carries only the
// configuration summary (an empty shared registry keeps record()'s delta
// encoding trivial).
void maybe_snapshot(Engine& engine, obs::FlightRecorder* recorder) {
  if (recorder == nullptr || !recorder->due(engine.interactions())) return;
  engine.sync_metrics();
  obs::ConfigSummary summary;
  engine.fill_summary(summary, recorder->options().top_k);
  if (engine.metrics() != nullptr) {
    recorder->record(*engine.metrics(), summary);
  } else {
    static const obs::MetricRegistry kEmpty;
    recorder->record(kEmpty, summary);
  }
}

}  // namespace

std::vector<std::size_t> Engine::counts() const {
  std::vector<std::size_t> out;
  counts_into(out);
  return out;
}

int Engine::consensus_output() const {
  std::vector<std::size_t> c;
  counts_into(c);
  return counts_consensus_output(c, protocol());
}

std::unique_ptr<Engine> make_engine(const std::string& kind,
                                    std::shared_ptr<const Protocol> protocol,
                                    const std::vector<State>& initial) {
  return make_engine(kind, std::move(protocol), initial, EngineConfig{});
}

std::unique_ptr<Engine> make_engine(const std::string& kind,
                                    std::shared_ptr<const Protocol> protocol,
                                    const std::vector<State>& initial,
                                    const EngineConfig& config) {
  const ResolvedConfig r = resolve(config);
  RuleMatrix rules =
      RuleMatrix::compile(std::move(protocol), r.model, config.fns);
  if (kind == "native")
    return std::make_unique<NativeEngine>(std::move(rules), initial,
                                          r.adversary);
  std::vector<std::size_t> counts = count_initial(initial, rules.num_states());
  return build_from_counts(kind, std::move(rules), std::move(counts),
                           r.adversary);
}

std::unique_ptr<Engine> make_engine(
    const std::string& kind, std::shared_ptr<const OneWayProtocol> protocol,
    const std::vector<State>& initial, const EngineConfig& config) {
  if (kind != "native") {
    if (!protocol) throw std::invalid_argument("RuleMatrix: null protocol");
    return make_engine_from_counts(
        kind, protocol, count_initial(initial, protocol->num_states()), config);
  }
  const ResolvedConfig r = resolve(config);
  RuleMatrix rules =
      RuleMatrix::compile(std::move(protocol), r.model, initial, config.fns);
  return std::make_unique<NativeEngine>(std::move(rules), initial,
                                        r.adversary);
}

std::unique_ptr<Engine> make_engine_from_counts(
    const std::string& kind, std::shared_ptr<const Protocol> protocol,
    std::vector<std::size_t> counts) {
  return make_engine_from_counts(kind, std::move(protocol), std::move(counts),
                                 EngineConfig{});
}

std::unique_ptr<Engine> make_engine_from_counts(
    const std::string& kind, std::shared_ptr<const Protocol> protocol,
    std::vector<std::size_t> counts, const EngineConfig& config) {
  const ResolvedConfig r = resolve(config);
  return build_from_counts(
      kind, RuleMatrix::compile(std::move(protocol), r.model, config.fns),
      std::move(counts), r.adversary);
}

std::unique_ptr<Engine> make_engine_from_counts(
    const std::string& kind, std::shared_ptr<const OneWayProtocol> protocol,
    std::vector<std::size_t> counts, const EngineConfig& config) {
  const ResolvedConfig r = resolve(config);
  RuleMatrix rules = RuleMatrix::compile(std::move(protocol), r.model,
                                         occupied_states(counts), config.fns);
  return build_from_counts(kind, std::move(rules), std::move(counts),
                           r.adversary);
}

std::unique_ptr<Engine> make_sim_engine(const std::string& kind,
                                        std::shared_ptr<const Protocol> protocol,
                                        const std::vector<State>& initial,
                                        const SimEngineConfig& config) {
  Model model = config.model.value_or(default_sim_model(config.spec));
  std::optional<AdversaryParams> adversary = config.adversary;
  if (adversary && adversary->rate <= 0.0) adversary.reset();
  // Same lifting as make_engine: both engine kinds realize one omission
  // process (max_burst included — the batch path samples the within-burst
  // chain exactly).
  if (adversary && !is_omissive(model)) model = omissive_closure(model);
  if (kind == "native") {
    return std::make_unique<SimNativeEngine>(
        make_spec_simulator(config.spec, model, std::move(protocol), initial),
        adversary);
  }
  return make_sim_engine(kind,
                         make_sim_rule_source(config.spec, model,
                                              std::move(protocol),
                                              initial.size()),
                         initial, config);
}

std::unique_ptr<Engine> make_sim_engine(const std::string& kind,
                                        std::shared_ptr<DynamicRuleSource> rules,
                                        const std::vector<State>& initial,
                                        const SimEngineConfig& config) {
  std::optional<AdversaryParams> adversary = config.adversary;
  if (adversary && adversary->rate <= 0.0) adversary.reset();
  if (kind == "batch")
    return std::make_unique<SimBatchEngine>(std::move(rules), initial,
                                            adversary,
                                            config.outcome_cache_capacity);
  if (kind == "auto")
    return std::make_unique<AutoSimEngine>(std::move(rules), initial,
                                           adversary,
                                           config.outcome_cache_capacity,
                                           config.auto_force_switch_at);
  throw std::invalid_argument("make_sim_engine: unknown engine kind '" + kind +
                              "'");
}

const std::vector<std::string>& engine_kinds() {
  static const std::vector<std::string> kinds = {"native", "batch", "auto"};
  return kinds;
}

RunResult run_engine_until(Engine& engine, Scheduler& sched, Rng& rng,
                           const CountsProbe& probe, const RunOptions& opt,
                           obs::FlightRecorder* recorder) {
  RunProgress progress;
  return run_engine_until(engine, sched, rng, probe, opt, progress, nullptr,
                          recorder);
}

RunResult run_engine_until(Engine& engine, Scheduler& sched, Rng& rng,
                           const CountsProbe& probe, const RunOptions& opt,
                           RunProgress& progress, const SliceHook& on_slice,
                           obs::FlightRecorder* recorder) {
  RunResult res;
  res.steps = progress.steps;
  std::vector<std::size_t> counts;
  std::size_t consecutive = progress.consecutive;
  while (res.steps < opt.max_steps) {
    const std::size_t slice =
        std::min(opt.check_every, opt.max_steps - res.steps);
    res.steps += engine.advance(slice, sched, rng);
    {
      // Observability must never perturb the trajectory: snapshotting
      // (metrics sync + summary) draws nothing from the run's stream.
      PPFS_DRAW_FREE(rng, "flight-recorder snapshot");
      maybe_snapshot(engine, recorder);
    }
    engine.counts_into(counts);
    const bool holds = probe(counts, engine.protocol());
    engine.stats().record_probe(engine.interactions(), holds);
    if (holds) {
      if (++consecutive >= opt.stable_checks) {
        res.converged = true;
        res.omissions = engine.omissions();
        progress.steps = res.steps;
        progress.consecutive = consecutive;
        return res;
      }
    } else {
      consecutive = 0;
    }
    // The slice hook fires with the probe already recorded: engine state
    // saved here plus this progress restores to a byte-identical run.
    progress.steps = res.steps;
    progress.consecutive = consecutive;
    if (on_slice) on_slice(engine, progress);
  }
  engine.counts_into(counts);
  res.converged = probe(counts, engine.protocol());
  res.omissions = engine.omissions();
  progress.steps = res.steps;
  progress.consecutive = consecutive;
  return res;
}

RunResult run_engine_steps(Engine& engine, Scheduler& sched, Rng& rng,
                           std::size_t steps, obs::FlightRecorder* recorder) {
  RunResult res;
  while (res.steps < steps) {
    res.steps += engine.advance(steps - res.steps, sched, rng);
    {
      PPFS_DRAW_FREE(rng, "flight-recorder snapshot");
      maybe_snapshot(engine, recorder);
    }
  }
  res.omissions = engine.omissions();
  return res;
}

}  // namespace ppfs
