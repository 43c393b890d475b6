#include "traced_replica.hpp"

#include <algorithm>
#include <stdexcept>

#include "engine/runner.hpp"
#include "engine/workload_runner.hpp"
#include "sched/adversary.hpp"
#include "sim/naming.hpp"
#include "sim/sid.hpp"
#include "sim/sim_rules.hpp"
#include "sim/skno.hpp"
#include "verify/matching.hpp"

namespace perfbench {

using namespace ppfs;
using exp::ReplicaResult;
using exp::ScenarioSpec;

namespace {

// Scheduler decorator for the step-wise path: times one next() call in 8
// (counter-based, like obs::SampledTimer) and scales the sample up, so the
// clock costs stay off most draws. The time is an estimate.
class TimingScheduler final : public Scheduler {
 public:
  explicit TimingScheduler(Scheduler& base) : base_(base) {}

  [[nodiscard]] Interaction next(Rng& rng, std::size_t step) override {
    if ((calls_++ & kMask) != 0) return base_.next(rng, step);
    const std::int64_t t0 = now_ns();
    const Interaction ia = base_.next(rng, step);
    sampled_ns_ += now_ns() - t0;
    ++sampled_;
    return ia;
  }

  [[nodiscard]] std::uint64_t calls() const noexcept { return calls_; }
  [[nodiscard]] std::int64_t estimated_ns() const noexcept {
    if (sampled_ == 0) return 0;
    return static_cast<std::int64_t>(static_cast<double>(sampled_ns_) *
                                     static_cast<double>(calls_) /
                                     static_cast<double>(sampled_));
  }

 private:
  static constexpr std::uint64_t kMask = 8 - 1;
  Scheduler& base_;
  std::uint64_t calls_ = 0;
  std::uint64_t sampled_ = 0;
  std::int64_t sampled_ns_ = 0;
};

void harvest_registry(const obs::MetricRegistry& reg, CounterSums& sums) {
  for (const auto& [name, c] : reg.counters())
    sums[name] += static_cast<double>(c.value());
  for (const auto& [name, g] : reg.gauges()) {
    sums[name] += g.value();
    sums[name + ".n"] += 1.0;
  }
  for (const auto& [name, h] : reg.histograms()) {
    sums[name + ".count"] += static_cast<double>(h.count());
    sums[name + ".sum"] += h.sum();
  }
  for (const auto& [name, t] : reg.timers())
    sums[name + ".est_s"] += t.estimated_seconds();
}

// As scenario.cpp's fill_from_stats.
void fill_from_stats(ReplicaResult& out, const RunStats& stats) {
  out.convergence_step = stats.convergence_step();
  out.fires = stats.total_fires();
  out.noops = stats.noops();
  out.omissive_fires = stats.omissive_fires();
}

// As scenario.cpp's harvest_sim_extras.
void harvest_sim_extras(const Simulator& sim, ReplicaResult& out) {
  out.extras["sim_updates"] = static_cast<double>(sim.simulated_updates());
  if (const auto* skno = dynamic_cast<const SknoSimulator*>(&sim)) {
    std::size_t max_bits = 0;
    for (AgentId a = 0; a < skno->num_agents(); ++a)
      max_bits = std::max(max_bits, skno->memory_bits(a));
    out.extras["max_bits"] = static_cast<double>(max_bits);
    out.extras["max_queue"] = static_cast<double>(skno->stats().max_queue);
  } else if (const auto* naming = dynamic_cast<const NamingSimulator*>(&sim)) {
    out.extras["id_increments"] =
        static_cast<double>(naming->naming_stats().id_increments);
    out.extras["rollbacks"] =
        static_cast<double>(naming->sid_stats().rollbacks);
  } else if (const auto* sid = dynamic_cast<const SidSimulator*>(&sim)) {
    out.extras["rollbacks"] = static_cast<double>(sid->stats().rollbacks);
  }
}

// Step-wise simulator run (scenario.cpp run_native_sim_replica).
ReplicaResult run_step_wise(const ScenarioSpec& spec, ReplicaSetup& setup,
                            Rng rng, Tracer& tr, int replica,
                            CounterSums& sums) {
  Simulator& sim = *setup.sim;
  TimingScheduler timed_sched(*setup.sched);
  ReplicaResult out;
  {
    Scope run(&tr, "sim.run", replica);
    if (spec.fixed_steps > 0) {
      const int next_agg = tr.aggregate("sched.next", replica);
      out.run = run_steps(sim, timed_sched, rng, spec.fixed_steps);
      tr.set_estimate(next_agg, timed_sched.calls(),
                      timed_sched.estimated_ns());
    } else {
      const int step_agg = tr.aggregate("sim.step", replica);
      const int next_agg = tr.aggregate("sched.next", replica, step_agg);
      const int probe_agg = tr.aggregate("obs.probe", replica);
      const Protocol& protocol = *setup.workload->protocol;
      std::int64_t mark = now_ns();
      out.run = run_until(
          sim, timed_sched, rng,
          [&](const Simulator& s) {
            const std::int64_t t0 = now_ns();
            tr.add(step_agg, mark, t0);
            const bool holds = setup.probe(s.projected_counts(), protocol);
            mark = now_ns();
            tr.add(probe_agg, t0, mark);
            return holds;
          },
          resolve_run_options(spec));
      tr.set_estimate(next_agg, timed_sched.calls(),
                      timed_sched.estimated_ns());
    }
  }
  sums["sched.next_calls"] += static_cast<double>(timed_sched.calls());
  sums["sim.updates"] += static_cast<double>(sim.simulated_updates());

  harvest_sim_extras(sim, out);
  if (spec.verify_matching) {
    Scope s(&tr, "verify.matching", replica);
    const MatchingReport rep =
        verify_simulation(sim, spec.max_unmatched_per_n * spec.n);
    out.extras["sim_pairs"] = static_cast<double>(rep.pairs);
    out.extras["unmatched"] = static_cast<double>(rep.unmatched);
    out.extras["matching_ok"] = rep.ok ? 1.0 : 0.0;
    out.extras["overhead"] =
        rep.pairs > 0
            ? static_cast<double>(out.run.steps) / static_cast<double>(rep.pairs)
            : 0.0;
  }
  Scope s(&tr, "sim.teardown", replica);
  setup.sim.reset();
  setup.sched.reset();
  return out;
}

// Engine run (scenario.cpp run_engine_replica, without the checkpoint,
// flight-recorder and trajectory hooks the benchmark's grids never enable).
ReplicaResult run_engine(const ScenarioSpec& spec, ReplicaSetup& setup,
                         Rng rng, Tracer& tr, int replica, CounterSums& sums) {
  Engine& engine = *setup.engine;
  engine.enable_metrics();
  UniformScheduler sched(spec.n);
  ReplicaResult out;
  {
    Scope run(&tr, "engine.run", replica);
    if (spec.fixed_steps > 0) {
      out.run = run_engine_steps(engine, sched, rng, spec.fixed_steps);
    } else {
      const int slice_agg = tr.aggregate("engine.slice", replica);
      const int probe_agg = tr.aggregate("obs.probe", replica);
      std::int64_t mark = now_ns();
      const CountsProbe timed_probe =
          [&](const std::vector<std::size_t>& counts, const Protocol& p) {
            const std::int64_t t0 = now_ns();
            tr.add(slice_agg, mark, t0);
            const bool holds = setup.probe(counts, p);
            tr.add(probe_agg, t0, now_ns());
            return holds;
          };
      // The hook fires after the probe's RunStats bookkeeping: the next
      // slice starts here.
      const SliceHook hook = [&](Engine&, const RunProgress&) {
        mark = now_ns();
      };
      RunProgress progress;
      out.run = run_engine_until(engine, sched, rng, timed_probe,
                                 resolve_run_options(spec), progress, hook);
    }
  }
  fill_from_stats(out, engine.stats());
  if (!spec.sim.empty())
    out.extras["live_states"] = static_cast<double>(engine.universe_live());
  engine.sync_metrics();
  harvest_registry(*engine.metrics(), sums);
  Scope s(&tr, "engine.teardown", replica);
  setup.engine.reset();
  return out;
}

}  // namespace

ReplicaSetup set_up_replica(const ScenarioSpec& spec, Tracer* tr,
                            int replica) {
  ReplicaSetup out;
  const Model model = resolve_model(spec);
  const AdversaryParams adv = parse_adversary_spec(spec.adversary);
  const std::optional<AdversaryParams> adversary =
      adv.rate > 0.0 ? std::optional<AdversaryParams>(adv) : std::nullopt;
  if (spec.sim.empty() && is_one_way(model)) {
    // One-way direct run: the one-way registry's workload lives only
    // until the engine is built, as in run_engine_replica.
    std::optional<OneWayWorkload> w;
    {
      Scope s(tr, "protocols.workload", replica);
      w = find_one_way_workload(spec.workload, spec.n, model);
    }
    {
      Scope s(tr, "exp.construct", replica);
      out.engine = make_engine(spec.engine, w->protocol, w->initial,
                               EngineConfig{model, {}, adversary});
    }
    auto conv = w->converged;
    const int expect = w->expected_output;
    out.probe = [conv, expect](const std::vector<std::size_t>& counts,
                               const Protocol& p) {
      if (conv) return conv(counts);
      return counts_consensus_output(counts, p) == expect;
    };
    Scope s(tr, "protocols.teardown", replica);
    w.reset();
    return out;
  }
  {
    Scope s(tr, "protocols.workload", replica);
    out.workload = find_workload(spec.workload, spec.n);
  }
  const Workload& w = *out.workload;
  out.probe = workload_counts_probe(w);
  Scope s(tr, "exp.construct", replica);
  if (spec.sim.empty()) {
    out.engine = make_engine(spec.engine, w.protocol, w.initial,
                             EngineConfig{model, {}, adversary});
  } else if (spec.engine == "native") {
    out.sim = make_spec_simulator(parse_sim_spec(spec.sim), model, w.protocol,
                                  w.initial);
    out.sim->record_events(spec.verify_matching);
    if (adversary) {
      out.sched = std::make_unique<OmissionAdversary>(
          std::make_unique<UniformScheduler>(spec.n), spec.n, adv);
    } else {
      out.sched = std::make_unique<UniformScheduler>(spec.n);
    }
  } else {
    SimEngineConfig config;
    config.spec = parse_sim_spec(spec.sim);
    config.model = spec.model;
    config.adversary = adversary;
    out.engine =
        make_sim_engine(spec.engine, w.protocol, w.initial, config);
  }
  return out;
}

ReplicaResult traced_replica(const ScenarioSpec& spec, std::size_t trial,
                             Tracer& tr, int replica, CounterSums& sums) {
  if (spec.custom || spec.metrics_every > 0 || spec.traj_every > 0 ||
      spec.probe != "workload")
    throw std::invalid_argument(
        "perfbench: custom workloads, telemetry cadences and probe=" +
        spec.probe + " are not traced");
  if (spec.n < 4)
    throw std::invalid_argument("scenario needs n >= 4 (got " +
                                std::to_string(spec.n) + ")");
  const Rng rng = Rng(spec.point_seed()).split(trial);
  ReplicaSetup setup = set_up_replica(spec, &tr, replica);
  ReplicaResult out = setup.sim
                          ? run_step_wise(spec, setup, rng, tr, replica, sums)
                          : run_engine(spec, setup, rng, tr, replica, sums);
  Scope s(&tr, "protocols.teardown", replica);
  setup.workload.reset();
  return out;
}

}  // namespace perfbench
