#include "exp/scenario.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "engine/batch/dispatch.hpp"
#include "engine/workload_runner.hpp"
#include "sched/adversary.hpp"
#include "util/trajectory.hpp"
#include "sim/naming.hpp"
#include "sim/sid.hpp"
#include "sim/sim_rules.hpp"
#include "sim/skno.hpp"
#include "verify/matching.hpp"

namespace ppfs::exp {

namespace {

[[nodiscard]] std::uint64_t fnv1a64(std::string_view s) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

[[nodiscard]] std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    out.push_back(s.substr(start, pos - start));
    if (pos == std::string::npos) break;
    start = pos + 1;
  }
  return out;
}

[[nodiscard]] Model parse_model_name(const std::string& s) {
  for (const Model m : kAllModels)
    if (model_name(m) == s) return m;
  throw std::invalid_argument("unknown model '" + s + "'");
}

// Sizes accept scientific notation ("1e6") as well as plain integers.
[[nodiscard]] std::size_t parse_size(const std::string& s) {
  try {
    std::size_t end = 0;
    const double v = std::stod(s, &end);
    if (end != s.size() || v < 0 || v != std::floor(v) || v > 1e18)
      throw std::invalid_argument(s);
    return static_cast<std::size_t>(v);
  } catch (const std::exception&) {
    throw std::invalid_argument("bad size '" + s + "' (want 1000 or 1e3)");
  }
}

[[nodiscard]] std::uint64_t parse_u64(const std::string& key,
                                      const std::string& s) {
  // Digits only up front: stoull would silently wrap "-1" to 2^64 - 1
  // (same pitfall omission_process.cpp guards in its burst parsing).
  if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0])))
    throw std::invalid_argument("bad value '" + s + "' for " + key);
  try {
    std::size_t end = 0;
    const unsigned long long v = std::stoull(s, &end);
    if (end != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("bad value '" + s + "' for " + key);
  }
}

[[nodiscard]] bool known_key(const std::string& key) {
  static const char* const kKeys[] = {"n",     "model",     "engine",
                                      "adv",   "sim",       "trials",
                                      "seed",  "steps",     "maxsteps",
                                      "checkevery", "stable", "probe",
                                      "verify"};
  return std::find_if(std::begin(kKeys), std::end(kKeys), [&](const char* k) {
           return key == k;
         }) != std::end(kKeys);
}

void fill_from_stats(ReplicaResult& out, const RunStats& stats) {
  out.convergence_step = stats.convergence_step();
  out.fires = stats.total_fires();
  out.noops = stats.noops();
  out.omissive_fires = stats.omissive_fires();
}

// Simulator-kind-specific metrics harvested after a native (step-wise
// facade) simulator run: the columns the paper-table benches report.
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

// Native step-wise simulator replica: the facade path that carries
// SimEvents, so it is the only place matching verification can run.
[[nodiscard]] ReplicaResult run_native_sim_replica(const ScenarioSpec& spec,
                                                   const Workload& w, Rng rng) {
  const AdversaryParams adv = parse_adversary_spec(spec.adversary);
  // Same lifting as make_sim_engine: an adversary on a non-omissive model
  // runs on the model's omissive closure.
  Model model = resolve_model(spec);
  if (adv.rate > 0.0 && !is_omissive(model)) model = omissive_closure(model);
  const SimSpec sim_spec = parse_sim_spec(spec.sim);
  auto sim = make_spec_simulator(sim_spec, model, w.protocol,
                                 per_agent_initial(w, "sim=" + spec.sim));
  sim->record_events(spec.verify_matching);

  std::unique_ptr<Scheduler> sched;
  if (adv.rate > 0.0) {
    sched = std::make_unique<OmissionAdversary>(
        std::make_unique<UniformScheduler>(spec.n), spec.n, adv);
  } else {
    sched = std::make_unique<UniformScheduler>(spec.n);
  }

  ReplicaResult out;
  const RunOptions opt = resolve_run_options(spec);
  if (spec.fixed_steps > 0) {
    out.run = run_steps(*sim, *sched, rng, spec.fixed_steps);
  } else if (spec.probe == "activation") {
    const auto* naming = dynamic_cast<const NamingSimulator*>(sim.get());
    if (naming == nullptr)
      throw std::invalid_argument(
          "probe=activation needs sim=naming on the native engine");
    out.run = run_until(
        *sim, *sched, rng,
        [](const Simulator& s) {
          return static_cast<const NamingSimulator&>(s).all_activated();
        },
        opt);
  } else {
    auto counts_probe = workload_counts_probe(w);
    out.run = run_until(
        *sim, *sched, rng,
        [&](const Simulator& s) {
          return counts_probe(s.projected_counts(), *w.protocol);
        },
        opt);
  }

  harvest_sim_extras(*sim, out);
  if (spec.verify_matching) {
    const MatchingReport rep =
        verify_simulation(*sim, spec.max_unmatched_per_n * spec.n);
    out.extras["sim_pairs"] = static_cast<double>(rep.pairs);
    out.extras["unmatched"] = static_cast<double>(rep.unmatched);
    out.extras["matching_ok"] = rep.ok ? 1.0 : 0.0;
    out.extras["overhead"] =
        rep.pairs > 0
            ? static_cast<double>(out.run.steps) / static_cast<double>(rep.pairs)
            : 0.0;
  }
  return out;
}

// Engine-backed replica: direct runs (two-way or one-way, any engine)
// and count-space simulator runs, on the engine make_replica_engine
// builds. `resume`/`on_snapshot`/`snapshot_every` carry the sweep
// service's in-flight checkpoint protocol (see scenario.hpp); run_replica
// passes nulls and zero.
[[nodiscard]] ReplicaResult run_engine_replica(
    const ScenarioSpec& spec, const Workload* workload, Rng rng,
    RunStats* stats_out, const ReplicaSnapshot* resume,
    const SnapshotHook& on_snapshot, std::size_t snapshot_every) {
  auto [engine, probe] = make_replica_engine(spec, workload);

  UniformScheduler sched(spec.n);
  ReplicaResult out;
  const RunOptions opt = resolve_run_options(spec);
  std::optional<obs::FlightRecorder> recorder;
  if (spec.metrics_every > 0) {
    engine->enable_metrics();
    obs::FlightRecorderOptions fopt;
    fopt.every = spec.metrics_every;
    recorder.emplace(fopt);
  }
  obs::FlightRecorder* rec = recorder ? &*recorder : nullptr;

  // In-flight checkpoint eligibility: exactness-safe captures only (see
  // scenario.hpp). The windowed-telemetry and trajectory accumulators are
  // not part of the engine snapshot, so replicas that carry them restart
  // from scratch instead of resuming mid-run.
  const bool capture_safe = spec.fixed_steps == 0 && spec.metrics_every == 0 &&
                            spec.traj_every == 0 && engine->checkpointable();
  if (resume != nullptr) {
    if (!capture_safe)
      throw std::invalid_argument(
          "run_replica_resumable: snapshot restore into a replica that is "
          "not exactness-safe (mismatched spec?)");
    bin::Reader state(resume->engine);
    engine->restore_state(state);
    if (!state.done())
      throw std::runtime_error(
          "run_replica_resumable: trailing bytes after engine state");
    rng.restore(resume->rng);
  }
  RunProgress progress;
  if (resume != nullptr) {
    progress.steps = resume->harness_steps;
    progress.consecutive = resume->harness_consecutive;
  }

  SliceHook hook;
  std::optional<TrajectoryEncoder> traj;
  std::uint64_t next_traj = 0;
  if (spec.traj_every > 0 && spec.fixed_steps == 0) {
    traj.emplace();
    std::vector<std::size_t> counts;
    engine->counts_into(counts);
    traj->append(0, counts);  // initial configuration, frame 0
    next_traj = spec.traj_every;
  }
  std::size_t last_capture = progress.steps;
  const bool capturing =
      capture_safe && on_snapshot != nullptr && snapshot_every > 0;
  if (capturing || traj) {
    hook = [&](Engine& e, const RunProgress& p) {
      if (traj && p.steps >= next_traj) {
        std::vector<std::size_t> counts;
        e.counts_into(counts);
        traj->append(p.steps, counts);
        next_traj = p.steps + spec.traj_every;
      }
      if (capturing && p.steps - last_capture >= snapshot_every) {
        last_capture = p.steps;
        bin::Writer w;
        e.save_state(w);
        ReplicaSnapshot snap;
        snap.engine = w.data();
        snap.rng = rng.snapshot();
        snap.harness_steps = p.steps;
        snap.harness_consecutive = p.consecutive;
        on_snapshot(snap);
      }
    };
  }

  if (spec.fixed_steps > 0) {
    out.run = run_engine_steps(*engine, sched, rng, spec.fixed_steps, rec);
  } else {
    out.run = run_engine_until(*engine, sched, rng, probe, opt, progress, hook,
                               rec);
  }
  if (traj) out.traj = traj->data();
  fill_from_stats(out, engine->stats());
  if (!spec.sim.empty())
    out.extras["live_states"] = static_cast<double>(engine->universe_live());
  if (recorder) {
    engine->sync_metrics();
    out.flight = recorder->to_jsonl();
    // Deterministic registry content only: counters and gauges aggregate
    // into "m.*" extras columns. Sampled timers are wall-clock estimates
    // and stay out — extras must be bit-identical across thread counts.
    for (const auto& [name, c] : engine->metrics()->counters())
      out.extras["m." + name] = static_cast<double>(c.value());
    for (const auto& [name, g] : engine->metrics()->gauges())
      out.extras["m." + name] = g.value();
  }
  if (stats_out != nullptr) *stats_out = engine->stats();
  return out;
}

}  // namespace

std::string ScenarioSpec::point_key() const {
  std::ostringstream out;
  out << workload << "@n=" << n << ":model="
      << (model ? model_name(*model) : std::string("default"))
      << ":adv=" << adversary << ":engine=" << engine;
  if (!sim.empty()) out << ":sim=" << sim;
  if (fixed_steps > 0) out << ":steps=" << fixed_steps;
  if (max_steps > 0) out << ":maxsteps=" << max_steps;
  if (check_every > 0) out << ":checkevery=" << check_every;
  if (stable_checks != 3) out << ":stable=" << stable_checks;
  if (probe != "workload") out << ":probe=" << probe;
  if (verify_matching) out << ":verify=1";
  return out.str();
}

std::string ScenarioSpec::to_string() const {
  std::ostringstream out;
  out << point_key() << ":trials=" << trials << ":seed=" << seed;
  return out.str();
}

std::uint64_t ScenarioSpec::point_seed() const {
  return seed ^ fnv1a64(point_key());
}

std::vector<ScenarioSpec> ScenarioGrid::expand() const {
  if (workloads.empty() || sizes.empty() || adversaries.empty() ||
      sims.empty() || engines.empty())
    throw std::invalid_argument("ScenarioGrid: every axis needs >= 1 value");
  const std::vector<std::string> model_axis =
      models.empty() ? std::vector<std::string>{""} : models;
  std::vector<ScenarioSpec> out;
  out.reserve(points());
  for (const std::string& w : workloads) {
    for (const std::size_t n : sizes) {
      for (const std::string& m : model_axis) {
        for (const std::string& a : adversaries) {
          for (const std::string& s : sims) {
            for (const std::string& e : engines) {
              ScenarioSpec spec;
              spec.workload = w;
              spec.n = n;
              if (!m.empty() && m != "default") spec.model = parse_model_name(m);
              spec.adversary = a.empty() ? "none" : a;
              spec.sim = s == "none" ? "" : s;
              spec.engine = e;
              spec.trials = trials;
              spec.seed = seed;
              spec.max_steps = max_steps;
              spec.check_every = check_every;
              spec.stable_checks = stable_checks;
              spec.fixed_steps = fixed_steps;
              spec.probe = probe;
              spec.verify_matching = verify_matching;
              spec.max_unmatched_per_n = max_unmatched_per_n;
              spec.metrics_every = metrics_every;
              spec.traj_every = traj_every;
              if (!spec.sim.empty() && e == "native" &&
                  metrics_every + traj_every > 0)
                throw std::invalid_argument("no telemetry on native sim " +
                                            spec.point_key());
              out.push_back(std::move(spec));
            }
          }
        }
      }
    }
  }
  return out;
}

namespace {

// Reject before any replica runs what run_replica would reject as a typo:
// n < 4, and a workload name unknown to the registry it would resolve —
// two-way, unless the point is a direct one-way run.
void check_point_names(const ScenarioGrid& g) {
  for (const ScenarioSpec& spec : g.expand()) {
    const Model model = resolve_model(spec);
    check_workload_name(spec.workload, spec.n,
                        spec.sim.empty() && is_one_way(model)
                            ? std::optional<Model>(model)
                            : std::nullopt);
  }
}

}  // namespace

ScenarioGrid parse_grid(const std::string& text) {
  if (text.empty()) throw std::invalid_argument("parse_grid: empty grid");
  ScenarioGrid g;

  const std::size_t at = text.find('@');
  const std::string head = text.substr(0, at);
  g.workloads = split(head, ',');
  for (const std::string& w : g.workloads)
    if (w.empty())
      throw std::invalid_argument("parse_grid: empty workload name in '" +
                                  head + "'");
  if (at == std::string::npos) {
    check_point_names(g);
    return g;
  }

  // Top-level ':' split with continuation: a segment that does not start a
  // known key re-joins the previous field (adversary and simulator specs
  // legitimately contain ':').
  std::vector<std::pair<std::string, std::string>> fields;
  for (const std::string& token : split(text.substr(at + 1), ':')) {
    const std::size_t eq = token.find('=');
    const std::string key = eq == std::string::npos ? "" : token.substr(0, eq);
    if (!key.empty() && known_key(key)) {
      fields.emplace_back(key, token.substr(eq + 1));
    } else if (!fields.empty()) {
      fields.back().second += ':' + token;
    } else {
      throw std::invalid_argument("parse_grid: expected key=value, got '" +
                                  token + "'");
    }
  }

  for (const auto& [key, value] : fields) {
    if (key == "n") {
      g.sizes.clear();
      for (const std::string& v : split(value, ','))
        g.sizes.push_back(parse_size(v));
    } else if (key == "model") {
      g.models = split(value, ',');
      for (const std::string& m : g.models)
        if (!m.empty() && m != "default") (void)parse_model_name(m);
    } else if (key == "engine") {
      g.engines = split(value, ',');
      for (const std::string& e : g.engines) {
        const auto& kinds = engine_kinds();
        if (std::find(kinds.begin(), kinds.end(), e) == kinds.end())
          throw std::invalid_argument("parse_grid: unknown engine '" + e +
                                      "' (want native, batch or auto)");
      }
    } else if (key == "adv") {
      g.adversaries = split(value, ',');
      for (const std::string& a : g.adversaries)
        (void)parse_adversary_spec(a.empty() ? "none" : a);
    } else if (key == "sim") {
      g.sims = split(value, ',');
      for (const std::string& s : g.sims)
        if (!s.empty() && s != "none") (void)parse_sim_spec(s);
    } else if (key == "trials") {
      g.trials = parse_u64(key, value);
      if (g.trials == 0)
        throw std::invalid_argument("parse_grid: trials must be >= 1");
    } else if (key == "seed") {
      g.seed = parse_u64(key, value);
    } else if (key == "steps") {
      g.fixed_steps = parse_u64(key, value);
    } else if (key == "maxsteps") {
      g.max_steps = parse_u64(key, value);
    } else if (key == "checkevery") {
      g.check_every = parse_u64(key, value);
    } else if (key == "stable") {
      g.stable_checks = parse_u64(key, value);
    } else if (key == "probe") {
      if (value != "workload" && value != "activation")
        throw std::invalid_argument("parse_grid: probe must be workload or "
                                    "activation, got '" + value + "'");
      g.probe = value;
    } else if (key == "verify") {
      if (value == "1" || value == "true") g.verify_matching = true;
      else if (value == "0" || value == "false") g.verify_matching = false;
      else
        throw std::invalid_argument("parse_grid: verify must be 0 or 1");
    }
  }
  check_point_names(g);
  return g;
}

Model resolve_model(const ScenarioSpec& spec) {
  if (spec.model) return *spec.model;
  if (!spec.sim.empty()) return default_sim_model(parse_sim_spec(spec.sim));
  return Model::TW;
}

RunOptions resolve_run_options(const ScenarioSpec& spec) {
  RunOptions opt;
  opt.stable_checks = std::max<std::size_t>(1, spec.stable_checks);
  const AdversaryParams adv = parse_adversary_spec(spec.adversary);
  const bool persistent_adversary =
      adv.rate > 0.0 && adv.kind == AdversaryKind::UO;
  // Probe cadence scales with the n^2-ish convergence times of the uniform
  // scheduler, clamped so small populations get fine-grained interaction
  // counts and million-agent runs don't probe needlessly often.
  const auto scaled = [&](std::size_t lo, std::size_t hi) {
    return std::clamp(spec.n * spec.n / 64, lo, hi);
  };
  if (spec.sim.empty()) {
    // The batch engine leaps over no-op runs, so give it an interaction
    // budget sized for n^2-scale convergence times; a UO adversary never
    // quiesces and costs O(1) per omission forever, so those runs get a
    // finite cap instead. engine=auto gets batch-class budgets: it either
    // resolves to batch (closed protocols) or can reach count space.
    if (spec.engine != "native") {
      opt.max_steps = persistent_adversary ? 1'000'000'000'000ULL
                                           : 1'000'000'000'000'000ULL;
      opt.check_every = scaled(4096, 1u << 22);
    } else {
      opt.max_steps = 100'000'000;
      opt.check_every = std::clamp<std::size_t>(spec.n, 64, 4096);
    }
  } else if (spec.engine != "native") {
    // Naive wrappers add no state (bare-protocol no-op oceans can be
    // leapt); the real simulators pay per fire on any engine.
    const bool naive = parse_sim_spec(spec.sim).kind == "naive";
    opt.max_steps = naive ? 20'000'000'000'000ULL : 1'000'000'000ULL;
    opt.check_every = scaled(4096, 1u << 20);
  } else {
    opt.max_steps = 20'000'000;
    opt.check_every = 64;
  }
  if (spec.max_steps > 0) opt.max_steps = spec.max_steps;
  if (spec.check_every > 0) opt.check_every = spec.check_every;
  return opt;
}

ReplicaEngine make_replica_engine(const ScenarioSpec& spec,
                                  const Workload* workload) {
  // Every factory drops a rate-0 adversary ("none") itself.
  const AdversaryParams adv = parse_adversary_spec(spec.adversary);
  if (!spec.sim.empty()) {
    SimEngineConfig config;
    config.spec = parse_sim_spec(spec.sim);
    config.model = spec.model;
    config.adversary = adv;
    return {make_sim_engine(spec.engine, workload->protocol,
                            per_agent_initial(*workload, "sim=" + spec.sim),
                            config),
            workload_counts_probe(*workload)};
  }
  const EngineConfig config{resolve_model(spec), {}, adv};
  if (workload != nullptr)
    return {make_workload_engine(spec.engine, *workload, config),
            workload_counts_probe(*workload)};
  const OneWayWorkload w =
      find_one_way_workload(spec.workload, spec.n, config.model);
  return {make_workload_engine(spec.engine, w, config),
          workload_counts_probe(w)};
}

namespace {

[[nodiscard]] ReplicaResult run_replica_impl(
    const ScenarioSpec& spec, std::size_t trial, RunStats* stats_out,
    const ReplicaSnapshot* resume, const SnapshotHook& on_snapshot,
    std::size_t snapshot_every) {
  if (spec.n < 4)
    throw std::invalid_argument("scenario needs n >= 4 (got " +
                                std::to_string(spec.n) + ")");
  if (spec.probe != "workload" && spec.probe != "activation")
    throw std::invalid_argument("unknown probe '" + spec.probe + "'");
  Rng rng = Rng(spec.point_seed()).split(trial);
  if (stats_out != nullptr) stats_out->reset(0);
  // Resolve the two-way workload once; only one-way direct runs (no sim,
  // one-way model) resolve the one-way registry instead, inside
  // run_engine_replica.
  const bool one_way_direct =
      spec.sim.empty() && is_one_way(resolve_model(spec));
  if (one_way_direct && spec.custom)
    throw std::invalid_argument(
        "custom workloads are two-way; pick a two-way model");
  // Two statements, not a conditional: `*spec.custom` is const, so a
  // conditional would copy the registry workload (per-agent vector and
  // all) instead of moving it.
  std::optional<Workload> workload;
  if (spec.custom) workload = *spec.custom;
  else if (!one_way_direct) workload = find_workload(spec.workload, spec.n);
  if (!spec.sim.empty() && spec.engine == "native") {
    if (resume != nullptr)
      throw std::invalid_argument(
          "run_replica_resumable: native simulator replicas do not "
          "checkpoint");
    return run_native_sim_replica(spec, *workload, rng);
  }
  if (spec.probe == "activation")
    throw std::invalid_argument(
        "probe=activation needs engine=native with sim=naming");
  return run_engine_replica(spec, workload ? &*workload : nullptr, rng,
                            stats_out, resume, on_snapshot, snapshot_every);
}

}  // namespace

ReplicaResult run_replica(const ScenarioSpec& spec, std::size_t trial,
                          RunStats* stats_out) {
  return run_replica_impl(spec, trial, stats_out, nullptr, nullptr, 0);
}

ReplicaResult run_replica_resumable(const ScenarioSpec& spec,
                                    std::size_t trial,
                                    const ReplicaSnapshot* resume,
                                    const SnapshotHook& on_snapshot,
                                    std::size_t snapshot_every) {
  return run_replica_impl(spec, trial, nullptr, resume, on_snapshot,
                          snapshot_every);
}

}  // namespace ppfs::exp
