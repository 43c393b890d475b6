// Declarative experiment scenarios: one description of "what to run" that
// the CLI, the bench harnesses and the tests all share, instead of each
// binary hand-rolling its own sweep loops and flag handling.
//
// A ScenarioSpec is one concrete run point — workload, population size,
// engine kind, interaction model, adversary spec, optional simulator
// wrapper, trial count and run control. A ScenarioGrid is the declarative
// sweep: per-axis value lists whose cross product expand() turns into
// concrete ScenarioSpecs in a documented, deterministic order.
//
// Grids have a compact string form, parsed by parse_grid — the one grammar
// behind `ppfs_cli --sweep` and anything else that wants a textual sweep:
//
//   grid      := workloads [ '@' field (':' field)* ]
//   workloads := name (',' name)*            (registry prefix match)
//   field     := key '=' values | continuation
//   values    := value (',' value)*          (lists only on axis keys)
//
// Axis keys (multi-valued): n (sizes, 1e6 notation allowed), model,
// engine, adv (sched/omission_process.hpp spec form), sim
// (sim/sim_rules.hpp spec form). Scalar keys: trials, seed, steps (fixed
// interaction count, no probe), maxsteps, checkevery, stable, probe
// (workload | activation), verify (0/1: matching verification on native
// simulator runs). A segment whose text before '=' is not a known key
// continues the previous field's value with the ':' restored — that is how
// `adv=budget:1000:burst=4` or `sim=skno:o=2` survive the top-level ':'
// split, e.g.
//
//   exact-majority@n=1e6:model=T3:adv=budget:1000:engine=batch:trials=64
//   or,max@n=256,1024:engine=native,batch:trials=8:seed=7
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/models.hpp"
#include "engine/runner.hpp"
#include "exp/aggregate.hpp"
#include "protocols/registry.hpp"

namespace ppfs::exp {

// One concrete run point. Everything that influences the chain is in here
// (plus the trial index); replica RNG streams are keyed off
// (seed, point_key(), trial), so a point's results never depend on which
// other points share the sweep or on scheduling.
struct ScenarioSpec {
  std::string workload = "exact-majority";
  std::size_t n = 100;
  std::string engine = "batch";    // "native" | "batch" | "auto"
  std::optional<Model> model{};    // unset -> TW, or the simulator's model
  std::string adversary = "none";  // parse_adversary_spec form
  std::string sim;                 // empty = direct run; parse_sim_spec form
  std::size_t trials = 1;
  std::uint64_t seed = 42;

  // Run control. 0 = engine-aware default (see resolve_run_options).
  std::size_t max_steps = 0;
  std::size_t check_every = 0;
  std::size_t stable_checks = 3;
  // > 0: drive exactly this many interactions, no convergence probe.
  std::size_t fixed_steps = 0;
  // "workload" = the workload's own probe; "activation" = the naming
  // simulator's all-activated predicate (native naming runs only).
  std::string probe = "workload";
  // Native simulator runs only: record SimEvents and verify the
  // Definition-3 matching, reporting extras sim_pairs / unmatched /
  // matching_ok / overhead.
  bool verify_matching = false;
  // Matching-verification tolerance: at most this many unmatched events
  // per agent (verify_simulation's max_unmatched = factor * n). The SKnO
  // harnesses historically allowed 4, SID/naming the tighter 2.
  std::size_t max_unmatched_per_n = 4;

  // Flight-recorder cadence in interactions; 0 = telemetry off. Engine
  // replicas with metrics_every > 0 enable the engine's MetricRegistry,
  // attach an obs::FlightRecorder and report the timeline in
  // ReplicaResult::flight plus deterministic registry totals as "m.*"
  // extras. Deliberately NOT part of point_key(): instrumentation never
  // consumes Rng draws, so attaching a recorder cannot change any result —
  // a point's identity must not depend on whether it was observed.
  std::size_t metrics_every = 0;

  // Trajectory-capture cadence in interactions; 0 = off. Engine-backed
  // probe-loop replicas with traj_every > 0 record the projected count
  // vector at every probe slice that crosses the cadence, delta-encoded
  // (util/trajectory.hpp) into ReplicaResult::traj. Like metrics_every,
  // NOT part of point_key(): captures read counts only, never Rng draws.
  std::size_t traj_every = 0;

  // Registry bypass for programmatic scenarios (benches sweeping custom
  // protocols). When set, `workload` is just the display label.
  std::shared_ptr<const Workload> custom{};

  // Canonical compact form (the grid grammar, single-valued).
  [[nodiscard]] std::string to_string() const;
  // to_string without trials/seed: the stable identity that replica RNG
  // streams are keyed on.
  [[nodiscard]] std::string point_key() const;
  // Base seed for this point's replica streams; trial t runs with
  // Rng(point_seed()).split(t).
  [[nodiscard]] std::uint64_t point_seed() const;
};

// The declarative sweep. expand() crosses the axes in the fixed order
// workload -> n -> model -> adversary -> sim -> engine (innermost last),
// so row order is reproducible and documented.
struct ScenarioGrid {
  std::vector<std::string> workloads{"exact-majority"};
  std::vector<std::size_t> sizes{100};
  std::vector<std::string> models{};  // empty = one unset (default) entry
  std::vector<std::string> adversaries{"none"};
  std::vector<std::string> sims{""};  // "" = direct run
  std::vector<std::string> engines{"batch"};
  std::size_t trials = 1;
  std::uint64_t seed = 42;
  std::size_t max_steps = 0;
  std::size_t check_every = 0;
  std::size_t stable_checks = 3;
  std::size_t fixed_steps = 0;
  std::string probe = "workload";
  bool verify_matching = false;
  std::size_t max_unmatched_per_n = 4;
  std::size_t metrics_every = 0;
  std::size_t traj_every = 0;

  [[nodiscard]] std::vector<ScenarioSpec> expand() const;
  [[nodiscard]] std::size_t points() const noexcept {
    return workloads.size() * sizes.size() * std::max<std::size_t>(1, models.size()) *
           adversaries.size() * sims.size() * engines.size();
  }
};

// Parse the compact grid string (grammar above). Throws
// std::invalid_argument with a pointed message on malformed input,
// including a point with n < 4 or a workload name the registry does not
// know (checked by name; no protocol is built).
[[nodiscard]] ScenarioGrid parse_grid(const std::string& text);

// The model a spec actually runs under before any adversary lift: the
// explicit one, else the simulator's design model, else TW.
[[nodiscard]] Model resolve_model(const ScenarioSpec& spec);

// The engine-aware RunOptions defaults the CLI historically used: batch
// engines get no-op-leap-sized budgets, native engines per-interaction
// ones, simulator runs fire-sized ones.
[[nodiscard]] RunOptions resolve_run_options(const ScenarioSpec& spec);

// Execute one replica of `spec` (trial index = RNG stream id). Throws on
// invalid specs; the runner catches and records errors per replica. If
// `stats_out` is non-null the replica's full RunStats are copied there
// (engine-backed runs only; native simulator facade runs have no RunStats
// and leave it reset).
[[nodiscard]] ReplicaResult run_replica(const ScenarioSpec& spec,
                                        std::size_t trial,
                                        RunStats* stats_out = nullptr);

// --- in-flight replica checkpointing (sweep service) ------------------------
// A snapshot of one replica caught mid-run at a probe-slice boundary: the
// engine's serialized state, the replica's keyed Rng stream position, and
// the probe harness's two progress scalars. Restoring all three into a
// freshly constructed replica continues the exact trajectory.
struct ReplicaSnapshot {
  std::string engine;  // Engine::save_state payload
  Rng::Snapshot rng{};
  std::size_t harness_steps = 0;        // RunProgress::steps
  std::size_t harness_consecutive = 0;  // RunProgress::consecutive
};

using SnapshotHook = std::function<void(const ReplicaSnapshot&)>;

// run_replica with mid-run checkpoint support. When `on_snapshot` is set
// and `snapshot_every` > 0, the replica captures a ReplicaSnapshot at the
// first probe-slice boundary after each cadence interval — but ONLY when
// the capture is exactness-safe: an engine-backed probe-loop replica
// (no native sim facade, no fixed_steps, probe=workload) with
// metrics_every == 0 and traj_every == 0 whose engine reports
// checkpoint_exact(). Ineligible replicas simply run without capturing.
// A non-null `resume` continues from a previously captured snapshot (the
// spec/trial must match the one it was captured from; restoring into an
// ineligible replica throws).
[[nodiscard]] ReplicaResult run_replica_resumable(
    const ScenarioSpec& spec, std::size_t trial, const ReplicaSnapshot* resume,
    const SnapshotHook& on_snapshot, std::size_t snapshot_every);

}  // namespace ppfs::exp
