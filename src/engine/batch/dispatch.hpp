// EngineDispatch: one interface over the per-agent native engine and the
// count-space engines, so the run loop, workload runner, stats, and traces
// can drive any of them without caring which representation is
// underneath. Engines are selected by (model, engine kind, adversary)
// triple: any model of the §2.2–2.3 lattice, an optional omission
// adversary (Def. 1–2), and one of three kinds:
//   * "native" — per-agent, one interaction at a time;
//   * "auto" — one count-space engine per universe with two exact faces
//     (closed universe: count-leap and round-dense; simulators: count
//     space and agent space), switched by a RegimeMonitor;
//   * "batch" — the same engine with its count face pinned (the leap
//     face; open-universe count space for simulators): no monitor, no
//     internal slicing.
// make_engine / make_sim_engine are the construction points.
//
// The scheduler contract differs between the two representations:
//   * a native engine consumes real interactions from the Scheduler it is
//     given and inserts omissions itself via its OmissionProcess;
//   * a count-space engine realizes the uniform scheduler's distribution
//     internally (count-level sampling) and therefore only accepts a
//     UniformScheduler of matching size — the Scheduler argument is a
//     specification to validate, not a source of pairs. Scripted and
//     hand-written adversarial schedulers need the native engine.
//
// Attaching an adversary to a non-omissive model lifts the model to its
// omissive closure (TW -> T1, IT/IO -> I1): omissions strike undetectably,
// which is exactly the Fig. 1 embedding. Both engines realize the same
// omission process, max_burst included: the step-wise path consults
// should_omit per delivery, the batch path samples the identical
// within-burst Markov chain in aggregate (leap::sample_capped_burst_leg).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/dynamic_rules.hpp"
#include "core/models.hpp"
#include "core/protocol.hpp"
#include "core/rule_matrix.hpp"
#include "engine/batch/batch_system.hpp"
#include "engine/batch/sim_batch_system.hpp"
#include "engine/native.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "sim/sim_rules.hpp"
#include "engine/runner.hpp"
#include "engine/stats.hpp"
#include "engine/trace.hpp"
#include "sched/omission_process.hpp"
#include "sched/scheduler.hpp"
#include "util/binio.hpp"
#include "util/rng.hpp"

namespace ppfs {

class Engine {
 public:
  virtual ~Engine() = default;

  [[nodiscard]] virtual std::string kind() const = 0;
  // The execution representation currently underneath. Equal to kind()
  // for native and batch engines; an auto engine reports the face live
  // right now ("leap"/"round" or "count"/"agent").
  [[nodiscard]] virtual std::string active_kind() const { return kind(); }
  [[nodiscard]] virtual const Protocol& protocol() const = 0;
  [[nodiscard]] virtual Model model() const = 0;
  [[nodiscard]] virtual std::size_t size() const = 0;
  // Uniform-scheduler interactions covered so far (a batch engine counts
  // the no-ops it leapt over — they are scheduled interactions too).
  [[nodiscard]] virtual std::size_t interactions() const = 0;
  // Omissive interactions delivered so far.
  [[nodiscard]] virtual std::size_t omissions() const = 0;
  virtual void counts_into(std::vector<std::size_t>& out) const = 0;

  // Advance by at most `budget` interactions; returns how many were
  // covered (>= 1 for budget >= 1). A batch engine may cover the whole
  // budget in O(q^2) work; a native engine drives them one at a time.
  virtual std::size_t advance(std::size_t budget, Scheduler& sched,
                              Rng& rng) = 0;

  [[nodiscard]] virtual RunStats& stats() noexcept = 0;

  // Agent-level trace recording. Engines without agent identities cannot
  // attribute interactions and return false, leaving the sink unset.
  virtual bool record_trace(Trace* sink);

  // Diagnostic: live states of the engine's execution universe (the
  // protocol's states for closed-universe engines; currently occupied
  // interned wrapper states for simulator engines).
  [[nodiscard]] virtual std::size_t universe_live() const {
    return protocol().num_states();
  }

  [[nodiscard]] std::vector<std::size_t> counts() const;
  [[nodiscard]] int consensus_output() const;  // from counts + outputs

  // --- checkpoint / restore (sweep service) --------------------------------
  // Engines that can serialize their in-flight run state opt in. The
  // restoring engine must be freshly constructed with the IDENTICAL
  // make_engine*/make_sim_engine arguments — only mutable run state
  // round-trips; rules, protocol and adversary parameters come back from
  // the construction path. checkpoint_exact() additionally guarantees the
  // restored replica's FUTURE trajectory (and therefore every downstream
  // aggregate) is byte-identical to the uninterrupted run. Every engine
  // that is checkpointable is exact: the auto simulator engine arbitrates
  // only on state its checkpoint carries (never on cache contents).
  [[nodiscard]] virtual bool checkpointable() const { return false; }
  [[nodiscard]] virtual bool checkpoint_exact() const {
    return checkpointable();
  }
  // Both throw std::logic_error on a non-checkpointable engine.
  virtual void save_state(bin::Writer& w) const;
  virtual void restore_state(bin::Reader& r);

  // --- observability (src/obs) ---------------------------------------------
  // Opt-in engine-wide telemetry. enable_metrics() allocates the registry
  // and wires the underlying systems' cached metric handles; detached
  // (the default) every hook is one predictable null-check, and with
  // PPFS_METRICS=0 the hooks compile away entirely. Instrumentation never
  // consumes Rng draws, so the interaction trajectory is bit-identical
  // with metrics attached or not.
  obs::MetricRegistry& enable_metrics();
  [[nodiscard]] obs::MetricRegistry* metrics() noexcept {
    return metrics_.get();
  }
  // Copy pull-style statistics (run totals, cache hit counts, universe
  // occupancy, adversary budget) into the registry — cheap, called at
  // snapshot/read time, never on the hot path. No-op when detached.
  virtual void sync_metrics();
  // Configuration summary for the flight recorder: distinct occupied
  // states and the top_k largest counts, labeled. The base implementation
  // summarizes the projected protocol space via counts_into(); engines
  // with larger execution universes override.
  virtual void fill_summary(obs::ConfigSummary& out, std::size_t top_k) const;

 protected:
  // Engine-specific handle wiring, invoked once by enable_metrics().
  virtual void wire_metrics(obs::MetricRegistry& reg) { (void)reg; }

 private:
  std::unique_ptr<obs::MetricRegistry> metrics_;
};

// Model + adversary configuration for make_engine. Defaults reproduce the
// historical plain-TW engines.
struct EngineConfig {
  Model model = Model::TW;
  // Designer omission-reaction functions (validated against ModelCaps).
  ModelFns fns{};
  // Omission adversary; nullopt or rate 0 means none.
  std::optional<AdversaryParams> adversary{};
};

// kind: "native" | "batch" | "auto" (see engine_kinds()). Plain TW, no
// adversary. For closed-universe protocols "auto" is the adaptive batch
// engine: two exact faces over one BatchSystem — the count-leap face and
// the round-dense face (round_system.hpp) — arbitrated by a RegimeMonitor
// on the fire density, with active_kind() reporting "leap" or "round";
// "batch" is that engine pinned to the leap face.
// `initial` holds one state per agent. Only "native" keeps a copy; the
// count-space kinds read it once to count it and build from the counts.
[[nodiscard]] std::unique_ptr<Engine> make_engine(
    const std::string& kind, std::shared_ptr<const Protocol> protocol,
    const std::vector<State>& initial);

// Full (model, engine, adversary) triple over a two-way protocol. One-way
// models require the protocol to fit the IT/IO shape of §2.2.
[[nodiscard]] std::unique_ptr<Engine> make_engine(
    const std::string& kind, std::shared_ptr<const Protocol> protocol,
    const std::vector<State>& initial, const EngineConfig& config);

// Same, over a native one-way protocol (config.model must be one-way).
[[nodiscard]] std::unique_ptr<Engine> make_engine(
    const std::string& kind, std::shared_ptr<const OneWayProtocol> protocol,
    const std::vector<State>& initial, const EngineConfig& config);

// Count-vector construction point: counts[q] agents start in state q, the
// population is sum(counts). This is how n = 10^9 runs are built — a
// per-agent initial vector would cost gigabytes before the engine even
// starts, while the count-space engines never materialize agents at all.
// Only "batch" and "auto" have a counts path; "native" throws. All
// arithmetic downstream is 64-bit-safe through n(n-1) for n <= ~2^31.
[[nodiscard]] std::unique_ptr<Engine> make_engine_from_counts(
    const std::string& kind, std::shared_ptr<const Protocol> protocol,
    std::vector<std::size_t> counts);

[[nodiscard]] std::unique_ptr<Engine> make_engine_from_counts(
    const std::string& kind, std::shared_ptr<const Protocol> protocol,
    std::vector<std::size_t> counts, const EngineConfig& config);

// One-way: the occupied states of `counts` seed the lowered two-way face
// (multiplicity is irrelevant to the Q'_P closure).
[[nodiscard]] std::unique_ptr<Engine> make_engine_from_counts(
    const std::string& kind, std::shared_ptr<const OneWayProtocol> protocol,
    std::vector<std::size_t> counts, const EngineConfig& config);

// Simulator-engine configuration: which §4 simulator wraps the protocol
// (sim/sim_rules.hpp), the physical model it runs under, and an optional
// omission adversary striking the physical interactions.
struct SimEngineConfig {
  SimSpec spec{};
  // Default: default_sim_model(spec) — the model each simulator is
  // designed for. Attaching an adversary to a non-omissive model lifts it
  // to the omissive closure, exactly as in make_engine.
  std::optional<Model> model{};
  std::optional<AdversaryParams> adversary{};
  // Batch engines only: bound on the rule source's (class, starter,
  // reactor) -> successors LRU cache. Default
  // SimBatchSystem::kDefaultOutcomeCacheCapacity; 0 disables (the
  // equivalence tests run both ways — the cache is invisible in
  // distribution).
  std::optional<std::size_t> outcome_cache_capacity{};
  // engine=auto only, test/diagnostic hook: force one representation
  // switch (whichever direction) at the first internal slice boundary at
  // or after this many interactions, bypassing the regime monitor. The
  // mid-run-switch equivalence suite uses it to pin the bridge
  // distribution-exact at a deterministic point.
  std::optional<std::size_t> auto_force_switch_at{};
};

// A simulator run as an engine, behind the same Engine interface:
// protocol(), counts_into() and consensus_output() are the SIMULATED
// projection pi_P — run_engine_until therefore detects convergence on the
// simulated configuration — while interactions()/omissions() count
// physical events. kind "native" drives the step-wise Simulator facade
// (per-agent, event recording off); "batch" the open-universe count-space
// face (SimBatchSystem) alone, which is how SKnO/SID/naming reach
// n = 10^6; "auto" starts on whichever representation the initial dispersion favors
// and may switch between count space and a direct agent-space driver at
// slice boundaries, steered by a RegimeMonitor (engine/batch/regime.hpp)
// with hysteresis — the contract is that auto is never materially slower
// than the best fixed choice. An omission adversary does not stop it: the
// engine owns the one omission process and carries it, with the global
// step index, across every switch. The count-space kinds intern each
// distinct initial wrapper state once (DynamicRuleSource::
// intern_initial_groups) and never keep `initial`.
[[nodiscard]] std::unique_ptr<Engine> make_sim_engine(
    const std::string& kind, std::shared_ptr<const Protocol> protocol,
    const std::vector<State>& initial, const SimEngineConfig& config);

// The count-space kinds ("batch", "auto") over a rule source the caller
// built with make_sim_rule_source, and possibly tuned (its internal cache
// capacities, say). The source fixes the simulator and the model, so
// config.spec and config.model are not read; `initial` holds simulated
// states, one per agent, and the source must not have run yet.
[[nodiscard]] std::unique_ptr<Engine> make_sim_engine(
    const std::string& kind, std::shared_ptr<DynamicRuleSource> rules,
    const std::vector<State>& initial, const SimEngineConfig& config);

[[nodiscard]] const std::vector<std::string>& engine_kinds();

// Probe over (counts, protocol) as produced by workload_counts_probe.
using CountsProbe =
    std::function<bool(const std::vector<std::size_t>&, const Protocol&)>;

// Engine-agnostic counterpart of run_until (engine/runner.hpp): advance in
// check_every-sized slices, evaluate the probe after each slice, stop once
// it holds stable_checks times in a row. Also feeds the engine's RunStats
// convergence tracking.
//
// An optional FlightRecorder snapshots the engine (sync_metrics +
// fill_summary) whenever a slice boundary crosses its cadence. Slicing is
// NOT adjusted to the cadence: the recorder observes the run the probe
// loop was going to make anyway, so attaching it changes neither the
// trajectory nor the Rng stream.
RunResult run_engine_until(Engine& engine, Scheduler& sched, Rng& rng,
                           const CountsProbe& probe, const RunOptions& opt = {},
                           obs::FlightRecorder* recorder = nullptr);

// Probe-loop progress that must survive a checkpoint alongside the
// engine's own state: interactions covered by this probe loop so far and
// the current consecutive-holds streak. (The engine's RunStats carries
// the convergence bookkeeping; these two scalars are the harness's.)
struct RunProgress {
  std::size_t steps = 0;
  std::size_t consecutive = 0;
};

// Invoked after each probe slice (probe evaluated, RunStats updated,
// `progress` current) — the checkpoint capture point: engine state saved
// here plus the passed progress resumes to a byte-identical run.
using SliceHook = std::function<void(Engine&, const RunProgress&)>;

// Resume-capable probe loop: identical to run_engine_until above when
// `progress` starts zeroed, but picks up mid-run when it carries restored
// state (with the engine, Rng and scheduler restored to match). The hook,
// if any, fires at every slice boundary before convergence is declared.
RunResult run_engine_until(Engine& engine, Scheduler& sched, Rng& rng,
                           const CountsProbe& probe, const RunOptions& opt,
                           RunProgress& progress, const SliceHook& on_slice,
                           obs::FlightRecorder* recorder = nullptr);

// Drive exactly `steps` interactions, no probe (advance never overshoots
// its budget; a batch is truncated at the boundary, which the geometric
// skip's memorylessness makes distribution-preserving). The recorder, if
// any, snapshots after each advance() return.
RunResult run_engine_steps(Engine& engine, Scheduler& sched, Rng& rng,
                           std::size_t steps,
                           obs::FlightRecorder* recorder = nullptr);

}  // namespace ppfs
