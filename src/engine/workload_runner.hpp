// Convenience glue between Workloads (protocols/registry.hpp) and the
// Engine interface (engine/batch/dispatch.hpp): build the probe a workload
// declares, build an engine from it, and run it under the uniform
// scheduler. Every run here goes through make_workload_engine and
// run_engine_until (directly, or via exp::run_replica); the native numbers
// are the baseline that every simulator-overhead experiment divides by.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "engine/batch/dispatch.hpp"
#include "engine/runner.hpp"
#include "protocols/registry.hpp"

namespace ppfs {

// A probe over projected state counts, derived from the workload:
// either its custom `converged` functor or every occupied state's output
// equal to expected_output.
[[nodiscard]] std::function<bool(const std::vector<std::size_t>&,
                                 const Protocol&)>
workload_counts_probe(const Workload& w);
[[nodiscard]] std::function<bool(const std::vector<std::size_t>&,
                                 const Protocol&)>
workload_counts_probe(const OneWayWorkload& w);

// The one construction path from a workload to an engine. The count-space
// kinds ("batch", "auto") build from initial_counts — O(q) at every n —
// or, for hand-built workloads that carry none, count `initial` once;
// "native" copies the per-agent `initial` and throws (per_agent_initial)
// for a counts-only workload above kPerAgentLimit.
[[nodiscard]] std::unique_ptr<Engine> make_workload_engine(
    const std::string& kind, const Workload& w, const EngineConfig& config = {});
[[nodiscard]] std::unique_ptr<Engine> make_workload_engine(
    const std::string& kind, const OneWayWorkload& w,
    const EngineConfig& config);

// Run the workload natively (two-way, no omissions): the native engine
// from make_workload_engine, driven by run_engine_until under a
// UniformScheduler with Rng(seed). Returns the result; `converged`
// reflects the workload's own success criterion.
[[nodiscard]] RunResult run_native_workload(const Workload& w, std::uint64_t seed,
                                            const RunOptions& opt = {});

// Same run, but through the experiment layer (exp/scenario.hpp): the
// workload is wrapped in a single-trial ScenarioSpec and executed by
// exp::run_replica with the engine chosen by name — "native" replays the
// per-agent loop, "batch" advances the count chain under the uniform
// scheduler. The replica RNG stream is keyed off (spec, seed, trial 0), so
// the run is reproducible but not stream-compatible with a raw Rng(seed).
// If `stats_out` is non-null the engine's RunStats are copied there.
[[nodiscard]] RunResult run_workload_with_engine(const std::string& engine_kind,
                                                 const Workload& w,
                                                 std::uint64_t seed,
                                                 const RunOptions& opt = {},
                                                 RunStats* stats_out = nullptr);

}  // namespace ppfs
