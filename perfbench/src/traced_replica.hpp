// The traced replica: exp::run_replica's construction and run sequence,
// re-issued from the benchmark so that every call into a layer's public
// function sits inside a span.
//
// It makes the same calls in the same order with the same arguments as
// src/exp/scenario.cpp — registry resolution, make_engine /
// make_sim_engine / make_spec_simulator, run_engine_until /
// run_engine_steps / run_until / run_steps, verify_simulation — so it
// draws the same random numbers and returns the same ReplicaResult. The
// additions draw nothing:
//   * Engine::enable_metrics() on engine-backed replicas, whose registry
//     (counters, histograms, gauges, sampled timers) is summed into
//     `sums` after the run;
//   * a wrapped CountsProbe and a SliceHook (engine path) or a wrapped
//     probe and a timing Scheduler decorator (step-wise simulator path),
//     which delimit the slice and probe spans.
// The self-test (main.cpp --selftest) pins result equality against
// exp::run_replica on a tiny cell of every engine kind.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "engine/batch/dispatch.hpp"
#include "exp/aggregate.hpp"
#include "exp/scenario.hpp"
#include "protocols/registry.hpp"
#include "sim/simulator.hpp"
#include "trace.hpp"

namespace perfbench {

// Everything a replica builds before its first interaction.
struct ReplicaSetup {
  std::optional<ppfs::Workload> workload;  // unset for one-way direct runs
  std::unique_ptr<ppfs::Engine> engine;    // engine-backed replicas
  std::unique_ptr<ppfs::Simulator> sim;    // step-wise simulator replicas
  std::unique_ptr<ppfs::Scheduler> sched;  // step-wise simulator replicas
  ppfs::CountsProbe probe;
};

// Registry resolution plus engine or simulator construction, in
// exp::run_replica's order. A null tracer records no spans (set-up
// timing).
[[nodiscard]] ReplicaSetup set_up_replica(const ppfs::exp::ScenarioSpec& spec,
                                          Tracer* tr, int replica);

// Sums over a run's traced replicas, keyed by metric-registry name:
// counters as-is, histograms as "<name>.count"/"<name>.sum", gauges as
// "<name>" plus "<name>.n" (replicas that reported it), sampled timers'
// estimates as "<name>.est_s". The step-wise simulator path adds
// "sched.next_calls" and "sim.updates".
using CounterSums = std::map<std::string, double>;

[[nodiscard]] ppfs::exp::ReplicaResult traced_replica(
    const ppfs::exp::ScenarioSpec& spec, std::size_t trial, Tracer& tr,
    int replica, CounterSums& sums);

}  // namespace perfbench
