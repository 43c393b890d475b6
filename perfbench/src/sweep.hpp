// The benchmark's workloads and the sweep they run.
//
// A sweep is the path `ppfs_cli --sweep` users take, single-threaded:
// exp::parse_grid -> ScenarioGrid::expand -> one exp::run_replica per
// (point, trial) -> exp::fold_report -> Report::write_json ->
// exp::encode_partial. With a Tracer the replicas run through
// traced_replica instead and every step sits inside a span.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/aggregate.hpp"
#include "exp/scenario.hpp"
#include "trace.hpp"
#include "traced_replica.hpp"

namespace perfbench {

struct BenchWorkload {
  std::string name;
  // parse_grid form without trials and seed, which the sweep appends.
  std::string grid;
  std::size_t trials = 1;  // per sweep
  // What the grid must expand to (ScenarioSpec::point_key, in order).
  std::vector<std::string> point_keys;
};

[[nodiscard]] const std::vector<BenchWorkload>& bench_workloads();
// Null for an unknown name.
[[nodiscard]] const BenchWorkload* find_bench_workload(const std::string& name);

// The grid text of one sweep: the workload grid plus trials and seed.
[[nodiscard]] std::string sweep_grid(const BenchWorkload& w,
                                     std::uint64_t seed);

struct SweepResult {
  std::vector<ppfs::exp::ScenarioSpec> points;
  std::vector<std::vector<ppfs::exp::ReplicaResult>> results;
  double wall_s = 0.0;        // parse_grid until report and partial written
  // Per replica, in job order.
  struct ReplicaTiming {
    std::size_t point = 0;
    double wall_s = 0.0;        // the replica call
    double interactions = 0.0;  // covered; 0 for a replica that threw
  };
  std::vector<ReplicaTiming> replicas;
  std::size_t attempted = 0;  // replicas
  std::size_t failed = 0;     // replicas that broke a correctness check
  std::vector<std::string> violations;
  std::string fingerprint;  // Report::fingerprint of the in-process fold
  std::size_t partial_bytes = 0;
};

// Run one sweep. A null tracer runs exp::run_replica untraced; otherwise
// replicas go through traced_replica, numbered from `next_replica`, and
// the engine counters are summed into `sums`. The correctness gate runs
// after the timed part: no replica threw, convergence replicas converged,
// fixed-step replicas covered exactly `steps`, verified step-wise
// simulator replicas have matching_ok = 1, and the fingerprint of
// merge_partials({partial}) equals the in-process Report::fingerprint().
[[nodiscard]] SweepResult run_sweep(const BenchWorkload& w, std::uint64_t seed,
                                    Tracer* tr, CounterSums* sums,
                                    int* next_replica);

// Set-up time of one replica — registry resolution plus engine or
// simulator construction, everything before the first interaction —
// timed by direct calls: the median over repetitions per point, then the
// median over the sweep's points.
[[nodiscard]] double setup_seconds(const BenchWorkload& w);

}  // namespace perfbench
