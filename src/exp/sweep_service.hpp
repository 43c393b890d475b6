// Sharded, resumable sweep service over the experiment layer.
//
// A sweep is a flattened (point, trial) job list — point-major, trial-minor,
// the one enumeration in-process sweeps, sharding and checkpointing all
// share. Because every replica is a pure function of (spec, trial) — its Rng
// stream is keyed, never shared — the list can be cut anywhere and executed
// by any process at any thread count without changing a single byte of the
// final report. One worker-pool drain runs every job list: workers take
// jobs off one atomic cursor, a replica that throws becomes a failed
// result, and per-job callbacks run one at a time under a mutex. This
// header packages the facets built on that property:
//
//   * IN-PROCESS SWEEPS. run_points() drains a whole point list and folds
//     it in trial order — the benches' and tests' entry point.
//
//   * SHARD/MERGE. shard_jobs() deals job i to shard (i mod k) — a
//     deterministic round-robin that load-balances points across shards —
//     and encode_partial() persists one shard's results as a versioned
//     binary partial (provenance header + per-point shard-local
//     AggregateStats + raw replica results). merge_partials() refuses
//     mismatched provenance, verifies the shards form a DISJOINT COMPLETE
//     cover of the job list, cross-checks every stored aggregate against a
//     refold of its own replicas, and folds the union matrix in trial
//     order — producing a Report byte-identical to the 1-process run.
//
//   * CHECKPOINT/RESUME. run_sweep_shard() can atomically rewrite a
//     checkpoint file (write temp + rename, bin::atomic_write_file) after
//     every completed replica, and — on one-worker drains of
//     exactness-safe replicas — embed an in-flight ReplicaSnapshot
//     (engine state + Rng position + harness progress) captured at probe
//     slice boundaries every `snapshot_every` interactions. Resuming after
//     a SIGKILL re-runs nothing that completed and continues an embedded
//     in-flight replica mid-run; either way the final aggregates are
//     byte-identical to the uninterrupted sweep.
//
//   * TRAJECTORIES. trajectory_records() collects the per-replica
//     delta-encoded count trajectories (ScenarioSpec::traj_every) into
//     store records; util/trajectory.hpp's store codec and ppfs_trajcat
//     merge them across shards post hoc.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/report.hpp"
#include "exp/scenario.hpp"
#include "util/binio.hpp"
#include "util/trajectory.hpp"

namespace ppfs::exp {

// Identity every partial and checkpoint carries. Two files inter-operate
// (merge, resume) only when everything here except shard_index matches:
// the job list and every replica's stream are functions of these fields.
struct SweepProvenance {
  std::string grid;  // grid text (parse_grid form)
  std::size_t trials = 1;
  std::uint64_t seed = 42;
  std::size_t metrics_every = 0;
  std::size_t traj_every = 0;
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;

  friend bool operator==(const SweepProvenance&,
                         const SweepProvenance&) = default;
  // Everything except shard_index equal?
  [[nodiscard]] bool compatible(const SweepProvenance& o) const;
  // The expanded grid points this provenance describes (grid text parsed,
  // trials/seed/cadence overrides re-applied).
  [[nodiscard]] std::vector<ScenarioSpec> expand_points() const;
};

// One (point, trial) cell of a sweep's flattened job list.
struct ReplicaJob {
  std::size_t point = 0;
  std::size_t trial = 0;
};

// The flattened job list: point-major, trial-minor.
[[nodiscard]] std::vector<ReplicaJob> sweep_jobs(
    const std::vector<ScenarioSpec>& points);

// Round-robin slice owned by shard `index` of `count`: jobs whose global
// index is congruent to `index` mod `count`, in job order. Throws on
// index >= count or count == 0.
[[nodiscard]] std::vector<ReplicaJob> shard_jobs(
    const std::vector<ReplicaJob>& jobs, std::size_t index,
    std::size_t count);

// ReplicaResult binary round-trip (field-complete, including flight and
// trajectory payloads).
void save_replica_result(bin::Writer& w, const ReplicaResult& r);
[[nodiscard]] ReplicaResult load_replica_result(bin::Reader& r);

// --- partials ---------------------------------------------------------------

// Serialize one shard's owned results (results[point][trial] filled for
// every job in `owned`) as a partial image.
[[nodiscard]] std::string encode_partial(
    const SweepProvenance& prov, const std::vector<ScenarioSpec>& points,
    const std::vector<std::vector<ReplicaResult>>& results,
    const std::vector<ReplicaJob>& owned);

// Decode just a partial's provenance header (cheap — stops before the
// results payload). The CLI merge path uses it to recover the sweep's
// metrics/trajectory cadences for its own output files.
[[nodiscard]] SweepProvenance partial_provenance(std::string_view image);

// Fold partial images into the full-sweep Report — byte-identical to the
// 1-process run of the same provenance at any thread count. Throws
// std::runtime_error on bad magic/version, mismatched provenance,
// overlapping or incomplete shard covers, or an aggregate that fails its
// refold cross-check.
[[nodiscard]] Report merge_partials(const std::vector<std::string>& images);

// --- checkpoints ------------------------------------------------------------

struct SweepCheckpoint {
  SweepProvenance prov;
  // (global job index, result) for every finished replica, in completion
  // order. Indices refer to sweep_jobs(prov.expand_points()).
  std::vector<std::pair<std::size_t, ReplicaResult>> completed;
  // At most one in-flight replica (one-worker drains only).
  bool has_inflight = false;
  std::size_t inflight_job = 0;
  ReplicaSnapshot inflight{};
};

[[nodiscard]] std::string encode_checkpoint(const SweepCheckpoint& ck);
[[nodiscard]] SweepCheckpoint decode_checkpoint(std::string_view image);

// --- the service ------------------------------------------------------------

struct SweepServiceOptions {
  // Worker threads (0 = std::thread::hardware_concurrency, min 1). A pool
  // of one runs the replicas inline on the caller.
  std::size_t threads = 0;
  // Checkpoint file path; empty disables checkpointing. The file is
  // atomically rewritten after every completed replica; a write that fails
  // stops the drain and run_sweep_shard throws std::runtime_error.
  std::string checkpoint_file;
  // > 0: additionally embed in-flight engine snapshots every this many
  // interactions (exactness-safe replicas on one-worker drains only;
  // ignored otherwise).
  std::size_t snapshot_every = 0;
  // Resume from this checkpoint image (decode_checkpoint result). Null =
  // fresh start.
  const SweepCheckpoint* resume = nullptr;
  // Progress callback, serialized; (done, total) count this shard's jobs.
  std::function<void(std::size_t done, std::size_t total,
                     const ScenarioSpec& spec, std::size_t trial,
                     const ReplicaResult& r)>
      on_replica;
};

struct SweepRun {
  std::vector<ScenarioSpec> points;
  // Full matrix; only this shard's owned slots are meaningful.
  std::vector<std::vector<ReplicaResult>> results;
  std::vector<ReplicaJob> owned;  // this shard's job slice, job order
};

// Execute (or resume) the shard `prov` describes. Throws
// std::invalid_argument on a shard index outside its count, and
// std::runtime_error on a resume checkpoint whose provenance is
// incompatible with `prov` or on the first error a per-replica callback
// (checkpoint write, on_replica) throws — the latter after every worker
// has joined.
[[nodiscard]] SweepRun run_sweep_shard(const SweepProvenance& prov,
                                       const SweepServiceOptions& opt);

// Fold a COMPLETE results matrix (every trial of every point present —
// the shard_count == 1 case) into the standard Report.
[[nodiscard]] Report fold_report(
    const std::vector<ScenarioSpec>& points,
    std::vector<std::vector<ReplicaResult>> results);

// Run every trial of every point on a `threads`-worker pool (0 =
// hardware) and fold the report; rows are in `points` order and the bytes
// do not depend on `threads`.
[[nodiscard]] Report run_points(const std::vector<ScenarioSpec>& points,
                                std::size_t threads = 0);

// Collect the non-empty trajectory blobs of this shard's owned slots into
// store records, (point, trial) order.
[[nodiscard]] std::vector<TrajectoryRecord> trajectory_records(
    const SweepRun& run, std::size_t traj_every);

}  // namespace ppfs::exp
