#include "exp/sweep_service.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

namespace ppfs::exp {

namespace {

// File magics: 8 raw bytes so `xxd file | head -1` identifies a partial or
// checkpoint at a glance, followed by a format version varint.
constexpr std::string_view kPartialMagic = "PPFSPAR1";
constexpr std::string_view kCheckpointMagic = "PPFSCKP1";
constexpr std::uint64_t kFormatVersion = 1;

void save_provenance(bin::Writer& w, const SweepProvenance& p) {
  w.str(p.grid);
  w.var(p.trials);
  w.u64(p.seed);
  w.var(p.metrics_every);
  w.var(p.traj_every);
  w.var(p.shard_index);
  w.var(p.shard_count);
}

SweepProvenance load_provenance(bin::Reader& r) {
  SweepProvenance p;
  p.grid = r.str();
  p.trials = r.var();
  p.seed = r.u64();
  p.metrics_every = r.var();
  p.traj_every = r.var();
  p.shard_index = r.var();
  p.shard_count = r.var();
  if (p.shard_count == 0 || p.shard_index >= p.shard_count)
    throw std::runtime_error("sweep file: invalid shard index " +
                             std::to_string(p.shard_index) + "/" +
                             std::to_string(p.shard_count));
  return p;
}

void check_magic(bin::Reader& r, std::string_view magic, const char* what) {
  r.need(magic.size());
  for (const char c : magic)
    if (static_cast<char>(r.u8()) != c)
      throw std::runtime_error(std::string(what) + ": bad magic (not a " +
                               std::string(magic) + " file)");
  const std::uint64_t version = r.var();
  if (version != kFormatVersion)
    throw std::runtime_error(std::string(what) + ": unsupported version " +
                             std::to_string(version));
}

void save_snapshot(bin::Writer& w, const ReplicaSnapshot& s) {
  w.str(s.engine);
  w.u64(s.rng.seed);
  for (const std::uint64_t word : s.rng.state) w.u64(word);
  w.u64(s.rng.draws);
  w.var(s.harness_steps);
  w.var(s.harness_consecutive);
}

ReplicaSnapshot load_snapshot(bin::Reader& r) {
  ReplicaSnapshot s;
  s.engine = r.str();
  s.rng.seed = r.u64();
  for (std::uint64_t& word : s.rng.state) word = r.u64();
  s.rng.draws = r.u64();
  s.harness_steps = r.var();
  s.harness_consecutive = r.var();
  return s;
}

// One shard's decoded partial: (point index, stored shard-local aggregate,
// (trial, result) list in stored order) per point that had owned jobs.
struct PartialPoint {
  std::size_t point = 0;
  AggregateStats aggregate;
  std::vector<std::pair<std::size_t, ReplicaResult>> replicas;
};

struct PartialImage {
  SweepProvenance prov;
  std::vector<PartialPoint> points;
};

PartialImage decode_partial(std::string_view image) {
  bin::Reader r(image);
  check_magic(r, kPartialMagic, "sweep partial");
  PartialImage out;
  out.prov = load_provenance(r);
  const std::uint64_t npoints = r.var();
  out.points.resize(npoints);
  for (PartialPoint& pp : out.points) {
    pp.point = r.var();
    pp.aggregate.restore_state(r);
    const std::uint64_t nrep = r.var();
    pp.replicas.resize(nrep);
    for (auto& [trial, res] : pp.replicas) {
      trial = r.var();
      res = load_replica_result(r);
    }
  }
  if (!r.done())
    throw std::runtime_error("sweep partial: trailing bytes after payload");
  return out;
}

std::size_t resolved_threads(std::size_t threads) {
  if (threads != 0) return threads;
  const std::size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

// An empty results matrix: one default slot per (point, trial).
std::vector<std::vector<ReplicaResult>> empty_results(
    const std::vector<ScenarioSpec>& points) {
  std::vector<std::vector<ReplicaResult>> results(points.size());
  for (std::size_t p = 0; p < points.size(); ++p)
    results[p].resize(std::max<std::size_t>(1, points[p].trials));
  return results;
}

// How job i of a drain starts: from a captured in-flight snapshot, and/or
// capturing new ones (Tier B). Only one-worker drains ask.
struct ReplicaStart {
  const ReplicaSnapshot* resume = nullptr;
  SnapshotHook on_snapshot;
  std::size_t snapshot_every = 0;
};

// The one replica drain. min(threads, jobs) workers take job indices off
// one atomic cursor; each replica runs under one try/catch, so a replica
// that throws lands as a failed result in results[point][trial]. done(i),
// if set, runs after job i, one call at a time under a mutex. The first
// exception done() throws stops the pool from starting new jobs (and from
// calling done() again) and is rethrown once every worker has joined. On a
// one-worker pool (replicas run inline on the caller) start(i), if set,
// picks job i's Tier B snapshot hooks.
void drain(const std::vector<ScenarioSpec>& points,
           const std::vector<ReplicaJob>& jobs, std::size_t threads,
           std::vector<std::vector<ReplicaResult>>& results,
           const std::function<void(std::size_t)>& done,
           const std::function<ReplicaStart(std::size_t)>& start = {}) {
  const std::size_t workers = std::min(
      resolved_threads(threads), std::max<std::size_t>(1, jobs.size()));
  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop{false};
  std::mutex mutex;
  std::exception_ptr error;

  const auto worker = [&] {
    for (std::size_t i = 0;
         !stop.load(std::memory_order_relaxed) &&
         (i = next.fetch_add(1, std::memory_order_relaxed)) < jobs.size();) {
      const ReplicaJob job = jobs[i];
      const ReplicaStart how =
          workers == 1 && start ? start(i) : ReplicaStart{};
      ReplicaResult& slot = results[job.point][job.trial];
      try {
        slot = run_replica_resumable(points[job.point], job.trial, how.resume,
                                     how.on_snapshot, how.snapshot_every);
      } catch (const std::exception& e) {
        slot = ReplicaResult{};
        slot.error = e.what();
      } catch (...) {
        slot = ReplicaResult{};
        slot.error = "unknown error";
      }
      if (!done) continue;
      const std::lock_guard<std::mutex> lock(mutex);
      if (error) return;
      try {
        done(i);
      } catch (...) {
        error = std::current_exception();
        stop.store(true, std::memory_order_relaxed);
      }
    }
  };

  if (workers == 1) {
    worker();
  } else {
    // jthreads join on scope exit, also when starting a later one throws.
    std::vector<std::jthread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace

bool SweepProvenance::compatible(const SweepProvenance& o) const {
  return grid == o.grid && trials == o.trials && seed == o.seed &&
         metrics_every == o.metrics_every && traj_every == o.traj_every &&
         shard_count == o.shard_count;
}

std::vector<ScenarioSpec> SweepProvenance::expand_points() const {
  ScenarioGrid g = parse_grid(grid);
  // The stored values are post-override (the CLI applies --trials/--seed
  // AFTER parsing the grid text), so re-applying reproduces the original
  // sweep whether the value came from the grid or a flag.
  g.trials = trials;
  g.seed = seed;
  g.metrics_every = metrics_every;
  g.traj_every = traj_every;
  return g.expand();
}

std::vector<ReplicaJob> sweep_jobs(const std::vector<ScenarioSpec>& points) {
  std::vector<ReplicaJob> jobs;
  for (std::size_t p = 0; p < points.size(); ++p) {
    const std::size_t trials = std::max<std::size_t>(1, points[p].trials);
    for (std::size_t t = 0; t < trials; ++t) jobs.push_back({p, t});
  }
  return jobs;
}

std::vector<ReplicaJob> shard_jobs(const std::vector<ReplicaJob>& jobs,
                                   std::size_t index, std::size_t count) {
  if (count == 0 || index >= count)
    throw std::invalid_argument("shard_jobs: index " + std::to_string(index) +
                                " out of range for " + std::to_string(count) +
                                " shards");
  std::vector<ReplicaJob> owned;
  for (std::size_t g = index; g < jobs.size(); g += count)
    owned.push_back(jobs[g]);
  return owned;
}

void save_replica_result(bin::Writer& w, const ReplicaResult& r) {
  w.var(r.run.steps);
  w.u8(r.run.converged ? 1 : 0);
  w.var(r.run.omissions);
  w.var(r.convergence_step);
  w.var(r.fires);
  w.var(r.noops);
  w.var(r.omissive_fires);
  w.var(r.extras.size());
  for (const auto& [key, value] : r.extras) {
    w.str(key);
    w.f64(value);
  }
  w.str(r.flight);
  w.str(r.traj);
  w.str(r.error);
}

ReplicaResult load_replica_result(bin::Reader& r) {
  ReplicaResult out;
  out.run.steps = r.var();
  out.run.converged = r.u8() != 0;
  out.run.omissions = r.var();
  out.convergence_step = r.var();
  out.fires = r.var();
  out.noops = r.var();
  out.omissive_fires = r.var();
  const std::uint64_t nextras = r.var();
  for (std::uint64_t i = 0; i < nextras; ++i) {
    std::string key = r.str();
    out.extras[std::move(key)] = r.f64();
  }
  out.flight = r.str();
  out.traj = r.str();
  out.error = r.str();
  return out;
}

std::string encode_partial(const SweepProvenance& prov,
                           const std::vector<ScenarioSpec>& points,
                           const std::vector<std::vector<ReplicaResult>>& results,
                           const std::vector<ReplicaJob>& owned) {
  // Group the owned jobs by point. The owned list is point-major (it is a
  // subsequence of the global job list), so one forward pass suffices.
  std::vector<PartialPoint> blocks;
  for (const ReplicaJob& job : owned) {
    if (job.point >= points.size() || job.trial >= results[job.point].size())
      throw std::invalid_argument("encode_partial: job outside results matrix");
    if (blocks.empty() || blocks.back().point != job.point) {
      blocks.push_back({});
      blocks.back().point = job.point;
    }
    const ReplicaResult& res = results[job.point][job.trial];
    blocks.back().aggregate.add(res);
    blocks.back().replicas.emplace_back(job.trial, res);
  }

  bin::Writer w;
  w.raw(kPartialMagic);
  w.var(kFormatVersion);
  save_provenance(w, prov);
  w.var(blocks.size());
  for (const PartialPoint& pp : blocks) {
    w.var(pp.point);
    pp.aggregate.save_state(w);
    w.var(pp.replicas.size());
    for (const auto& [trial, res] : pp.replicas) {
      w.var(trial);
      save_replica_result(w, res);
    }
  }
  return w.data();
}

SweepProvenance partial_provenance(std::string_view image) {
  bin::Reader r(image);
  check_magic(r, kPartialMagic, "sweep partial");
  return load_provenance(r);
}

Report merge_partials(const std::vector<std::string>& images) {
  if (images.empty())
    throw std::invalid_argument("merge_partials: no partials given");

  std::vector<PartialImage> partials;
  partials.reserve(images.size());
  for (const std::string& image : images)
    partials.push_back(decode_partial(image));

  // Provenance agreement + a disjoint complete shard cover: exactly the
  // shard_count distinct indices 0..k-1, each appearing once.
  const SweepProvenance& ref = partials.front().prov;
  if (partials.size() != ref.shard_count)
    throw std::runtime_error(
        "merge_partials: got " + std::to_string(partials.size()) +
        " partials for a " + std::to_string(ref.shard_count) + "-shard sweep");
  std::vector<char> shard_seen(ref.shard_count, 0);
  for (const PartialImage& pi : partials) {
    if (!pi.prov.compatible(ref))
      throw std::runtime_error(
          "merge_partials: partials come from different sweeps (provenance "
          "mismatch)");
    if (shard_seen[pi.prov.shard_index])
      throw std::runtime_error("merge_partials: duplicate shard " +
                               std::to_string(pi.prov.shard_index));
    shard_seen[pi.prov.shard_index] = 1;
  }

  std::vector<ScenarioSpec> points = ref.expand_points();
  std::vector<std::vector<ReplicaResult>> results = empty_results(points);
  std::vector<std::vector<char>> filled(points.size());
  std::size_t total = 0;
  for (std::size_t p = 0; p < points.size(); ++p) {
    filled[p].assign(results[p].size(), 0);
    total += results[p].size();
  }

  std::size_t placed = 0;
  for (const PartialImage& pi : partials) {
    for (const PartialPoint& pp : pi.points) {
      if (pp.point >= points.size())
        throw std::runtime_error("merge_partials: point index out of range");
      // Integrity cross-check: the stored shard-local aggregate must equal
      // a refold of the shard's own replicas — catches any codec drift or
      // torn write that slipped past the length checks.
      AggregateStats refold;
      for (const auto& [trial, res] : pp.replicas) {
        if (trial >= results[pp.point].size())
          throw std::runtime_error("merge_partials: trial index out of range");
        if (filled[pp.point][trial])
          throw std::runtime_error(
              "merge_partials: shards overlap at point " +
              std::to_string(pp.point) + " trial " + std::to_string(trial));
        refold.add(res);
        results[pp.point][trial] = res;
        filled[pp.point][trial] = 1;
        ++placed;
      }
      if (!(refold == pp.aggregate))
        throw std::runtime_error(
            "merge_partials: stored aggregate does not match its replicas "
            "(corrupt partial, point " + std::to_string(pp.point) + ")");
    }
  }
  if (placed != total)
    throw std::runtime_error(
        "merge_partials: incomplete cover — " + std::to_string(placed) +
        " of " + std::to_string(total) + " replicas present");

  return fold_report(points, std::move(results));
}

std::string encode_checkpoint(const SweepCheckpoint& ck) {
  bin::Writer w;
  w.raw(kCheckpointMagic);
  w.var(kFormatVersion);
  save_provenance(w, ck.prov);
  w.var(ck.completed.size());
  for (const auto& [job, res] : ck.completed) {
    w.var(job);
    save_replica_result(w, res);
  }
  w.u8(ck.has_inflight ? 1 : 0);
  if (ck.has_inflight) {
    w.var(ck.inflight_job);
    save_snapshot(w, ck.inflight);
  }
  return w.data();
}

SweepCheckpoint decode_checkpoint(std::string_view image) {
  bin::Reader r(image);
  check_magic(r, kCheckpointMagic, "sweep checkpoint");
  SweepCheckpoint ck;
  ck.prov = load_provenance(r);
  const std::uint64_t ncompleted = r.var();
  ck.completed.resize(ncompleted);
  for (auto& [job, res] : ck.completed) {
    job = r.var();
    res = load_replica_result(r);
  }
  ck.has_inflight = r.u8() != 0;
  if (ck.has_inflight) {
    ck.inflight_job = r.var();
    ck.inflight = load_snapshot(r);
  }
  if (!r.done())
    throw std::runtime_error("sweep checkpoint: trailing bytes after payload");
  return ck;
}

SweepRun run_sweep_shard(const SweepProvenance& prov,
                         const SweepServiceOptions& opt) {
  SweepRun run;
  run.points = prov.expand_points();
  const std::vector<ReplicaJob> all = sweep_jobs(run.points);
  run.owned = shard_jobs(all, prov.shard_index, prov.shard_count);
  run.results = empty_results(run.points);

  // The live checkpoint this drain maintains; rewritten atomically after
  // every completed replica (and at every in-flight capture). It records
  // global job indices, so a resumed process can validate ownership.
  SweepCheckpoint ck;
  ck.prov = prov;
  std::vector<char> done(all.size(), 0);

  if (opt.resume != nullptr) {
    if (!opt.resume->prov.compatible(prov) ||
        opt.resume->prov.shard_index != prov.shard_index)
      throw std::runtime_error(
          "sweep resume: checkpoint provenance does not match this sweep");
    for (const auto& [job, res] : opt.resume->completed) {
      if (job >= all.size() || job % prov.shard_count != prov.shard_index)
        throw std::runtime_error(
            "sweep resume: checkpoint lists job " + std::to_string(job) +
            " outside this shard");
      if (done[job])
        throw std::runtime_error("sweep resume: duplicate completed job " +
                                 std::to_string(job));
      done[job] = 1;
      run.results[all[job].point][all[job].trial] = res;
      ck.completed.emplace_back(job, res);
    }
  }

  // Owned job k is global job shard_index + k * shard_count (shard_jobs'
  // round-robin); the drain runs the ones not done yet.
  std::vector<ReplicaJob> pending;
  std::vector<std::size_t> pending_global;
  for (std::size_t k = 0; k < run.owned.size(); ++k) {
    const std::size_t g = prov.shard_index + k * prov.shard_count;
    if (done[g]) continue;
    pending.push_back(run.owned[k]);
    pending_global.push_back(g);
  }

  // strict = throw on a failed write (the completion-time writes; losing
  // them silently would defeat the resume contract). The mid-replica
  // snapshot writes are best-effort: a transient failure there must not
  // surface as a thrown — hence "failed" — replica, and any persistent
  // failure still stops the drain at the next completion write.
  const auto write_checkpoint = [&](bool strict) {
    if (opt.checkpoint_file.empty()) return;
    if (!bin::atomic_write_file(opt.checkpoint_file, encode_checkpoint(ck)) &&
        strict)
      throw std::runtime_error("sweep checkpoint: cannot write " +
                               opt.checkpoint_file);
  };

  // A finished replica invalidates any in-flight snapshot (it was for the
  // job that just finished, or stale from a resume).
  const auto record_done = [&](std::size_t i) {
    const ReplicaJob job = pending[i];
    const ReplicaResult& res = run.results[job.point][job.trial];
    ck.completed.emplace_back(pending_global[i], res);
    ck.has_inflight = false;
    ck.inflight = ReplicaSnapshot{};
    write_checkpoint(/*strict=*/true);
    if (opt.on_replica)
      opt.on_replica(ck.completed.size(), run.owned.size(),
                     run.points[job.point], job.trial, res);
  };

  // Tier B, asked for only by one-worker drains, whose jobs run inline in
  // owned order: an embedded in-flight snapshot resumes its replica
  // mid-run, and captures land at probe-slice boundaries. A larger pool
  // re-runs a resumed in-flight job from scratch — a replica is a pure
  // function of (spec, trial), so only one replica's wall-clock is lost.
  const bool capture = !opt.checkpoint_file.empty() && opt.snapshot_every > 0;
  const auto start = [&](std::size_t i) {
    const std::size_t g = pending_global[i];
    ReplicaStart how;
    if (opt.resume != nullptr && opt.resume->has_inflight &&
        opt.resume->inflight_job == g)
      how.resume = &opt.resume->inflight;
    if (capture) {
      how.on_snapshot = [&, g](const ReplicaSnapshot& snap) {
        ck.has_inflight = true;
        ck.inflight_job = g;
        ck.inflight = snap;
        write_checkpoint(/*strict=*/false);
      };
      how.snapshot_every = opt.snapshot_every;
    }
    return how;
  };

  drain(run.points, pending, opt.threads, run.results, record_done, start);
  return run;
}

Report run_points(const std::vector<ScenarioSpec>& points,
                  std::size_t threads) {
  std::vector<std::vector<ReplicaResult>> results = empty_results(points);
  drain(points, sweep_jobs(points), threads, results, {});
  return fold_report(points, std::move(results));
}

// Fold in trial order — fixed by construction, never by scheduling, which
// is what keeps aggregates byte-identical across thread counts.
Report fold_report(const std::vector<ScenarioSpec>& points,
                   std::vector<std::vector<ReplicaResult>> results) {
  Report report;
  for (std::size_t p = 0; p < points.size(); ++p) {
    AggregateStats agg;
    for (const ReplicaResult& r : results[p]) agg.add(r);
    report.add(points[p], std::move(agg), std::move(results[p]));
  }
  return report;
}

std::vector<TrajectoryRecord> trajectory_records(const SweepRun& run,
                                                 std::size_t traj_every) {
  std::vector<TrajectoryRecord> records;
  for (const ReplicaJob& job : run.owned) {
    const ReplicaResult& res = run.results[job.point][job.trial];
    if (res.traj.empty()) continue;
    TrajectoryRecord rec;
    rec.point = job.point;
    rec.point_key = run.points[job.point].point_key();
    rec.trial = job.trial;
    rec.every = traj_every;
    rec.blob = res.traj;
    records.push_back(std::move(rec));
  }
  return records;
}

}  // namespace ppfs::exp
