// Sweep service contracts (exp/sweep_service.hpp):
//   * shard_jobs is a disjoint complete round-robin cover of the job list;
//   * a k-shard run + merge_partials is BYTE-identical to the 1-process
//     run, at any thread count and any merge order;
//   * checkpoints resume a killed sweep — Tier A (completed replicas) and
//     Tier B (in-flight engine snapshot) — to byte-identical output;
//   * the binary codecs (ReplicaResult, partials, checkpoints) round-trip
//     and refuse corrupt or mismatched input;
//   * bin::atomic_write_file lands whole files under concurrent writers.
#include "exp/sweep_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace ppfs::exp {
namespace {

constexpr const char* kGrid =
    "or,exact-majority@n=64,128:engine=batch:adv=budget:20:checkevery=512";

SweepProvenance prov_for(std::size_t index, std::size_t count) {
  SweepProvenance p;
  p.grid = kGrid;
  p.trials = 5;
  p.seed = 20260808;
  p.shard_index = index;
  p.shard_count = count;
  return p;
}

std::string report_bytes(const Report& report) {
  std::ostringstream os;
  report.write_json(os);
  return std::move(os).str() + "|" + report.fingerprint();
}

// The reference: the whole sweep in one process.
std::string reference_bytes(std::size_t threads) {
  SweepServiceOptions opt;
  opt.threads = threads;
  SweepRun run = run_sweep_shard(prov_for(0, 1), opt);
  return report_bytes(fold_report(run.points, std::move(run.results)));
}

TEST(SweepShard, RoundRobinIsDisjointCompleteCover) {
  const std::vector<ScenarioSpec> points = prov_for(0, 1).expand_points();
  const std::vector<ReplicaJob> jobs = sweep_jobs(points);
  ASSERT_EQ(jobs.size(), points.size() * 5);

  for (const std::size_t k : {1u, 2u, 3u, 5u, 7u}) {
    std::set<std::pair<std::size_t, std::size_t>> seen;
    std::size_t total = 0;
    for (std::size_t i = 0; i < k; ++i) {
      for (const ReplicaJob& job : shard_jobs(jobs, i, k)) {
        EXPECT_TRUE(seen.insert({job.point, job.trial}).second)
            << "shards overlap at k=" << k;
        ++total;
      }
    }
    EXPECT_EQ(total, jobs.size()) << "cover incomplete at k=" << k;
  }
  EXPECT_THROW((void)shard_jobs(jobs, 3, 3), std::invalid_argument);
  EXPECT_THROW((void)shard_jobs(jobs, 0, 0), std::invalid_argument);
}

TEST(SweepShard, MergeIsByteIdenticalToOneProcessRun) {
  const std::string reference = reference_bytes(1);
  // Also pin thread-count stability of the reference itself.
  EXPECT_EQ(reference, reference_bytes(3));

  std::vector<std::string> partials;
  for (std::size_t i = 0; i < 3; ++i) {
    SweepServiceOptions opt;
    opt.threads = 2;
    const SweepRun run = run_sweep_shard(prov_for(i, 3), opt);
    partials.push_back(
        encode_partial(prov_for(i, 3), run.points, run.results, run.owned));
  }

  EXPECT_EQ(report_bytes(merge_partials(partials)), reference);

  // Merge order insensitivity: rotated input, same bytes.
  const std::vector<std::string> rotated = {partials[2], partials[0],
                                            partials[1]};
  EXPECT_EQ(report_bytes(merge_partials(rotated)), reference);
}

TEST(SweepShard, PartialBytesAreThreadCountStable) {
  std::vector<std::string> images;
  for (const std::size_t threads : {1u, 4u}) {
    SweepServiceOptions opt;
    opt.threads = threads;
    const SweepRun run = run_sweep_shard(prov_for(1, 3), opt);
    images.push_back(
        encode_partial(prov_for(1, 3), run.points, run.results, run.owned));
  }
  EXPECT_EQ(images[0], images[1]);
}

TEST(SweepShard, MergeRefusesBadCovers) {
  std::vector<std::string> partials;
  for (std::size_t i = 0; i < 2; ++i) {
    const SweepRun run = run_sweep_shard(prov_for(i, 2), {});
    partials.push_back(
        encode_partial(prov_for(i, 2), run.points, run.results, run.owned));
  }

  // Missing shard.
  EXPECT_THROW((void)merge_partials({partials[0]}), std::runtime_error);
  // Duplicate shard.
  EXPECT_THROW((void)merge_partials({partials[0], partials[0]}),
               std::runtime_error);
  // Provenance mismatch: same shape, different seed.
  SweepProvenance other = prov_for(1, 2);
  other.seed = 1;
  const SweepRun run = run_sweep_shard(other, {});
  const std::string foreign =
      encode_partial(other, run.points, run.results, run.owned);
  EXPECT_THROW((void)merge_partials({partials[0], foreign}),
               std::runtime_error);
  // Corrupt image.
  EXPECT_THROW((void)merge_partials({partials[0], "PPFSPARx"}),
               std::runtime_error);
  EXPECT_THROW(
      (void)merge_partials(
          {partials[0], partials[1].substr(0, partials[1].size() - 3)}),
      std::runtime_error);
}

TEST(SweepShard, ReplicaResultCodecRoundTrips) {
  ReplicaResult r;
  r.run.steps = 123456789;
  r.run.converged = true;
  r.run.omissions = 17;
  r.convergence_step = 123000000;
  r.fires = 42;
  r.noops = 9001;
  r.omissive_fires = 3;
  r.extras = {{"m.cache_hits", 0.125}, {"sim_pairs", 88.0}};
  r.flight = "{\"snap\":1}\n";
  r.traj = std::string("\x01\x02\x00\xff", 4);
  r.error = "";

  bin::Writer w;
  save_replica_result(w, r);
  bin::Reader rd(w.data());
  const ReplicaResult back = load_replica_result(rd);
  EXPECT_TRUE(rd.done());
  EXPECT_EQ(back.run.steps, r.run.steps);
  EXPECT_EQ(back.run.converged, r.run.converged);
  EXPECT_EQ(back.run.omissions, r.run.omissions);
  EXPECT_EQ(back.convergence_step, r.convergence_step);
  EXPECT_EQ(back.fires, r.fires);
  EXPECT_EQ(back.noops, r.noops);
  EXPECT_EQ(back.omissive_fires, r.omissive_fires);
  EXPECT_EQ(back.extras, r.extras);
  EXPECT_EQ(back.flight, r.flight);
  EXPECT_EQ(back.traj, r.traj);
  EXPECT_EQ(back.error, r.error);

  // The never-converged sentinel (SIZE_MAX) survives the varint.
  ReplicaResult nc;
  bin::Writer w2;
  save_replica_result(w2, nc);
  bin::Reader rd2(w2.data());
  EXPECT_EQ(load_replica_result(rd2).convergence_step, nc.convergence_step);
}

TEST(SweepShard, CheckpointCodecRoundTrips) {
  SweepCheckpoint ck;
  ck.prov = prov_for(0, 2);
  ReplicaResult r;
  r.run.steps = 77;
  ck.completed = {{0, r}, {2, ReplicaResult{}}};
  ck.has_inflight = true;
  ck.inflight_job = 4;
  ck.inflight.engine = std::string("\x00\x01binary", 8);
  ck.inflight.rng = {9, {1, 2, 3, 4}, 55};
  ck.inflight.harness_steps = 1024;
  ck.inflight.harness_consecutive = 2;

  const SweepCheckpoint back = decode_checkpoint(encode_checkpoint(ck));
  EXPECT_EQ(back.prov, ck.prov);
  ASSERT_EQ(back.completed.size(), 2u);
  EXPECT_EQ(back.completed[0].first, 0u);
  EXPECT_EQ(back.completed[0].second.run.steps, 77u);
  EXPECT_EQ(back.completed[1].first, 2u);
  EXPECT_TRUE(back.has_inflight);
  EXPECT_EQ(back.inflight_job, 4u);
  EXPECT_EQ(back.inflight.engine, ck.inflight.engine);
  EXPECT_EQ(back.inflight.rng.seed, 9u);
  EXPECT_EQ(back.inflight.rng.draws, 55u);
  EXPECT_EQ(back.inflight.harness_steps, 1024u);

  EXPECT_THROW((void)decode_checkpoint("PPFSCKP1garbage"),
               std::runtime_error);
  EXPECT_THROW((void)decode_checkpoint("NOTACKPT"), std::runtime_error);
}

TEST(SweepShard, TierAResumeIsByteIdentical) {
  const std::string reference = reference_bytes(2);
  const char* ck_file = "sweep_shard_test_tier_a.ck";

  // Run the full sweep once with checkpointing; the final checkpoint lists
  // every job completed.
  {
    SweepServiceOptions opt;
    opt.threads = 2;
    opt.checkpoint_file = ck_file;
    (void)run_sweep_shard(prov_for(0, 1), opt);
  }
  SweepCheckpoint full = decode_checkpoint(bin::read_file(ck_file));
  std::remove(ck_file);
  const std::size_t all = full.completed.size();
  ASSERT_GT(all, 4u);

  // "Kill" the sweep at various points: truncate the completed list to a
  // prefix — exactly the state an atomically-rewritten checkpoint file
  // holds after SIGKILL — and resume, multi- and single-threaded.
  for (const std::size_t keep : {std::size_t{0}, all / 3, all - 1}) {
    SweepCheckpoint partial = full;
    partial.completed.resize(keep);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      SweepServiceOptions opt;
      opt.threads = threads;
      opt.resume = &partial;
      SweepRun run = run_sweep_shard(prov_for(0, 1), opt);
      EXPECT_EQ(report_bytes(fold_report(run.points, std::move(run.results))),
                reference)
          << "resume diverged at keep=" << keep << " threads=" << threads;
    }
  }

  // A checkpoint from a different sweep must be refused.
  SweepCheckpoint foreign = full;
  foreign.prov.seed = 1;
  SweepServiceOptions opt;
  opt.resume = &foreign;
  EXPECT_THROW((void)run_sweep_shard(prov_for(0, 1), opt),
               std::runtime_error);
}

TEST(SweepShard, TierBInflightResumeIsByteIdentical) {
  const std::string reference = reference_bytes(1);
  const std::vector<ScenarioSpec> points = prov_for(0, 1).expand_points();

  // Capture an in-flight snapshot of global job 0 (point 0, trial 0).
  std::vector<ReplicaSnapshot> snaps;
  (void)run_replica_resumable(
      points[0], 0, nullptr,
      [&](const ReplicaSnapshot& s) { snaps.push_back(s); },
      /*snapshot_every=*/1);
  ASSERT_FALSE(snaps.empty());

  SweepCheckpoint ck;
  ck.prov = prov_for(0, 1);
  ck.has_inflight = true;
  ck.inflight_job = 0;
  ck.inflight = snaps.front();

  // threads=1 resumes the replica mid-run; threads=2 discards the snapshot
  // and re-runs job 0 from scratch. Both are byte-identical to the
  // uninterrupted sweep.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    SweepServiceOptions opt;
    opt.threads = threads;
    opt.resume = &ck;
    SweepRun run = run_sweep_shard(ck.prov, opt);
    EXPECT_EQ(report_bytes(fold_report(run.points, std::move(run.results))),
              reference)
        << "in-flight resume diverged at threads=" << threads;
  }
}

TEST(SweepShard, CheckpointFileIsMaintainedDuringTheDrain) {
  const char* ck_file = "sweep_shard_test_drain.ck";
  std::size_t calls = 0;
  SweepServiceOptions opt;
  opt.threads = 1;
  opt.checkpoint_file = ck_file;
  opt.on_replica = [&](std::size_t done, std::size_t total,
                       const ScenarioSpec&, std::size_t,
                       const ReplicaResult&) {
    ++calls;
    EXPECT_EQ(done, calls);
    EXPECT_EQ(total, 20u);  // 4 points x 5 trials
    // After every completed replica the on-disk checkpoint lists exactly
    // the replicas completed so far.
    const SweepCheckpoint ck = decode_checkpoint(bin::read_file(ck_file));
    EXPECT_EQ(ck.completed.size(), done);
  };
  (void)run_sweep_shard(prov_for(0, 1), opt);
  EXPECT_EQ(calls, 20u);
  std::remove(ck_file);
}

TEST(AtomicWriteFile, ConcurrentWritersNeitherTearNorLeaveTempFiles) {
  // Two writers of one path: each call must land a whole payload (the
  // file only ever holds one of the two) and clean up its own temp file,
  // however the writes interleave.
  const std::string path = "sweep_shard_test_atomic.bin";
  const std::string payloads[2] = {std::string(1u << 18, 'a'),
                                   std::string((1u << 18) + 7, 'b')};
  std::atomic<std::size_t> failed_writes{0};
  std::atomic<std::size_t> torn_reads{0};
  const auto writer = [&](const std::string& mine) {
    for (int i = 0; i < 100; ++i) {
      if (!bin::atomic_write_file(path, mine)) ++failed_writes;
      const std::string seen = bin::read_file(path);
      if (seen != payloads[0] && seen != payloads[1]) ++torn_reads;
    }
  };
  std::thread a(writer, std::cref(payloads[0]));
  std::thread b(writer, std::cref(payloads[1]));
  a.join();
  b.join();
  EXPECT_EQ(failed_writes.load(), 0u);
  EXPECT_EQ(torn_reads.load(), 0u);
  std::size_t debris = 0;
  for (const auto& entry : std::filesystem::directory_iterator("."))
    if (entry.path().filename().string().rfind(path + ".tmp", 0) == 0)
      ++debris;
  EXPECT_EQ(debris, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ppfs::exp
