// Engine checkpoint/restore — the Tier-B half of the sweep service's
// resume contract. A replica interrupted at a probe-slice boundary and
// restored into a FRESH engine (same construction arguments) must finish
// with results byte-identical to the uninterrupted run: same interaction
// count, convergence step, fire/no-op totals and extras. Exercised
// end-to-end through exp::run_replica_resumable for every checkpointable
// engine kind, plus direct checks of the Engine checkpoint surface
// (non-checkpointable native engines refuse loudly).
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "engine/batch/dispatch.hpp"
#include "engine/workload_runner.hpp"
#include "exp/scenario.hpp"
#include "sim/sim_rules.hpp"
#include "util/binio.hpp"

namespace ppfs::exp {
namespace {

// Byte-stable digest of everything a replica reports.
std::string digest(const ReplicaResult& r) {
  std::ostringstream os;
  os << std::hexfloat;
  os << "steps=" << r.run.steps << " conv=" << r.run.converged
     << " om=" << r.run.omissions << " cstep=" << r.convergence_step
     << " fires=" << r.fires << " noops=" << r.noops
     << " ofires=" << r.omissive_fires << " err=" << r.error;
  for (const auto& [k, v] : r.extras) os << ' ' << k << '=' << v;
  return std::move(os).str();
}

// Trial 0 of `spec` with a snapshot captured every `every` interactions;
// the capturing run itself must agree with the uninterrupted one.
std::vector<ReplicaSnapshot> capture(const ScenarioSpec& spec,
                                     const ReplicaResult& whole,
                                     std::size_t every) {
  std::vector<ReplicaSnapshot> snaps;
  const ReplicaResult capturing = run_replica_resumable(
      spec, 0, nullptr,
      [&](const ReplicaSnapshot& s) { snaps.push_back(s); }, every);
  EXPECT_EQ(digest(capturing), digest(whole))
      << spec.to_string() << ": capturing run diverged";
  return snaps;
}

void expect_resumes_from(const ScenarioSpec& spec, const ReplicaResult& whole,
                         const ReplicaSnapshot& snap) {
  const ReplicaResult resumed = run_replica_resumable(spec, 0, &snap, nullptr, 0);
  EXPECT_EQ(digest(resumed), digest(whole))
      << spec.to_string() << ": resumed run diverged (snapshot at "
      << snap.harness_steps << " steps)";
}

// Run trial 0 of `spec` twice: once straight through, once split across a
// mid-run snapshot (capture at the first eligible slice, then restore into
// a fresh replica). Both halves must agree byte-for-byte.
void expect_resume_exact(const ScenarioSpec& spec, std::size_t every = 1) {
  const ReplicaResult whole = run_replica(spec, 0);
  const std::vector<ReplicaSnapshot> snaps = capture(spec, whole, every);
  ASSERT_FALSE(snaps.empty())
      << spec.to_string() << ": no snapshot captured — run too short or "
                             "engine not checkpoint-exact";
  // Resume from an early snapshot AND from the last one: the restore path
  // must be exact wherever the cut lands.
  expect_resumes_from(spec, whole, snaps.front());
  expect_resumes_from(spec, whole, snaps.back());
}

ScenarioSpec base_spec() {
  ScenarioSpec spec;
  spec.workload = "exact-majority";
  spec.n = 512;
  spec.engine = "batch";
  spec.trials = 1;
  spec.seed = 20260808;
  spec.check_every = 256;  // many slices -> many capture opportunities
  return spec;
}

TEST(EngineCheckpoint, BatchEngineResumesExactly) {
  expect_resume_exact(base_spec());
}

TEST(EngineCheckpoint, BatchEngineUnderAdversaryResumesExactly) {
  ScenarioSpec spec = base_spec();
  spec.adversary = "budget:64";
  expect_resume_exact(spec);
}

TEST(EngineCheckpoint, AdaptiveEngineResumesExactly) {
  // engine=auto on a plain workload = AdaptiveBatchEngine (batch + round
  // system + regime monitor) — all three serialize.
  ScenarioSpec spec = base_spec();
  spec.engine = "auto";
  expect_resume_exact(spec);
}

TEST(EngineCheckpoint, SimBatchEngineResumesExactly) {
  // SKnO wrapper in count space: rules checkpoint (token state) rides
  // along with the interned configuration. Capped well short of
  // convergence (~2.3e7 interactions at this n): every 512-interaction
  // slice still captures, and the resume-into-convergence path is covered
  // by the batch, adaptive and auto cells.
  ScenarioSpec spec;
  spec.workload = "exact-majority-gap";
  spec.n = 48;
  spec.engine = "batch";
  spec.sim = "skno:o=2";
  spec.trials = 1;
  spec.seed = 7;
  spec.check_every = 512;
  spec.max_steps = 2'000'000;
  expect_resume_exact(spec);
}

TEST(EngineCheckpoint, AutoSimEngineLockedResumesExactly) {
  // engine=auto + adversary: the engine carries its omission process
  // across switches and arbitrates only on checkpointed state, so
  // its checkpoints are exact from step 0.
  ScenarioSpec spec;
  spec.workload = "exact-majority-gap";
  spec.n = 48;
  spec.engine = "auto";
  spec.sim = "skno:o=2";
  spec.adversary = "budget:8";
  spec.trials = 1;
  spec.seed = 11;
  spec.check_every = 512;
  expect_resume_exact(spec);
}

ScenarioSpec auto_skno_spec() {
  ScenarioSpec spec;
  spec.workload = "exact-majority-gap";
  spec.n = 24;
  spec.engine = "auto";
  spec.sim = "skno:o=2";
  spec.trials = 1;
  spec.seed = 3;
  spec.check_every = 512;
  return spec;
}

// The face an auto simulator engine's payload was saved in: its first
// byte (1 = agent space).
bool saved_in_agent_space(const ReplicaSnapshot& snap) {
  return !snap.engine.empty() && snap.engine[0] == 1;
}

TEST(EngineCheckpoint, AutoSimEngineSwitchingUnderAdversaryResumesExactly) {
  // The run starts in count space and switches to agent space mid-run
  // with its omission process in tow; captures on both sides of the
  // switch resume byte-exactly.
  ScenarioSpec spec = auto_skno_spec();
  spec.adversary = "budget:2";
  const ReplicaResult whole = run_replica(spec, 0);
  const std::vector<ReplicaSnapshot> snaps = capture(spec, whole, 1);
  const auto first_agent =
      std::find_if(snaps.begin(), snaps.end(), saved_in_agent_space);
  ASSERT_NE(first_agent, snaps.begin()) << "no capture before the switch";
  ASSERT_NE(first_agent, snaps.end()) << "no capture after the switch";
  expect_resumes_from(spec, whole, *std::prev(first_agent));
  expect_resumes_from(spec, whole, *first_agent);
  expect_resumes_from(spec, whole, snaps.back());
}

TEST(EngineCheckpoint, AutoSimEngineWithoutAdversaryResumesExactly) {
  // Arbitration reads only checkpointed state, so a run that arbitrates
  // from step 0 captures and resumes exactly.
  expect_resume_exact(auto_skno_spec());
}

TEST(EngineCheckpoint, AutoSimArbitrationIgnoresSourceCaches) {
  // The monitor's cold-fire signal counts fresh interned ids, never cache
  // hits: with the SKnO source's internal caches off and at their default
  // capacity, one seed switches at the same step and every save_state is
  // byte-identical.
  const std::size_t n = 20000;
  const Workload w = find_workload("exact-majority-gap", n);
  SimEngineConfig config;
  config.spec = parse_sim_spec("skno:o=2");
  const auto make = [&](bool cached) {
    std::shared_ptr<DynamicRuleSource> rules =
        make_sim_rule_source(config.spec, Model::I3, w.protocol, n);
    if (!cached)
      dynamic_cast<SknoRuleSource&>(*rules).set_internal_cache_capacity(0);
    return make_sim_engine("auto", std::move(rules), w.initial, config);
  };
  auto cached = make(true);
  auto uncached = make(false);
  UniformScheduler sched(n);
  Rng rng_cached(42);
  Rng rng_uncached(42);
  std::size_t switched_at = 0;
  for (std::size_t done = 0; done < 600000;) {
    done += cached->advance(1u << 16, sched, rng_cached);
    (void)uncached->advance(1u << 16, sched, rng_uncached);
    ASSERT_EQ(cached->active_kind(), uncached->active_kind()) << done;
    bin::Writer a;
    bin::Writer b;
    cached->save_state(a);
    uncached->save_state(b);
    ASSERT_EQ(a.data(), b.data()) << "save_state differs after " << done;
    if (switched_at == 0 && cached->active_kind() == "agent") switched_at = done;
  }
  EXPECT_GT(switched_at, 0u) << "the mid-band rule never fired";
}

TEST(EngineCheckpoint, NativeEngineRefusesCheckpointing) {
  const Workload w = find_workload("or", 64);
  EngineConfig config;
  auto engine = make_engine("native", w.protocol, w.initial, config);
  EXPECT_FALSE(engine->checkpointable());
  bin::Writer wtr;
  EXPECT_THROW(engine->save_state(wtr), std::logic_error);
  bin::Reader rdr(std::string_view{});
  EXPECT_THROW(engine->restore_state(rdr), std::logic_error);
}

TEST(EngineCheckpoint, BatchEngineStateRoundTripsDirectly) {
  // Direct Engine-surface round-trip (no harness): drive A, serialize,
  // restore into fresh B, then drive both with identical Rng streams and
  // compare counts at every slice.
  const Workload w = find_workload("exact-majority", 256);
  EngineConfig config;
  auto a = make_engine("batch", w.protocol, w.initial, config);
  ASSERT_TRUE(a->checkpointable());

  UniformScheduler sched(256);
  Rng rng_a(99);
  const CountsProbe probe = workload_counts_probe(w);
  RunOptions opt;
  opt.max_steps = 3000;
  opt.check_every = 500;
  opt.stable_checks = 1u << 30;  // never "converge": fixed-length segment
  (void)run_engine_until(*a, sched, rng_a, probe, opt);

  bin::Writer snap;
  a->save_state(snap);
  auto b = make_engine("batch", w.protocol, w.initial, config);
  bin::Reader rdr(snap.data());
  b->restore_state(rdr);
  EXPECT_TRUE(rdr.done());
  EXPECT_EQ(a->counts(), b->counts());

  Rng rng_b = rng_a;  // identical continuation streams
  (void)run_engine_until(*a, sched, rng_a, probe, opt);
  (void)run_engine_until(*b, sched, rng_b, probe, opt);
  EXPECT_EQ(a->counts(), b->counts());
  EXPECT_EQ(a->stats().total_fires(), b->stats().total_fires());
  EXPECT_EQ(a->stats().noops(), b->stats().noops());
}

TEST(EngineCheckpoint, IneligibleResumeThrows) {
  // fixed_steps replicas never capture; handing one a snapshot anyway must
  // throw rather than silently run from scratch.
  ScenarioSpec spec = base_spec();
  std::vector<ReplicaSnapshot> snaps;
  (void)run_replica_resumable(
      spec, 0, nullptr, [&](const ReplicaSnapshot& s) { snaps.push_back(s); },
      1);
  ASSERT_FALSE(snaps.empty());
  spec.fixed_steps = 1000;
  EXPECT_THROW(
      (void)run_replica_resumable(spec, 0, &snaps.front(), nullptr, 0),
      std::invalid_argument);
}

}  // namespace
}  // namespace ppfs::exp
