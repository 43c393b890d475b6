// Determinism under parallelism: the acceptance property of the
// experiment layer. The same grid + seed must produce byte-identical
// aggregate reports AND identical per-replica results no matter how many
// threads the pool runs — replica RNG streams are keyed per (point,
// trial), results land in preallocated slots, and aggregation folds in
// trial order.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "exp/sweep_service.hpp"

namespace ppfs::exp {
namespace {

// A two-axis grid (workload x n) with an adversary thrown in so omission
// accounting participates in the comparison; trials = 32 satisfies the
// "--trials >= 32 in parallel" acceptance bar.
ScenarioGrid acceptance_grid() {
  ScenarioGrid g;
  g.workloads = {"or", "exact-majority"};
  g.sizes = {64, 128};
  g.adversaries = {"budget:20"};
  g.engines = {"batch"};
  g.trials = 32;
  g.seed = 20260731;
  g.check_every = 512;
  return g;
}

[[nodiscard]] std::string replica_digest(const Report& report) {
  std::ostringstream out;
  out << std::hexfloat;
  for (const ReportRow& row : report.rows()) {
    out << row.spec.to_string() << '\n';
    for (const ReplicaResult& r : row.replicas) {
      out << "  steps=" << r.run.steps << " conv=" << r.run.converged
          << " om=" << r.run.omissions << " cstep=" << r.convergence_step
          << " fires=" << r.fires << " noops=" << r.noops
          << " ofires=" << r.omissive_fires << " err=" << r.error;
      for (const auto& [key, value] : r.extras)
        out << ' ' << key << '=' << value;
      out << '\n';
    }
  }
  return out.str();
}

[[nodiscard]] Report run_with_threads(const ScenarioGrid& grid,
                                      std::size_t threads) {
  return run_points(grid.expand(), threads);
}

TEST(ExpDeterminism, AggregatesAndReplicasBitIdenticalAcrossThreadCounts) {
  const ScenarioGrid grid = acceptance_grid();
  const Report t1 = run_with_threads(grid, 1);
  ASSERT_EQ(t1.rows().size(), 4u);
  for (const ReportRow& row : t1.rows()) {
    EXPECT_EQ(row.aggregate.trials(), 32u);
    EXPECT_EQ(row.aggregate.failed(), 0u) << row.spec.to_string();
  }

  const Report t2 = run_with_threads(grid, 2);
  EXPECT_EQ(t1.fingerprint(), t2.fingerprint());
  EXPECT_EQ(replica_digest(t1), replica_digest(t2));

  std::size_t hw = std::thread::hardware_concurrency();
  if (hw < 2) hw = 4;  // still exercise a multi-thread pool on 1-core boxes
  const Report thw = run_with_threads(grid, hw);
  EXPECT_EQ(t1.fingerprint(), thw.fingerprint());
  EXPECT_EQ(replica_digest(t1), replica_digest(thw));

  // The rendered artifacts are identical too (what the CLI emits).
  std::ostringstream json1, jsonhw, csv1, csvhw;
  t1.write_json(json1);
  thw.write_json(jsonhw);
  t1.write_csv(csv1);
  thw.write_csv(csvhw);
  EXPECT_EQ(json1.str(), jsonhw.str());
  EXPECT_EQ(csv1.str(), csvhw.str());
}

TEST(ExpDeterminism, NativeSimulatorReplicasAreThreadCountInvariant) {
  // The step-wise facade path (matching verification on) through the same
  // pool: extras (sim_pairs / matching_ok / overhead) must agree as well.
  ScenarioGrid g;
  g.workloads = {"or"};
  g.sizes = {8};
  g.models = {"I3"};
  g.adversaries = {"budget:2:0.05"};
  g.sims = {"skno:o=2"};
  g.engines = {"native"};
  g.verify_matching = true;
  g.max_steps = 500'000;
  g.trials = 8;
  g.seed = 42;
  const Report a = run_with_threads(g, 1);
  const Report b = run_with_threads(g, 3);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(replica_digest(a), replica_digest(b));
  for (const ReportRow& row : a.rows())
    EXPECT_EQ(row.aggregate.extras().at("matching_ok").mean(), 1.0);
}

TEST(ExpDeterminism, SeedChangesTheWholeSweep) {
  ScenarioGrid g;
  g.workloads = {"exact-majority"};
  g.sizes = {100};
  g.engines = {"batch"};
  g.trials = 8;
  g.check_every = 256;
  g.seed = 1;
  const Report a = run_with_threads(g, 2);
  g.seed = 2;
  const Report b = run_with_threads(g, 2);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(ExpDeterminism, FailuresAreRecordedPerReplica) {
  ScenarioSpec bad;
  bad.workload = "no-such-workload";
  bad.n = 16;
  bad.engine = "batch";
  bad.trials = 16;
  const Report report = run_points({bad});
  const ReportRow& row = report.rows().front();
  EXPECT_EQ(row.aggregate.failed(), 16u);
  EXPECT_EQ(row.aggregate.completed(), 0u);
  for (const ReplicaResult& r : row.replicas)
    EXPECT_EQ(r.error.rfind("unknown workload", 0), 0u) << r.error;
}

TEST(Report, AnyFailedAndAllConvergedReflectRows) {
  ScenarioGrid g;
  g.workloads = {"or"};
  g.sizes = {64};
  g.engines = {"batch"};
  g.trials = 4;
  const Report ok = run_with_threads(g, 1);
  EXPECT_FALSE(ok.any_failed());
  EXPECT_TRUE(ok.all_converged());

  ScenarioSpec bad;
  bad.workload = "no-such-workload";
  bad.n = 16;
  bad.trials = 2;
  const Report mixed = run_points({bad});
  EXPECT_TRUE(mixed.any_failed());
}

}  // namespace
}  // namespace ppfs::exp
