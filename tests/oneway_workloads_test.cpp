// One-way workload registry: every workload converges under both the
// per-agent native engine and the count-space batch engine, in its
// declared model family.
#include <gtest/gtest.h>

#include "engine/batch/dispatch.hpp"
#include "engine/workload_runner.hpp"
#include "protocols/registry.hpp"

namespace ppfs {
namespace {

TEST(OneWayWorkloads, ConvergeUnderBothEngines) {
  const std::size_t n = 32;
  for (const auto& kind : engine_kinds()) {
    for (const OneWayWorkload& w : one_way_workloads(n)) {
      EngineConfig config;
      config.model = w.io ? Model::IO : Model::IT;
      auto engine = make_engine(kind, w.protocol, w.initial, config);
      UniformScheduler sched(n);
      Rng rng(91);
      RunOptions opt;
      opt.max_steps = 5'000'000;
      const RunResult res =
          run_engine_until(*engine, sched, rng, workload_counts_probe(w), opt);
      EXPECT_TRUE(res.converged) << kind << " on " << w.name;
      EXPECT_EQ(engine->model(), config.model) << w.name;
    }
  }
}

TEST(OneWayWorkloads, ConvergeUnderBudgetOmissions) {
  // A Budget adversary (model lifted to I1/I2 semantics as configured)
  // must not prevent convergence of the IO workloads.
  const std::size_t n = 32;
  for (const auto& kind : engine_kinds()) {
    for (const OneWayWorkload& w : one_way_workloads(n)) {
      if (!w.io) continue;
      EngineConfig config;
      config.model = Model::IO;
      config.adversary = parse_adversary_spec("budget:20:0.2");
      auto engine = make_engine(kind, w.protocol, w.initial, config);
      EXPECT_EQ(engine->model(), Model::I1) << w.name;  // lifted
      UniformScheduler sched(n);
      Rng rng(92);
      RunOptions opt;
      opt.max_steps = 5'000'000;
      const RunResult res =
          run_engine_until(*engine, sched, rng, workload_counts_probe(w), opt);
      EXPECT_TRUE(res.converged) << kind << " on " << w.name;
      EXPECT_LE(engine->omissions(), 20u) << kind << " on " << w.name;
      EXPECT_GT(engine->omissions(), 0u) << kind << " on " << w.name;
    }
  }
}

TEST(OneWayWorkloads, EveryWorkloadNamesAVerdict) {
  // workload_counts_probe falls back to "every occupied output equals
  // expected_output", which needs an expected output.
  for (const OneWayWorkload& w : one_way_workloads(16))
    EXPECT_TRUE(w.expected_output >= 0 || w.converged) << w.name;
}

TEST(OneWayWorkloads, MajorityPrefixResolvesExactMajorityRequests) {
  // CLI requests for "exact-majority" on one-way models resolve to the
  // cancellation majority entry by prefix.
  const auto all = one_way_workloads(16);
  bool found = false;
  for (const auto& w : all)
    found |= w.name.rfind("exact-majority", 0) == 0;
  EXPECT_TRUE(found);
}

TEST(OneWayWorkloads, RegistryRejectsTinyPopulations) {
  EXPECT_THROW((void)one_way_workloads(3), std::invalid_argument);
}

}  // namespace
}  // namespace ppfs
