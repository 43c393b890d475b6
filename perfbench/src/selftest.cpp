#include "selftest.hpp"

#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "sweep.hpp"
#include "trace.hpp"
#include "traced_replica.hpp"

namespace perfbench {

using ppfs::exp::ReplicaResult;
using ppfs::exp::ScenarioSpec;

namespace {

// Tiny cells, one per engine kind the workloads run on: the step-wise
// simulator (probe loop and fixed window), the simulator auto engine, the
// batch and native closed-universe engines, the closed-universe auto
// engine on the round face, and the count-space simulator engine.
const char* const kCells[] = {
    "or@n=16:model=I3:adv=budget:2:0.02:sim=skno:o=2:engine=native,auto:"
    "verify=1:trials=2",
    "pairing@n=16:model=I3:adv=budget:2:0.02:sim=skno:o=2:engine=native:"
    "verify=1:steps=20000:trials=2",
    "exact-majority@n=1000:model=T3:adv=budget:10:engine=batch,native:"
    "trials=2",
    "beacon-or@n=10000:model=IT:adv=uo:engine=auto:trials=2",
    "exact-majority-gap@n=1000:sim=skno:o=8:engine=batch:steps=20000:"
    "trials=2",
};

[[nodiscard]] bool same(const ReplicaResult& a, const ReplicaResult& b) {
  return a.run.steps == b.run.steps && a.run.converged == b.run.converged &&
         a.run.omissions == b.run.omissions &&
         a.convergence_step == b.convergence_step && a.fires == b.fires &&
         a.noops == b.noops && a.omissive_fires == b.omissive_fires &&
         a.extras == b.extras && a.error == b.error;
}

[[nodiscard]] ReplicaResult guarded(const auto& run) {
  try {
    return run();
  } catch (const std::exception& e) {
    ReplicaResult r;
    r.error = e.what();
    return r;
  }
}

}  // namespace

int run_selftest() {
  int failures = 0;
  const auto check = [&](bool ok, const std::string& what) {
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    if (!ok) ++failures;
  };

  // Every workload's grid parses and expands to its documented points.
  for (const BenchWorkload& w : bench_workloads()) {
    for (const std::uint64_t seed : {0ULL, 12345ULL}) {
      std::vector<std::string> keys;
      bool trials_seed_ok = true;
      try {
        for (const ScenarioSpec& s :
             ppfs::exp::parse_grid(sweep_grid(w, seed)).expand()) {
          keys.push_back(s.point_key());
          trials_seed_ok &= s.trials == w.trials && s.seed == seed;
        }
      } catch (const std::exception& e) {
        keys = {std::string("parse error: ") + e.what()};
      }
      check(keys == w.point_keys && trials_seed_ok,
            w.name + " grid expands to its documented points (seed " +
                std::to_string(seed) + ")");
    }
  }

  // The traced replica reproduces exp::run_replica exactly.
  Tracer tr;
  CounterSums sums;
  int replica = 0;
  for (const char* cell : kCells) {
    for (const ScenarioSpec& spec : ppfs::exp::parse_grid(cell).expand()) {
      for (std::size_t t = 0; t < spec.trials; ++t) {
        const ReplicaResult a =
            guarded([&] { return ppfs::exp::run_replica(spec, t); });
        const ReplicaResult b = guarded(
            [&] { return traced_replica(spec, t, tr, replica++, sums); });
        check(a.error.empty() && same(a, b),
              "traced replica == run_replica: " + spec.point_key() +
                  " trial " + std::to_string(t) +
                  (a.error.empty() ? "" : " (" + a.error + ")"));
      }
    }
  }
  std::cout << (failures == 0 ? "selftest passed" : "selftest FAILED")
            << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
