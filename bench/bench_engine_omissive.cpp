// PERF — one-way & omissive models in count space (the PR 2 tentpole).
//
// Measures uniform-scheduler interactions covered per second for native
// (per-agent) vs batch (count-space) execution of the same (model,
// adversary) triples through the EngineDispatch facade:
//
//   * IO or-epidemic and cancellation majority, plain and under a
//     Budget(1000) omission adversary;
//   * I2 or under a UO adversary (g = id makes every omissive draw a
//     no-op) in both burst regimes: burst=inf takes the O(1)-per-leap
//     geometric/binomial split, while the default burst cap of 8 runs the
//     exact within-burst Markov leg at O(1) per burst episode — honestly
//     slower, recorded separately; plus I2 beacon-or under UO
//     (non-identity g, omissive draws change counts: the event-punctuated
//     leap path — dense, so batch ~ native);
//   * T3 exact majority under a Budget adversary (two-way omissive);
//   * the headline: exact-majority-style convergence at n = 10^6 under
//     --model=IO --adversary=budget:1000, which the native engine cannot
//     finish in reasonable time.
//
// Run with --json (or PPFS_BENCH_JSON=1) to emit BENCH_engine_omissive.json
// for cross-PR tracking. Seeds honor the PPFS_SEED override.
#include <chrono>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "engine/batch/dispatch.hpp"
#include "protocols/registry.hpp"

namespace ppfs {
namespace {

using bench::bench_seed;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Case {
  std::string label;
  Model model;
  std::string workload;  // one-way registry prefix or "exact-majority" (T*)
  std::string adversary;
  std::size_t n;
  // Interactions to cover per engine. Sparse workloads (mostly no-ops
  // after convergence) let the batch engine cover billions; dense ones
  // (e.g. the beacon's phase flip changes counts on every interaction)
  // are measured over smaller budgets on both engines.
  std::size_t native_steps;
  std::size_t batch_steps;
};

// Drive `steps` interactions and return interactions/sec.
double measure(const std::string& kind, const Case& c, std::size_t steps) {
  EngineConfig config;
  config.model = c.model;
  const AdversaryParams adv = parse_adversary_spec(c.adversary);
  if (adv.rate > 0.0) config.adversary = adv;

  std::unique_ptr<Engine> engine;
  if (is_one_way(c.model)) {
    for (const OneWayWorkload& w : one_way_workloads(c.n)) {
      if (w.name.rfind(c.workload, 0) == 0) {
        engine = make_engine(kind, w.protocol, w.initial, config);
        break;
      }
    }
  } else {
    for (const Workload& w : standard_workloads(c.n)) {
      if (w.name.rfind(c.workload, 0) == 0) {
        engine = make_engine(kind, w.protocol, w.initial, config);
        break;
      }
    }
  }
  if (!engine) throw std::invalid_argument("bench: workload not found");

  UniformScheduler sched(c.n);
  Rng rng(bench_seed(17));
  const auto t0 = Clock::now();
  (void)run_engine_steps(*engine, sched, rng, steps);
  const double dt = seconds_since(t0);
  return static_cast<double>(steps) / (dt > 0 ? dt : 1e-9);
}

}  // namespace
}  // namespace ppfs

int main(int argc, char** argv) {
  using namespace ppfs;
  bench::JsonReport json("engine_omissive", argc, argv);
  bench::banner("one-way & omissive models: native vs batch (interactions/sec)");

  const std::vector<Case> cases = {
      {"IO or", Model::IO, "or", "none", 1'000'000, 2'000'000,
       2'000'000'000ULL},
      {"IO majority + budget:1000", Model::IO, "exact-majority",
       "budget:1000", 1'000'000, 2'000'000, 2'000'000'000ULL},
      {"I2 or + uo:0.1 burst=inf", Model::I2, "or", "uo:0.1:burst=inf",
       1'000'000, 2'000'000, 2'000'000'000ULL},
      {"I2 or + uo:0.1 burst=8", Model::I2, "or", "uo:0.1", 1'000'000,
       2'000'000, 200'000'000ULL},
      {"I2 beacon-or + uo:0.01 (dense)", Model::I2, "beacon-or", "uo:0.01",
       1'000'000, 2'000'000, 20'000'000},
      {"T3 exact-majority + budget:1000", Model::T3, "exact-majority",
       "budget:1000", 1'000'000, 2'000'000, 40'000'000'000ULL},
  };

  std::printf("%-36s %14s %14s %10s\n", "case", "native i/s", "batch i/s",
              "speedup");
  for (const Case& c : cases) {
    // The native engine pays O(1) per interaction: keep its sample small
    // and let the batch engine cover the full count.
    const double native_ips = measure("native", c, c.native_steps);
    const double batch_ips = measure("batch", c, c.batch_steps);
    std::printf("%-36s %14.3e %14.3e %9.0fx\n", c.label.c_str(), native_ips,
                batch_ips, batch_ips / native_ips);
    json.add(c.label + " [native]", c.n, model_name(c.model), native_ips);
    json.add(c.label + " [batch]", c.n, model_name(c.model), batch_ips);
  }

  // Headline: run the IO cancellation majority to convergence at n = 10^6
  // under a Budget(1000) adversary — the acceptance-criterion workload.
  {
    const std::size_t n = 1'000'000;
    EngineConfig config;
    config.model = Model::IO;
    config.adversary = parse_adversary_spec("budget:1000");
    for (const OneWayWorkload& w : one_way_workloads(n)) {
      if (w.name.rfind("exact-majority", 0) != 0) continue;
      auto engine = make_engine("batch", w.protocol, w.initial, config);
      UniformScheduler sched(n);
      Rng rng(bench_seed(23));
      auto conv = w.converged;
      CountsProbe probe = [conv](const std::vector<std::size_t>& counts,
                                 const Protocol&) { return conv(counts); };
      RunOptions opt;
      opt.max_steps = 1'000'000'000'000'000ULL;
      opt.check_every = 1u << 22;
      const auto t0 = Clock::now();
      const RunResult res = run_engine_until(*engine, sched, rng, probe, opt);
      const double dt = seconds_since(t0);
      std::printf(
          "\nconvergence: %s under I1(lifted IO)+budget:1000 at n=10^6: "
          "%s after %.3e interactions (%zu omissions) in %.2fs "
          "(%.3e i/s)\n",
          w.name.c_str(), res.converged ? "converged" : "DID NOT CONVERGE",
          static_cast<double>(res.steps), res.omissions, dt,
          static_cast<double>(res.steps) / (dt > 0 ? dt : 1e-9));
      json.add("IO majority budget:1000 converge [batch]", n, "IO",
               static_cast<double>(res.steps) / (dt > 0 ? dt : 1e-9));
    }
  }
  return 0;
}
