// EXP — wall-clock scaling of the experiment layer's replica drain on an
// embarrassingly parallel grid, plus a determinism cross-check.
//
// The grid is a multi-trial batch-engine sweep (count-space exact majority
// at n = 10^6 — each replica is a fat, independent chunk of work), run at
// 1, 2 and 4 threads. Replica RNG streams are keyed per (point, trial), so
// the three runs must produce byte-identical reports; the speedup:*
// ratios land in BENCH_exp_sweep.json (--json / PPFS_BENCH_JSON) so CI
// tracks the scaling trajectory. On a multicore box 1 -> 4 threads is
// expected near-linear (>= 3x); on fewer hardware threads the ratio
// honestly records whatever the machine can do (hw-concurrency row).
#include <chrono>
#include <thread>

#include "bench_common.hpp"

namespace ppfs {
namespace {

exp::ScenarioGrid scaling_grid() {
  exp::ScenarioGrid g;
  g.workloads = {"exact-majority", "or"};
  g.sizes = {500'000, 1'000'000};
  g.engines = {"batch"};
  g.trials = 4;
  g.seed = bench::bench_seed(20260731);
  return g;
}

struct TimedSweep {
  double seconds = 0.0;
  std::string fingerprint;
};

TimedSweep timed_sweep(const exp::ScenarioGrid& grid, std::size_t threads) {
  const auto start = std::chrono::steady_clock::now();
  const exp::Report report = exp::run_points(grid.expand(), threads);
  const auto stop = std::chrono::steady_clock::now();
  TimedSweep out;
  out.seconds = std::chrono::duration<double>(stop - start).count();
  out.fingerprint = report.fingerprint();
  return out;
}

}  // namespace
}  // namespace ppfs

int main(int argc, char** argv) {
  using namespace ppfs;
  bench::JsonReport json("exp_sweep", argc, argv);
  bench::banner("Experiment-layer sweep scaling (threads 1 / 2 / 4)");

  const exp::ScenarioGrid grid = scaling_grid();
  const std::size_t replicas = grid.points() * grid.trials;
  const unsigned hw = std::thread::hardware_concurrency();
  std::cout << grid.points() << " grid points x " << grid.trials
            << " trials = " << replicas << " replicas; hardware threads: "
            << hw << "\n\n";

  const TimedSweep t1 = timed_sweep(grid, 1);
  const TimedSweep t2 = timed_sweep(grid, 2);
  const TimedSweep t4 = timed_sweep(grid, 4);

  TextTable t({"threads", "wall sec", "replicas/sec", "speedup vs 1t",
               "report identical"});
  const auto row = [&](const char* label, const TimedSweep& ts) {
    t.add_row({label, fmt_double(ts.seconds, 2),
               fmt_double(replicas / ts.seconds, 1),
               fmt_double(t1.seconds / ts.seconds, 2),
               fmt_bool(ts.fingerprint == t1.fingerprint)});
  };
  row("1", t1);
  row("2", t2);
  row("4", t4);
  t.print(std::cout);

  const bool deterministic =
      t2.fingerprint == t1.fingerprint && t4.fingerprint == t1.fingerprint;
  std::cout << "\naggregates byte-identical across thread counts: "
            << fmt_bool(deterministic) << "\n";

  json.add_metric("sweep-replicas-per-sec-1t", 1'000'000, "TW",
                  "replicas_per_sec", replicas / t1.seconds);
  json.add_metric("sweep-replicas-per-sec-4t", 1'000'000, "TW",
                  "replicas_per_sec", replicas / t4.seconds);
  json.add_metric("hw-concurrency", 1'000'000, "TW", "threads",
                  static_cast<double>(hw));
  json.add_ratio("speedup:sweep-1to2", 1'000'000, "TW",
                 t1.seconds / t2.seconds);
  json.add_ratio("speedup:sweep-1to4", 1'000'000, "TW",
                 t1.seconds / t4.seconds);
  return deterministic ? 0 : 1;
}
