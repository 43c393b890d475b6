// bench_dense — the round-batched dense regime (PR 8 tentpole) at scale.
//
// The dense cells are the ones the leap engines cannot help: beacon-or
// flips its phase on every real delivery, so fire density sits at ~1 and
// the leap path degenerates to one sampler draw + one count move per
// interaction. The round face (engine/batch/round_system.hpp) instead
// processes the maximal collision-free prefix — E[len] ~ sqrt(pi n)/2
// interactions — as one O(q^2) batch of hypergeometric splits, so the
// amortized per-interaction cost FALLS as n grows. Rows:
//
//   * speedup:dense-beacon-uo — auto(round face) / batch(leap) on the
//     I1 beacon-or + uo:0.01 cell at n = 10^6. CI floor: >= 2.0.
//   * speedup:dense-n1e9 — the same ratio at n = 10^9, both engines
//     built through the count-vector path (make_engine_from_counts;
//     per-agent vectors would cost gigabytes). CI floor: >= 2.0.
//   * dense-round-ns:n=10^k — round-face ns per covered interaction for
//     n in {10^6..10^9}: the sublinear-cost record the acceptance
//     criterion asks for (cost per interaction shrinks as rounds grow).
//   * dense-round-ns-uo:n=1e9 — the n = 10^9 row under uo:0.1 with the
//     default burst cap. CI ceiling: <= 4x dense-round-ns:n=1e9.
//   * dense-converge-n1e9 — beacon-or run to convergence at n = 10^9
//     under auto: the "standard workload completes at n = 10^9" row.
//
// Usage: bench_dense [--json]   (PPFS_SEED honored; writes BENCH_dense.json)
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "engine/batch/dispatch.hpp"
#include "engine/workload_runner.hpp"
#include "protocols/registry.hpp"

namespace ppfs {
namespace {

using bench::bench_seed;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::unique_ptr<Engine> build(const std::string& kind, std::size_t n,
                              Model model, const std::string& adversary) {
  const OneWayWorkload w = find_one_way_workload("beacon-or", n, model);
  EngineConfig config;
  config.model = model;
  const AdversaryParams adv = parse_adversary_spec(adversary);
  if (adv.rate > 0.0) config.adversary = adv;
  return make_workload_engine(kind, w, config);
}

// Interactions/sec covering `steps` dense interactions.
double measure(const std::string& kind, std::size_t n, Model model,
               const std::string& adversary, std::size_t steps,
               std::uint64_t seed) {
  auto engine = build(kind, n, model, adversary);
  UniformScheduler sched(n);
  Rng rng(seed);
  const auto t0 = Clock::now();
  (void)run_engine_steps(*engine, sched, rng, steps);
  const double dt = seconds_since(t0);
  return static_cast<double>(steps) / (dt > 0 ? dt : 1e-9);
}

}  // namespace
}  // namespace ppfs

int main(int argc, char** argv) {
  using namespace ppfs;
  bench::JsonReport json("dense", argc, argv);
  bench::banner("dense regime: round face vs leap (interactions/sec)");

  const Model omissive = omissive_closure(Model::IT);  // I1

  // speedup:dense-beacon-uo — the named dense-omission cell at n = 10^6.
  {
    const std::size_t n = 1'000'000;
    const std::size_t steps = 20'000'000;
    const double batch = measure("batch", n, omissive, "uo:0.01", steps,
                                 bench_seed(31));
    const double auto_ips = measure("auto", n, omissive, "uo:0.01", steps,
                                    bench_seed(31));
    std::printf("%-34s %12.3e %12.3e %8.2fx (floor 2.0)\n",
                "beacon-or + uo:0.01, n=1e6", batch, auto_ips,
                auto_ips / batch);
    json.add("dense-beacon-uo [batch]", n, "I1", batch);
    json.add("dense-beacon-uo [auto]", n, "I1", auto_ips);
    json.add_ratio("speedup:dense-beacon-uo", n, "I1", auto_ips / batch);
  }

  // speedup:dense-n1e9 — the same contest at n = 10^9 through the
  // count-vector construction path.
  {
    const std::size_t n = 1'000'000'000;
    const std::size_t steps = 10'000'000;
    const double batch = measure("batch", n, omissive, "uo:0.01", steps,
                                 bench_seed(37));
    const double auto_ips = measure("auto", n, omissive, "uo:0.01", steps,
                                    bench_seed(37));
    std::printf("%-34s %12.3e %12.3e %8.2fx (floor 2.0)\n",
                "beacon-or + uo:0.01, n=1e9", batch, auto_ips,
                auto_ips / batch);
    json.add("dense-n1e9 [batch]", n, "I1", batch);
    json.add("dense-n1e9 [auto]", n, "I1", auto_ips);
    json.add_ratio("speedup:dense-n1e9", n, "I1", auto_ips / batch);
  }

  // Sublinear per-interaction cost: round-face ns/interaction across n.
  // Rounds lengthen like sqrt(n), so the O(q^2)-per-round overhead
  // amortizes and the per-interaction cost must FALL monotonically-ish.
  std::printf("\nround face, plain IT beacon-or (ns per interaction):\n");
  {
    const std::size_t steps = 20'000'000;
    const std::size_t ns[] = {1'000'000, 10'000'000, 100'000'000,
                              1'000'000'000};
    const char* labels[] = {"dense-round-ns:n=1e6", "dense-round-ns:n=1e7",
                            "dense-round-ns:n=1e8", "dense-round-ns:n=1e9"};
    for (std::size_t i = 0; i < 4; ++i) {
      const double ips =
          measure("auto", ns[i], Model::IT, "none", steps, bench_seed(41));
      const double ns_per = 1e9 / ips;
      std::printf("  n=%-12zu %10.2f ns/interaction (%.3e i/s)\n", ns[i],
                  ns_per, ips);
      json.add_metric(labels[i], ns[i], "IT", "ns_per_interaction", ns_per);
    }
    // The same n = 10^9 row under the default capped adversary (uo:0.1,
    // cap 8): each round's omission count must stay O(1) draws, not one
    // rate coin per delivery. CI floor: at most 4x the plain row.
    const double ips = measure("auto", 1'000'000'000, Model::IT, "uo:0.1",
                               steps, bench_seed(41));
    std::printf("  n=%-12zu %10.2f ns/interaction (%.3e i/s) under uo:0.1\n",
                std::size_t{1'000'000'000}, 1e9 / ips, ips);
    json.add_metric("dense-round-ns-uo:n=1e9", 1'000'000'000, "IT",
                    "ns_per_interaction", 1e9 / ips);
  }

  // The completes-at-n=10^9 row: beacon-or to convergence under auto.
  {
    const std::size_t n = 1'000'000'000;
    const OneWayWorkload w = find_one_way_workload("beacon-or", n, Model::IT);
    EngineConfig config;
    config.model = Model::IT;
    auto engine = make_workload_engine("auto", w, config);
    UniformScheduler sched(n);
    Rng rng(bench_seed(43));
    auto conv = w.converged;
    CountsProbe probe = [conv](const std::vector<std::size_t>& counts,
                               const Protocol&) { return conv(counts); };
    RunOptions opt;
    opt.max_steps = 1'000'000'000'000'000ULL;
    opt.check_every = 1u << 24;
    const auto t0 = Clock::now();
    const RunResult res = run_engine_until(*engine, sched, rng, probe, opt);
    const double dt = seconds_since(t0);
    const double ips = static_cast<double>(res.steps) / (dt > 0 ? dt : 1e-9);
    std::printf(
        "\nconvergence: beacon-or at n=10^9 under auto[%s]: %s after %.3e "
        "interactions in %.2fs (%.3e i/s)\n",
        engine->active_kind().c_str(),
        res.converged ? "converged" : "DID NOT CONVERGE",
        static_cast<double>(res.steps), dt, ips);
    json.add("dense-converge-n1e9 [auto]", n, "IT", ips);
    json.add_metric("dense-converge-n1e9 interactions", n, "IT",
                    "interactions", static_cast<double>(res.steps));
  }
  return 0;
}
