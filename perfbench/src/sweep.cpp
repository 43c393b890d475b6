#include "sweep.hpp"

#include <algorithm>
#include <exception>
#include <sstream>

#include "exp/report.hpp"
#include "exp/sweep_service.hpp"

namespace perfbench {

using namespace ppfs;
using exp::ReplicaResult;
using exp::ScenarioSpec;

const std::vector<BenchWorkload>& bench_workloads() {
  // Why each one is here: perfbench/README.md.
  static const std::vector<BenchWorkload> kWorkloads = {
      {"leap-omissive",
       "exact-majority@n=1e6:model=T3:adv=budget:1000:engine=batch",
       1,
       {"exact-majority@n=1000000:model=T3:adv=budget:1000:engine=batch"}},
      {"round-dense",
       "beacon-or@n=1e7:model=IT:adv=uo:engine=auto",
       1,
       {"beacon-or@n=10000000:model=IT:adv=uo:engine=auto"}},
      {"sim-count",
       "exact-majority-gap@n=1e6:sim=skno:o=8:engine=batch:steps=2000000",
       2,
       {"exact-majority-gap@n=1000000:model=default:adv=none:engine=batch:"
        "sim=skno:o=8:steps=2000000"}},
      {"sim-paper",
       "pairing@n=16:model=I3:adv=budget:2:0.02:sim=skno:o=2:"
       "engine=native,auto:verify=1:steps=1000000",
       2,
       {"pairing@n=16:model=I3:adv=budget:2:0.02:engine=native:sim=skno:o=2:"
        "steps=1000000:verify=1",
        "pairing@n=16:model=I3:adv=budget:2:0.02:engine=auto:sim=skno:o=2:"
        "steps=1000000:verify=1"}},
  };
  return kWorkloads;
}

const BenchWorkload* find_bench_workload(const std::string& name) {
  for (const BenchWorkload& w : bench_workloads())
    if (w.name == name) return &w;
  return nullptr;
}

std::string sweep_grid(const BenchWorkload& w, std::uint64_t seed) {
  return w.grid + ":trials=" + std::to_string(w.trials) +
         ":seed=" + std::to_string(seed);
}

namespace {

[[nodiscard]] double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

[[nodiscard]] double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

// Which correctness check, if any, a finished replica breaks.
[[nodiscard]] std::string replica_violation(const ScenarioSpec& spec,
                                            const ReplicaResult& r) {
  if (r.failed()) return "threw: " + r.error;
  if (spec.fixed_steps > 0) {
    if (r.run.steps != spec.fixed_steps)
      return "covered " + std::to_string(r.run.steps) + " of " +
             std::to_string(spec.fixed_steps) + " fixed steps";
  } else if (!r.run.converged) {
    return "did not converge";
  }
  if (spec.verify_matching && spec.engine == "native" && !spec.sim.empty()) {
    const auto it = r.extras.find("matching_ok");
    if (it == r.extras.end() || it->second != 1.0) return "matching_ok != 1";
  }
  return {};
}

}  // namespace

SweepResult run_sweep(const BenchWorkload& w, std::uint64_t seed, Tracer* tr,
                      CounterSums* sums, int* next_replica) {
  SweepResult out;
  const std::string grid_text = sweep_grid(w, seed);
  std::string report_json;
  std::string partial;
  exp::Report report;
  {
    Scope sweep(tr, "bench.sweep", -1);
    const std::int64_t t0 = now_ns();
    exp::ScenarioGrid grid;
    {
      Scope s(tr, "exp.parse", -1);
      grid = exp::parse_grid(grid_text);
      out.points = grid.expand();
    }
    out.results.resize(out.points.size());
    for (std::size_t p = 0; p < out.points.size(); ++p) {
      const ScenarioSpec& spec = out.points[p];
      for (std::size_t t = 0; t < spec.trials; ++t) {
        const int id = tr != nullptr ? (*next_replica)++ : -1;
        Scope replica(tr, "bench.replica", id);
        const std::int64_t r0 = now_ns();
        ReplicaResult r;
        try {
          r = tr != nullptr ? traced_replica(spec, t, *tr, id, *sums)
                            : exp::run_replica(spec, t);
        } catch (const std::exception& e) {
          r = ReplicaResult{};
          r.error = e.what();
        }
        const double wall = seconds_since(r0);
        const double covered =
            r.failed() ? 0.0 : static_cast<double>(r.run.steps);
        out.replicas.push_back({p, wall, covered});
        out.results[p].push_back(std::move(r));
      }
    }
    {
      Scope s(tr, "exp.fold", -1);
      report = exp::fold_report(out.points, out.results);
    }
    {
      Scope s(tr, "exp.report", -1);
      std::ostringstream os;
      report.write_json(os);
      report_json = os.str();
    }
    {
      Scope s(tr, "exp.partial", -1);
      exp::SweepProvenance prov;
      prov.grid = grid_text;
      prov.trials = grid.trials;
      prov.seed = grid.seed;
      partial = exp::encode_partial(prov, out.points, out.results,
                                    exp::sweep_jobs(out.points));
    }
    out.wall_s = seconds_since(t0);
  }
  out.partial_bytes = partial.size();

  // Correctness gate, outside the timed part.
  for (std::size_t p = 0; p < out.points.size(); ++p) {
    for (std::size_t t = 0; t < out.results[p].size(); ++t) {
      ++out.attempted;
      const std::string v = replica_violation(out.points[p], out.results[p][t]);
      if (v.empty()) continue;
      ++out.failed;
      out.violations.push_back(out.points[p].point_key() + " trial " +
                               std::to_string(t) + ": " + v);
    }
  }
  out.fingerprint = report.fingerprint();
  std::string merged;
  try {
    merged = exp::merge_partials({partial}).fingerprint();
  } catch (const std::exception& e) {
    merged = std::string("merge failed: ") + e.what();
  }
  if (merged != out.fingerprint || report_json.empty()) {
    out.failed = out.attempted;
    out.violations.push_back(
        "merge_partials({encode_partial(...)}) fingerprint differs from the "
        "in-process Report::fingerprint()");
  }
  return out;
}

namespace {

// One timed set-up; what it built is destroyed after the clock stops.
[[nodiscard]] double setup_once(const ScenarioSpec& spec) {
  const std::int64_t t0 = now_ns();
  const ReplicaSetup setup = set_up_replica(spec, nullptr, -1);
  return seconds_since(t0);
}

}  // namespace

double setup_seconds(const BenchWorkload& w) {
  // Per point: at least kMinReps repetitions, more until they add up to
  // kMinSeconds (small set-ups take microseconds), at most kMaxReps.
  constexpr std::size_t kMinReps = 5;
  constexpr std::size_t kMaxReps = 2000;
  constexpr double kMinSeconds = 0.2;
  const std::vector<ScenarioSpec> points =
      exp::parse_grid(sweep_grid(w, 0)).expand();
  std::vector<double> per_point;
  for (const ScenarioSpec& spec : points) {
    std::vector<double> times;
    double spent = 0.0;
    while (times.size() < kMinReps ||
           (spent < kMinSeconds && times.size() < kMaxReps)) {
      times.push_back(setup_once(spec));
      spent += times.back();
    }
    per_point.push_back(median(std::move(times)));
  }
  return median(std::move(per_point));
}

}  // namespace perfbench
