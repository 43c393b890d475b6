// ppfs_perfbench: the sweep benchmark driver (see perfbench/README.md).
//
//   ppfs_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--trace-out FILE]
//   ppfs_perfbench --selftest
//   ppfs_perfbench --list-metrics
//
// A run first times set-up by direct calls, then runs whole sweeps of the
// workload, single-threaded, until the next one would end after S
// seconds (at least one). Sweep i runs a grid seed hashed from (N, i), so
// the same --seed gives the same inputs. --trace 0 prints the end-to-end
// metrics; --trace 1 runs every sweep twice, untraced and traced, checks
// that the two agree replica by replica, and prints the per-layer
// metrics. The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Exit status 0 iff every correctness check held.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "selftest.hpp"
#include "sweep.hpp"
#include "trace.hpp"
#include "traced_replica.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end metrics (--trace 0).
const std::vector<MetricDef> kEndToEnd = {
    {"interactions_per_s", "1/s"},
    {"sweep_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// The per-layer metrics (--trace 1). Times and counts are per traced
// replica unless the unit says per sweep; "s_est" marks estimates scaled
// up from sampled timers.
const std::vector<MetricDef> kPerLayer = {
    // exp / protocols
    {"exp.parse_s", "s/sweep"},
    {"protocols.workload_s", "s/replica"},
    {"exp.construct_s", "s/replica"},
    {"exp.fold_s", "s/sweep"},
    {"exp.report_s", "s/sweep"},
    {"exp.partial_s", "s/sweep"},
    {"exp.partial_bytes", "B/sweep"},
    // engine
    {"engine.run_s", "s/replica"},
    {"engine.ns_per_interaction", "ns"},
    {"engine.interactions", "count/replica"},
    {"engine.fires", "count/replica"},
    {"engine.noops", "count/replica"},
    {"engine.fire_frac", "ratio"},
    {"engine.leaps", "count/replica"},
    {"engine.leap_len_mean", "interactions"},
    {"engine.weight_refreshes", "count/replica"},
    // engine, round face
    {"engine.rounds", "count/replica"},
    {"engine.round_len_mean", "interactions"},
    {"engine.auto_switches", "count/replica"},
    // engine, simulator engines
    {"engine.weight_scans", "count/replica"},
    {"engine.direct_steps", "count/replica"},
    {"engine.fire_s", "s_est/replica"},
    {"engine.agent_space", "ratio"},
    // sched
    {"sched.omissions", "count/replica"},
    {"sched.burst_episodes", "count/replica"},
    {"sched.next_calls", "count/replica"},
    {"sched.next_s", "s_est/replica"},
    // core / sim
    {"core.intern_new", "count/replica"},
    {"core.intern_hit", "count/replica"},
    {"core.intern_patched", "count/replica"},
    {"core.intern_hit_ratio", "ratio"},
    {"core.released", "count/replica"},
    {"core.universe_live", "states"},
    {"core.intern_s", "s_est/replica"},
    {"core.gc_s", "s_est/replica"},
    {"sim.outcome_hits", "count/replica"},
    {"sim.outcome_misses", "count/replica"},
    {"sim.outcome_hit_ratio", "ratio"},
    {"sim.react_hits", "count/replica"},
    {"sim.react_misses", "count/replica"},
    {"sim.react_hit_ratio", "ratio"},
    {"sim.recv_hits", "count/replica"},
    {"sim.recv_misses", "count/replica"},
    {"sim.recv_hit_ratio", "ratio"},
    {"sim.g_hits", "count/replica"},
    {"sim.g_misses", "count/replica"},
    {"sim.g_hit_ratio", "ratio"},
    {"sim.cache_evictions", "count/replica"},
    {"sim.outcome_miss_s", "s_est/replica"},
    {"sim.updates", "count/replica"},
    {"sim.run_s", "s/replica"},
    // obs
    {"obs.probe_calls", "count/replica"},
    {"obs.probe_s", "s/replica"},
    {"obs.trace_overhead", "ratio"},
    // verify
    {"verify.matching_s", "s/replica"},
    {"verify.sim_pairs", "count/replica"},
    {"verify.overhead", "ratio"},
    // the benchmark's own glue inside replicas
    {"trace.unattributed_s", "s/replica"},
    {"trace.unattributed_frac", "ratio"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  std::string trace_out;
  bool selftest = false;
  bool list_metrics = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "ppfs_perfbench: " << why << "\n"
            << "usage: ppfs_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n"
               "       ppfs_perfbench --selftest | --list-metrics\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (key == "--list-metrics") {
      a.list_metrics = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = value;
      } else if (key == "--seed") {
        if (value.empty() || value[0] == '-') usage("bad --seed " + value);
        a.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
        have_seconds = a.seconds > 0.0;
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1" ? 1 : 0;
        have_trace = true;
      } else if (key == "--trace-out") {
        a.trace_out = value;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::exception&) {
      usage("bad value '" + value + "' for " + key);
    }
  }
  if (a.selftest || a.list_metrics) return a;
  if (a.workload.empty() || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds (> 0) and --trace are required");
  return a;
}

[[nodiscard]] double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

[[nodiscard]] double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

[[nodiscard]] std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

[[nodiscard]] std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// Grid seed of sweep i: a splitmix64 hash of (seed, i). Replica streams
// are keyed Rng(seed ^ key).split(trial), and split() XORs the trial into
// the seed, so grid seeds that differ only in their low bits (seed and
// seed + 1, say) would share replicas; hashed seeds do not.
[[nodiscard]] std::uint64_t sweep_seed(std::uint64_t seed, std::size_t i) {
  std::uint64_t z = seed * 1000003 + i + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Totals over a run's sweeps.
struct RunTotals {
  std::size_t sweeps = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double sweep_s = 0.0;
  double interactions = 0.0;
  double replica_s = 0.0;
  std::vector<std::string> violations;

  void add(const SweepResult& r) {
    ++sweeps;
    attempted += r.attempted;
    failed += r.failed;
    sweep_s += r.wall_s;
    for (const SweepResult::ReplicaTiming& t : r.replicas) {
      interactions += t.interactions;
      replica_s += t.wall_s;
    }
    violations.insert(violations.end(), r.violations.begin(),
                      r.violations.end());
  }

  // Σ covered interactions ÷ Σ wall time of the replica calls.
  [[nodiscard]] double interactions_per_s() const {
    return ratio(interactions, replica_s);
  }
  [[nodiscard]] double mean_sweep_s() const {
    return ratio(sweep_s, static_cast<double>(sweeps));
  }
};

// Traced and untraced runs must agree on what every replica did.
void compare_replicas(const SweepResult& plain, const SweepResult& traced,
                      RunTotals& totals) {
  for (std::size_t p = 0; p < plain.results.size(); ++p) {
    for (std::size_t t = 0; t < plain.results[p].size(); ++t) {
      const auto& a = plain.results[p][t];
      const auto& b = traced.results[p][t];
      if (a.run.steps == b.run.steps && a.run.omissions == b.run.omissions &&
          a.run.converged == b.run.converged && a.error == b.error)
        continue;
      ++totals.failed;
      totals.violations.push_back(plain.points[p].point_key() + " trial " +
                                  std::to_string(t) +
                                  ": traced run differs from untraced run");
    }
  }
}

void print_result(const std::vector<MetricDef>& defs,
                  const std::map<std::string, double>& values,
                  const RunTotals& totals, const std::string& digest) {
  std::cout << "sweeps " << totals.sweeps << ", replicas attempted "
            << totals.attempted << ", failed " << totals.failed << "\n";
  std::cout << "fingerprint digest of the first sweep: " << digest << "\n";
  for (const std::string& v : totals.violations)
    std::cout << "VIOLATION " << v << "\n";
  for (const MetricDef& d : defs) {
    std::cout << "  " << d.name << " = " << json_number(values.at(d.name))
              << " " << d.unit << "\n";
  }
  // Not in the metrics object, whose metrics must never read 0; the
  // object's "attempted" and "failed" carry it.
  std::cout << "  failed_frac = "
            << json_number(ratio(static_cast<double>(totals.failed),
                                 static_cast<double>(totals.attempted)))
            << " ratio\n";
  const bool correct = totals.failed == 0 && totals.violations.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << totals.attempted
            << ", \"failed\": " << totals.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << defs[i].name
              << "\": {\"value\": " << json_number(values.at(defs[i].name))
              << ", \"unit\": \"" << defs[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

[[nodiscard]] std::string digest_of(const SweepResult& r) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a64(r.fingerprint)));
  return buf;
}

int run_end_to_end(const BenchWorkload& w, const Args& a) {
  const double setup_s = setup_seconds(w);
  RunTotals totals;
  std::string digest;
  const std::int64_t start = now_ns();
  for (std::size_t i = 0;; ++i) {
    const SweepResult r =
        run_sweep(w, sweep_seed(a.seed, i), nullptr, nullptr, nullptr);
    if (i == 0) digest = digest_of(r);
    totals.add(r);
    std::cout << "sweep " << i << " wall_s " << json_number(r.wall_s);
    for (const SweepResult::ReplicaTiming& t : r.replicas)
      std::cout << " | point " << t.point << " " << json_number(t.wall_s)
                << " s " << json_number(t.interactions) << " int";
    std::cout << "\n";
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    if (elapsed + r.wall_s > a.seconds) break;
  }
  std::map<std::string, double> m;
  m["interactions_per_s"] = totals.interactions_per_s();
  m["sweep_s"] = totals.mean_sweep_s();
  m["setup_s"] = setup_s;
  m["peak_rss_mb"] = peak_rss_mb();
  print_result(kEndToEnd, m, totals, digest);
  return totals.failed == 0 && totals.violations.empty() ? 0 : 1;
}

int run_traced(const BenchWorkload& w, const Args& a) {
  Tracer tr;
  CounterSums sums;
  int next_replica = 0;
  RunTotals plain_totals, traced_totals, totals;
  std::string digest;
  double partial_bytes = 0.0;
  // Replica outcomes the per-layer table reports, summed over traced runs.
  struct {
    double omissions = 0.0;
    double sim_pairs = 0.0;
    double verified_steps = 0.0;  // steps of replicas that were verified
  } traced;
  const std::int64_t start = now_ns();
  for (std::size_t i = 0;; ++i) {
    const std::uint64_t seed = sweep_seed(a.seed, i);
    const SweepResult plain_sweep =
        run_sweep(w, seed, nullptr, nullptr, nullptr);
    const SweepResult traced_sweep =
        run_sweep(w, seed, &tr, &sums, &next_replica);
    if (i == 0) digest = digest_of(plain_sweep);
    plain_totals.add(plain_sweep);
    traced_totals.add(traced_sweep);
    totals.add(plain_sweep);
    totals.add(traced_sweep);
    compare_replicas(plain_sweep, traced_sweep, totals);
    partial_bytes += static_cast<double>(traced_sweep.partial_bytes);
    for (const auto& row : traced_sweep.results) {
      for (const ppfs::exp::ReplicaResult& r : row) {
        traced.omissions += static_cast<double>(r.run.omissions);
        const auto it = r.extras.find("sim_pairs");
        if (it == r.extras.end()) continue;
        traced.sim_pairs += it->second;
        traced.verified_steps += static_cast<double>(r.run.steps);
      }
    }
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    if (elapsed + plain_sweep.wall_s + traced_sweep.wall_s > a.seconds) break;
  }

  const double sweeps = static_cast<double>(traced_totals.sweeps);
  const double reps = static_cast<double>(next_replica);
  const auto names = tr.name_totals();
  const auto layers = tr.replica_layer_self_s();
  const auto total_s = [&](const char* name) {
    const auto it = names.find(name);
    return it == names.end() ? 0.0 : it->second.total_s;
  };
  const auto calls = [&](const char* name) {
    const auto it = names.find(name);
    return it == names.end() ? 0.0 : static_cast<double>(it->second.calls);
  };
  const auto layer = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second;
  };
  const auto sum = [&](const std::string& name) {
    const auto it = sums.find(name);
    return it == sums.end() ? 0.0 : it->second;
  };
  const auto per_rep = [&](double v) { return ratio(v, reps); };
  const auto hit_ratio = [&](const std::string& cache) {
    const double h = sum("cache." + cache + ".hits");
    return ratio(h, h + sum("cache." + cache + ".misses"));
  };

  std::map<std::string, double> m;
  m["exp.parse_s"] = ratio(total_s("exp.parse"), sweeps);
  m["protocols.workload_s"] = per_rep(layer("protocols"));
  m["exp.construct_s"] = per_rep(total_s("exp.construct"));
  m["exp.fold_s"] = ratio(total_s("exp.fold"), sweeps);
  m["exp.report_s"] = ratio(total_s("exp.report"), sweeps);
  m["exp.partial_s"] = ratio(total_s("exp.partial"), sweeps);
  m["exp.partial_bytes"] = ratio(partial_bytes, sweeps);

  m["engine.run_s"] = per_rep(layer("engine"));
  m["engine.ns_per_interaction"] =
      ratio(layer("engine") * 1e9, sum("run.interactions"));
  m["engine.interactions"] = per_rep(sum("run.interactions"));
  m["engine.fires"] = per_rep(sum("run.fires"));
  m["engine.noops"] = per_rep(sum("run.noops"));
  m["engine.fire_frac"] =
      ratio(sum("run.fires"), sum("run.fires") + sum("run.noops"));
  m["engine.leaps"] = per_rep(sum("engine.leap_len.count"));
  m["engine.leap_len_mean"] =
      ratio(sum("engine.leap_len.sum"), sum("engine.leap_len.count"));
  m["engine.weight_refreshes"] = per_rep(sum("engine.weight_refreshes"));
  m["engine.rounds"] = per_rep(sum("engine.rounds"));
  m["engine.round_len_mean"] =
      ratio(sum("engine.round_len.sum"), sum("engine.round_len.count"));
  m["engine.auto_switches"] = per_rep(sum("auto.switches"));
  m["engine.weight_scans"] = per_rep(sum("engine.weight_scans"));
  m["engine.direct_steps"] = per_rep(sum("engine.direct_steps"));
  m["engine.fire_s"] = per_rep(sum("time.fire.est_s"));
  m["engine.agent_space"] =
      ratio(sum("auto.agent_space"), sum("auto.agent_space.n"));

  m["sched.omissions"] = per_rep(traced.omissions);
  m["sched.burst_episodes"] = per_rep(sum("adv.burst_len.count"));
  m["sched.next_calls"] = per_rep(sum("sched.next_calls"));
  m["sched.next_s"] = per_rep(total_s("sched.next"));

  m["core.intern_new"] = per_rep(sum("universe.intern_new"));
  m["core.intern_hit"] = per_rep(sum("universe.intern_hit"));
  m["core.intern_patched"] = per_rep(sum("universe.intern_patched"));
  m["core.intern_hit_ratio"] =
      ratio(sum("universe.intern_hit"),
            sum("universe.intern_hit") + sum("universe.intern_new") +
                sum("universe.intern_patched"));
  m["core.released"] = per_rep(sum("universe.released"));
  m["core.universe_live"] =
      ratio(sum("universe.live"), sum("universe.live.n"));
  m["core.intern_s"] = per_rep(sum("time.intern.est_s"));
  m["core.gc_s"] = per_rep(sum("time.gc.est_s"));
  for (const char* cache : {"outcome", "react", "recv", "g"}) {
    const std::string c = cache;
    m["sim." + c + "_hits"] = per_rep(sum("cache." + c + ".hits"));
    m["sim." + c + "_misses"] = per_rep(sum("cache." + c + ".misses"));
    m["sim." + c + "_hit_ratio"] = hit_ratio(c);
  }
  m["sim.cache_evictions"] =
      per_rep(sum("cache.outcome.evictions") + sum("cache.react.evictions") +
              sum("cache.recv.evictions") + sum("cache.g.evictions"));
  m["sim.outcome_miss_s"] = per_rep(sum("time.outcome_miss.est_s"));
  m["sim.updates"] = per_rep(sum("sim.updates"));
  m["sim.run_s"] = per_rep(layer("sim"));

  m["obs.probe_calls"] = per_rep(calls("obs.probe"));
  m["obs.probe_s"] = per_rep(total_s("obs.probe"));
  m["obs.trace_overhead"] =
      ratio(traced_totals.interactions_per_s(),
            plain_totals.interactions_per_s());

  m["verify.matching_s"] = per_rep(total_s("verify.matching"));
  m["verify.sim_pairs"] = per_rep(traced.sim_pairs);
  m["verify.overhead"] = ratio(traced.verified_steps, traced.sim_pairs);

  const double replica_wall = total_s("bench.replica");
  const double unattributed = layer("bench");
  m["trace.unattributed_s"] = per_rep(unattributed);
  m["trace.unattributed_frac"] = ratio(unattributed, replica_wall);

  std::cout << "layer self time over " << next_replica
            << " traced replicas (share of replica wall time):\n";
  for (const auto& [name, s] : layers) {
    if (name == "bench") continue;
    std::cout << "  " << name << " " << json_number(s) << " s ("
              << json_number(100.0 * ratio(s, replica_wall)) << "%)\n";
  }
  std::cout << "  unattributed " << json_number(unattributed) << " s ("
            << json_number(100.0 * ratio(unattributed, replica_wall))
            << "%)\n";
  if (!a.trace_out.empty()) {
    std::ofstream os(a.trace_out);
    tr.write_jsonl(os);
    if (!os) {
      std::cerr << "ppfs_perfbench: cannot write " << a.trace_out << "\n";
      return 1;
    }
  }
  print_result(kPerLayer, m, totals, digest);
  return totals.failed == 0 && totals.violations.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args a = parse_args(argc, argv);
  try {
    if (a.list_metrics) {
      for (const MetricDef& d : kEndToEnd)
        std::cout << "end_to_end " << d.name << " " << d.unit << "\n";
      for (const MetricDef& d : kPerLayer)
        std::cout << "per_layer " << d.name << " " << d.unit << "\n";
      return 0;
    }
    if (a.selftest) return run_selftest();
    const BenchWorkload* w = find_bench_workload(a.workload);
    if (w == nullptr) usage("unknown workload '" + a.workload + "'");
    return a.trace == 1 ? run_traced(*w, a) : run_end_to_end(*w, a);
  } catch (const std::exception& e) {
    std::cerr << "ppfs_perfbench: " << e.what() << "\n";
    return 1;
  }
}
