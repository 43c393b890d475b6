// Shared glue for the experiment harnesses in bench/: convergence drivers
// that return rich per-run measurements, used to regenerate the paper's
// figures as text tables.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/runner.hpp"
#include "obs/metrics.hpp"
#include "engine/workload_runner.hpp"
#include "exp/report.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep_service.hpp"
#include "protocols/registry.hpp"
#include "sched/adversary.hpp"
#include "sim/simulator.hpp"
#include "util/table.hpp"
#include "verify/matching.hpp"

namespace ppfs::bench {

// Deterministic seeding sweep: the PPFS_SEED environment variable, when set
// to a decimal integer, overrides every bench's default seed so perf runs
// are reproducible and comparable across machines (see README.md).
inline std::uint64_t bench_seed(std::uint64_t fallback) {
  if (const char* s = std::getenv("PPFS_SEED")) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (end != s && *end == '\0') return v;
  }
  return fallback;
}

// Run a declarative grid on all cores and render it through the shared
// report writer — the paper-table harnesses declare ScenarioGrids and call
// this instead of hand-rolling sweep loops and table printing.
inline exp::Report run_grid(const exp::ScenarioGrid& grid) {
  return exp::run_points(grid.expand());
}

// Registry workload names for a grid's workload axis.
inline std::vector<std::string> workload_names(const std::vector<Workload>& ws) {
  std::vector<std::string> names;
  names.reserve(ws.size());
  for (const Workload& w : ws) names.push_back(w.name);
  return names;
}

struct SimMeasurement {
  bool converged = false;
  std::size_t interactions = 0;    // physical interactions driven
  std::size_t omissions = 0;
  std::size_t simulated_pairs = 0; // matched simulated two-way interactions
  std::size_t unmatched = 0;
  bool matching_ok = false;
  double overhead = 0.0;           // interactions per simulated pair
};

// Drive `sim` on workload `w` under `sched` until the workload's probe
// stabilizes, then verify the matching.
inline SimMeasurement measure_simulation(Simulator& sim, const Workload& w,
                                         Scheduler& sched, Rng& rng,
                                         const RunOptions& opt,
                                         std::size_t max_unmatched) {
  auto counts_probe = workload_counts_probe(w);
  auto probe = [&](const Simulator& s) {
    std::vector<std::size_t> counts(w.protocol->num_states(), 0);
    for (State q : s.projection()) ++counts[q];
    return counts_probe(counts, *w.protocol);
  };
  const RunResult res = run_until(sim, sched, rng, probe, opt);
  const MatchingReport rep = verify_simulation(sim, max_unmatched);
  SimMeasurement m;
  m.converged = res.converged;
  m.interactions = res.steps;
  m.omissions = res.omissions;
  m.simulated_pairs = rep.pairs;
  m.unmatched = rep.unmatched;
  m.matching_ok = rep.ok;
  m.overhead = rep.pairs > 0 ? static_cast<double>(res.steps) / rep.pairs : 0.0;
  return m;
}

inline std::unique_ptr<Scheduler> budget_adversary(std::size_t n, double rate,
                                                   std::size_t max_omissions) {
  AdversaryParams ap;
  ap.kind = AdversaryKind::Budget;
  ap.rate = rate;
  ap.max_omissions = max_omissions;
  return std::make_unique<OmissionAdversary>(std::make_unique<UniformScheduler>(n),
                                             n, ap);
}

inline std::unique_ptr<Scheduler> uo_adversary(std::size_t n, double rate) {
  AdversaryParams ap;
  ap.kind = AdversaryKind::UO;
  ap.rate = rate;
  return std::make_unique<OmissionAdversary>(std::make_unique<UniformScheduler>(n),
                                             n, ap);
}

inline void banner(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n\n";
}

// Machine-readable bench output: construct with the bench's name and the
// raw argv; if "--json" is among the arguments (or PPFS_BENCH_JSON is set)
// every add()ed measurement is written to BENCH_<name>.json on
// destruction, so the perf trajectory can be tracked across PRs:
//
//   { "bench": "engine_omissive", "results": [
//     { "name": "...", "n": 1000000, "model": "I2",
//       "interactions_per_sec": 1.2e9 }, ... ] }
//
// Throughput rows carry "interactions_per_sec"; dimensionless ratio rows
// (add_ratio — the "speedup:*" entries) carry "speedup" instead, so
// consumers never mistake a ratio for a rate.
class JsonReport {
 public:
  JsonReport(std::string bench_name, int argc, char** argv)
      : bench_(std::move(bench_name)) {
    for (int i = 1; i < argc; ++i)
      if (std::string(argv[i]) == "--json") enabled_ = true;
    if (std::getenv("PPFS_BENCH_JSON") != nullptr) enabled_ = true;
  }

  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  void add(const std::string& name, std::size_t n, const std::string& model,
           double interactions_per_sec) {
    add_row(name, n, model, "interactions_per_sec", interactions_per_sec);
  }

  // A dimensionless ratio (e.g. batch/step-wise speedup).
  void add_ratio(const std::string& name, std::size_t n,
                 const std::string& model, double speedup) {
    add_row(name, n, model, "speedup", speedup);
  }

  // A measurement in an explicitly named unit (rows that are neither
  // interaction rates nor ratios — replica throughput, thread counts).
  void add_metric(const std::string& name, std::size_t n,
                  const std::string& model, const char* key, double value) {
    add_row(name, n, model, key, value);
  }

  ~JsonReport() {
    if (!enabled_) return;
    const std::string path = "BENCH_" + bench_ + ".json";
    std::ofstream out(path);
    out << "{ \"bench\": \"" << bench_ << "\",\n  \"provenance\": "
        << provenance_json() << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < rows_.size(); ++i)
      out << rows_[i] << (i + 1 < rows_.size() ? ",\n" : "\n");
    out << "] }\n";
    std::cout << "wrote " << path << " (" << rows_.size() << " rows)\n";
  }

  // Build provenance: perf numbers are only comparable across PRs when the
  // toolchain and build mode are pinned alongside them. The macros come
  // from CMake (per-bench-target compile definitions); a build outside
  // CMake degrades to "unknown" instead of breaking.
  [[nodiscard]] static std::string provenance_json() {
#ifdef PPFS_GIT_COMMIT
    const char* commit = PPFS_GIT_COMMIT;
#else
    const char* commit = "unknown";
#endif
#ifdef PPFS_BUILD_TYPE
    const char* build_type = PPFS_BUILD_TYPE;
#else
    const char* build_type = "unknown";
#endif
#ifdef PPFS_COMPILER
    const char* compiler = PPFS_COMPILER;
#else
    const char* compiler = "unknown";
#endif
#ifdef PPFS_CXX_FLAGS
    const char* flags = PPFS_CXX_FLAGS;
#else
    const char* flags = "unknown";
#endif
    std::ostringstream out;
    out << "{ \"commit\": \"" << commit << "\", \"build_type\": \""
        << build_type << "\", \"compiler\": \"" << compiler
        << "\", \"cxx_flags\": \"" << flags << "\", \"metrics\": "
        << (PPFS_METRICS ? "true" : "false") << ", \"hw_concurrency\": "
        << std::thread::hardware_concurrency() << " }";
    return out.str();
  }

 private:
  void add_row(const std::string& name, std::size_t n, const std::string& model,
               const char* key, double value) {
    if (!enabled_) return;
    std::ostringstream row;
    row << "    { \"name\": \"" << name << "\", \"n\": " << n
        << ", \"model\": \"" << model << "\", \"" << key << "\": " << value
        << " }";
    rows_.push_back(row.str());
  }

  std::string bench_;
  bool enabled_ = false;
  std::vector<std::string> rows_;
};

}  // namespace ppfs::bench
