// COR1 — regenerates Corollary 1: with o = 0, SKnO simulates every
// two-way protocol in the (non-omissive) Immediate Transmission model with
// Theta(|Q_P| log n) bits per agent.
//
// Tables 1–2 are declarative ScenarioGrids; Table 3 sweeps a programmatic
// protocol family (linear thresholds of growing |Q_P|) through the same
// experiment layer via ScenarioSpec::custom, so all three render through
// the shared exp::Report writer.
//
//  Table 1: workload sweep in IT.
//  Table 2: memory scaling in n for fixed |Q_P| (log-like growth of bits).
//  Table 3: memory scaling in |Q_P| for fixed n, using the linear-
//           threshold family to grow the simulated state space.
#include <cmath>

#include "bench_common.hpp"
#include "protocols/linear.hpp"

namespace ppfs {
namespace {

void workload_table() {
  bench::banner("COR 1 / Table 1: SKnO(IT, o=0) over the workload suite, n=8");
  exp::ScenarioGrid g;
  g.workloads = bench::workload_names(standard_workloads(8));
  g.sizes = {8};
  g.models = {"IT"};
  g.sims = {"skno:o=0"};
  g.engines = {"native"};
  g.verify_matching = true;
  g.max_steps = 2'000'000;
  g.trials = 4;
  g.seed = bench::bench_seed(111);
  bench::run_grid(g).print_table(std::cout);
  std::cout << "\nWith constant memory IT is strictly weaker than TW "
               "(Angluin et al. 2005); Corollary 1's point is that "
               "Theta(|Q_P| log n) extra bits close the gap.\n";
}

void memory_vs_n() {
  bench::banner("COR 1 / Table 2: bits per agent vs n (|Q_P| fixed)");
  // The mixing budget grows with n (40'000 + 400 n in the original
  // harness), so each size is its own one-point grid stitched into one
  // report.
  exp::Report report;
  for (const std::size_t n : {4, 8, 16, 32, 64, 128, 256}) {
    exp::ScenarioGrid g;
    g.workloads = {"pairing"};  // |Q_P| = 4
    g.sizes = {n};
    g.models = {"IT"};
    g.sims = {"skno:o=0"};
    g.engines = {"native"};
    g.fixed_steps = 40'000 + 400 * n;
    g.trials = 2;
    g.seed = bench::bench_seed(222) + n;
    report.extend(bench::run_grid(g));
  }
  report.print_table(std::cout);
  std::cout << "\nCompare max_bits against log2(n): 2.0 at n=4 up to 8.0 at "
               "n=256.\n";
}

void memory_vs_qp() {
  bench::banner("COR 1 / Table 3: bits per agent vs |Q_P| (n fixed at 16)");
  const std::size_t n = 16;
  exp::Report report;
  for (const std::uint32_t k : {2, 4, 8, 16, 32}) {
    const LinearThresholdSpec spec{{0, 1}, k};
    auto p = make_linear_threshold(spec);
    auto w = std::make_shared<Workload>();
    w->name = p->name() + "(|Q|=" + std::to_string(p->num_states()) + ")";
    w->protocol = p;
    for (std::size_t i = 0; i < n; ++i)
      w->initial.push_back(linear_threshold_input(spec, i % 2));

    exp::ScenarioSpec s;
    s.workload = w->name;
    s.custom = std::move(w);
    s.n = n;
    s.model = Model::IT;
    s.sim = "skno:o=0";
    s.engine = "native";
    s.fixed_steps = 60'000;
    s.trials = 2;
    s.seed = bench::bench_seed(333) + k;
    report.extend(exp::run_points({std::move(s)}));
  }
  report.print_table(std::cout);
  std::cout << "\nShape to observe: bits grow with the simulated state-space "
               "size (token tags) and only logarithmically with n.\n";
}

}  // namespace
}  // namespace ppfs

int main() {
  ppfs::bench::banner("Reproducing Corollary 1 (IT simulation, o = 0)");
  ppfs::workload_table();
  ppfs::memory_vs_n();
  ppfs::memory_vs_qp();
  return 0;
}
