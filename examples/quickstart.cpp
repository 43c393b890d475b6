// Quickstart: define a two-way population protocol, run it natively, then
// run the same protocol through a fault-tolerant simulator on a weaker
// interaction model and verify the simulation.
//
//   $ ./examples/quickstart
#include <iostream>

#include "engine/batch/dispatch.hpp"
#include "engine/runner.hpp"
#include "protocols/majority.hpp"
#include "sim/skno.hpp"
#include "verify/matching.hpp"

using namespace ppfs;

int main() {
  // 1. A protocol: 4-state exact majority. 7 agents vote X, 5 vote Y.
  auto protocol = make_exact_majority();
  const auto st = exact_majority_states();
  std::vector<State> initial = make_initial({{st.big_x, 7}, {st.big_y, 5}});
  const std::size_t n = initial.size();

  // 2. Native two-way execution under the uniform random scheduler
  //    (globally fair with probability 1), through the engine facade.
  {
    auto engine = make_engine("native", protocol, initial);
    UniformScheduler sched(n);
    Rng rng(/*seed=*/2024);
    const RunResult res = run_engine_until(
        *engine, sched, rng,
        [](const std::vector<std::size_t>& counts, const Protocol& p) {
          return counts_consensus_output(counts, p) == 1;
        });
    std::cout << "native two-way: converged=" << res.converged << " after "
              << res.steps << " interactions; consensus output = "
              << engine->consensus_output() << "\n";
  }

  // 3. The same protocol simulated in the one-way Immediate Transmission
  //    model via SKnO with o = 0 (Corollary 1): the starter can only
  //    transmit, never read, yet the two-way semantics are preserved.
  {
    SknoSimulator sim(protocol, Model::IT, /*omission_bound=*/0, initial);
    UniformScheduler sched(n);
    Rng rng(2024);
    const RunResult res = run_until(sim, sched, rng, [&](const SknoSimulator& s) {
      for (State q : s.projection())
        if (protocol->output(q) != 1) return false;
      return true;
    });
    std::cout << "simulated in IT: converged=" << res.converged << " after "
              << res.steps << " interactions ("
              << sim.simulated_updates() << " simulated half-steps)\n";

    // 4. Verify the simulation: Definition 3's perfect matching plus each
    //    agent's simulated-state chain.
    const MatchingReport rep = verify_simulation(sim, /*max_unmatched=*/2 * n);
    std::cout << "verification: matching ok=" << rep.ok << ", "
              << rep.pairs << " simulated two-way interactions, "
              << rep.unmatched << " still-open transactions\n";
  }
  return 0;
}
