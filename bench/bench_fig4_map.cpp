// FIG4 — regenerates Figure 4, the paper's map of results: for each of the
// four assumption panels and each of the ten interaction models, the cell
// is decided by actually running the corresponding experiment:
//
//   GREEN  — the designated simulator converges on a workload under the
//            panel's assumption (with omissions where the model has them)
//            and the perfect-matching verifier accepts the run;
//   RED    — the paper's counterexample construction executes and
//            exhibits the violation (safety break or permanent stall);
//   ?      — T2 with knowledge of omissions: open problem in the paper;
//   cited  — IO in panels 1: asserted red by the paper's Fig. 4; no
//            constructive counterexample is given there.
#include "attack/lemma1.hpp"
#include "attack/skno_attack.hpp"
#include "attack/thm32.hpp"
#include "bench_common.hpp"
#include "protocols/pairing.hpp"
#include "sim/naming.hpp"
#include "sim/sid.hpp"
#include "sim/skno.hpp"
#include "sim/tw_naive.hpp"
#include "verify/monitors.hpp"

namespace ppfs {
namespace {

struct CellResult {
  std::string verdict;   // GREEN / RED / ?
  std::string evidence;  // what ran and what it showed
};

CellResult green_by_simulation(std::unique_ptr<Simulator> sim, const Workload& w,
                               double uo_rate, std::size_t budget,
                               const std::string& label) {
  const std::size_t n = w.initial.size();
  std::unique_ptr<Scheduler> sched;
  if (uo_rate > 0 && budget == SIZE_MAX) {
    sched = bench::uo_adversary(n, uo_rate);
  } else if (uo_rate > 0) {
    sched = bench::budget_adversary(n, uo_rate, budget);
  } else {
    sched = std::make_unique<UniformScheduler>(n);
  }
  Rng rng(777);
  RunOptions opt;
  opt.max_steps = 3'000'000;
  const auto m = bench::measure_simulation(*sim, w, *sched, rng, opt, 4 * n);
  if (m.converged && m.matching_ok)
    return {"GREEN", label + ": converged, matching ok (" +
                          std::to_string(m.simulated_pairs) + " pairs)"};
  return {"BROKEN", label + ": convergence=" + fmt_bool(m.converged) +
                        " matching=" + fmt_bool(m.matching_ok)};
}

CellResult red_by_lemma1(std::size_t o, const std::string& label) {
  auto protocol = make_pairing_protocol();
  SimFactory f = [protocol, o](std::vector<State> init) -> std::unique_ptr<Simulator> {
    return std::make_unique<SknoSimulator>(protocol, Model::I3, o, std::move(init));
  };
  const auto st = pairing_states();
  Lemma1Options opt;
  opt.max_ftt_depth = 2 * o + 4;
  const auto rep = run_lemma1_attack(f, st.producer, st.consumer, opt);
  if (rep && rep->safety_violated)
    return {"RED", label + ": Lemma-1 run with FTT=" + std::to_string(rep->ftt) +
                       " omissions makes " + std::to_string(rep->critical) + "/" +
                       std::to_string(rep->producers) + " critical"};
  return {"UNPROVEN", label};
}

CellResult red_by_t_model(Model m) {
  // One starter-side omission against the naive wrapper (all T-models).
  const auto st = pairing_states();
  TwSimulator sim(make_pairing_protocol(), m,
                  {st.consumer, st.producer, st.consumer});
  PairingMonitor mon(sim.projection());
  sim.interact(Interaction{1, 0, true, OmitSide::Starter});
  mon.observe(sim.projection());
  sim.interact(Interaction{1, 2, false});
  mon.observe(sim.projection());
  if (mon.safety_violated())
    return {"RED", "Thm 3.1/3.2: one starter-side omission double-spends a "
                   "producer (critical=" +
                       std::to_string(mon.max_critical()) + ", producers=1)"};
  return {"UNPROVEN", "t-model demo"};
}

CellResult red_by_stall(Model m) {
  const auto rep = run_oneway_no1_demo(m, 2, 60'000, 99);
  if (rep.stalled)
    return {"RED", "Thm 3.2: one omission, token candidate deadlocks (" +
                       rep.detail + ")"};
  return {"UNPROVEN", "stall demo"};
}

Workload quick_workload(std::size_t n) { return core_workloads(n)[1]; }

void panel_infinite_memory() {
  bench::banner("FIG4 / panel 1: infinite memory, no extra assumptions");
  TextTable t({"model", "verdict", "evidence"});
  const std::size_t n = 6;
  for (Model m : kAllModels) {
    CellResult c{"?", ""};
    switch (m) {
      case Model::TW:
        c = green_by_simulation(
            std::make_unique<TwSimulator>(quick_workload(n).protocol, Model::TW,
                                          quick_workload(n).initial),
            quick_workload(n), 0.0, 0, "identity wrapper");
        break;
      case Model::IT:
        c = green_by_simulation(
            std::make_unique<SknoSimulator>(quick_workload(n).protocol, Model::IT,
                                            0, quick_workload(n).initial),
            quick_workload(n), 0.0, 0, "Cor. 1: SKnO o=0");
        break;
      case Model::IO:
        c = {"RED", "asserted by the paper's Fig. 4 (no constructive "
                    "counterexample given there)"};
        break;
      case Model::T1:
      case Model::T2:
      case Model::T3:
        c = red_by_t_model(m);
        break;
      case Model::I1:
      case Model::I2:
        c = red_by_stall(m);
        break;
      case Model::I3:
      case Model::I4:
        // Without knowledge of o, no bound works: any configured bound o
        // falls to the Lemma-1 construction with FTT(o) omissions.
        c = red_by_lemma1(2, "Thm 3.1 (bound unknowable)");
        break;
    }
    t.add_row({model_name(m), c.verdict, c.evidence});
  }
  t.print(std::cout);
}

void panel_knowledge_of_omissions() {
  bench::banner("FIG4 / panel 2: known bound o on the number of omissions");
  TextTable t({"model", "verdict", "evidence"});
  const std::size_t n = 6;
  const std::size_t o = 2;
  for (Model m : kAllModels) {
    CellResult c{"?", ""};
    switch (m) {
      case Model::TW:
        c = green_by_simulation(
            std::make_unique<TwSimulator>(quick_workload(n).protocol, Model::TW,
                                          quick_workload(n).initial),
            quick_workload(n), 0.0, 0, "identity wrapper");
        break;
      case Model::IT:
        c = green_by_simulation(
            std::make_unique<SknoSimulator>(quick_workload(n).protocol, Model::IT,
                                            0, quick_workload(n).initial),
            quick_workload(n), 0.0, 0, "Cor. 1: SKnO o=0");
        break;
      case Model::I3:
      case Model::I4:
        c = green_by_simulation(
            std::make_unique<SknoSimulator>(quick_workload(n).protocol, m, o,
                                            quick_workload(n).initial),
            quick_workload(n), 0.05, o, "Thm 4.1: SKnO o=" + std::to_string(o));
        break;
      case Model::T3:
        c = green_by_simulation(
            std::make_unique<SknoSimulator>(quick_workload(n).protocol, Model::T3,
                                            o, quick_workload(n).initial),
            quick_workload(n), 0.05, o,
            "Thm 4.1 via the I3 -> T3 embedding, run natively in T3");
        break;
      case Model::T2:
        c = {"?", "open problem (paper, conclusion)"};
        break;
      case Model::T1:
        c = red_by_t_model(m);
        break;
      case Model::I1:
      case Model::I2:
        c = red_by_stall(m);
        break;
      case Model::IO:
        c = {"RED", "Thm 3.2: omissive IO is the g = id case of I1, which "
                    "falls to a single omission even when o = 1 is known"};
        break;
    }
    t.add_row({model_name(m), c.verdict, c.evidence});
  }
  t.print(std::cout);
}

void panel_assumption_everywhere(const std::string& title, bool naming) {
  bench::banner(title);
  TextTable t({"model", "verdict", "evidence"});
  const std::size_t n = 6;
  for (Model m : kAllModels) {
    const Workload w = quick_workload(n);
    std::unique_ptr<Simulator> sim;
    std::string label;
    if (naming) {
      sim = std::make_unique<NamingSimulator>(w.protocol, m, w.initial);
      label = "Thm 4.6: Nn + SID";
    } else {
      sim = std::make_unique<SidSimulator>(w.protocol, m, w.initial);
      label = "Thm 4.5: SID";
    }
    const double rate = is_omissive(m) ? 0.3 : 0.0;
    const auto c = green_by_simulation(std::move(sim), w, rate,
                                       rate > 0 ? SIZE_MAX : 0, label);
    t.add_row({model_name(m), c.verdict,
               c.evidence + (rate > 0 ? " under UO omissions" : "")});
  }
  t.print(std::cout);
}

}  // namespace
}  // namespace ppfs

int main() {
  ppfs::bench::banner("Reproducing Figure 4: the map of results");
  ppfs::panel_infinite_memory();
  ppfs::panel_knowledge_of_omissions();
  ppfs::panel_assumption_everywhere("FIG4 / panel 3: unique IDs", false);
  ppfs::panel_assumption_everywhere("FIG4 / panel 4: knowledge of n", true);
  std::cout << "\nLegend: GREEN = simulator ran and verified here; RED = "
               "counterexample executed here (or cited where the paper "
               "gives no construction); ? = open problem.\n";
  return 0;
}
