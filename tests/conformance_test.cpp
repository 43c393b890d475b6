// Engine conformance: every engine kind and every pinned execution face
// realizes the law of the per-agent chain. One table of cells, each a grid
// in the `--sweep` grammar (exp::parse_grid; every expanded point is a
// row), and one trial loop: each point runs `kTrials` times (or its
// cell's own count) on the native engine and on every face that applies,
// and a two-sample chi-square compares each face's outcome distribution
// with native's. The outcome is the final projected counts, plus the
// omissions delivered when an adversary is attached (so the omission
// stream must match too); probe cells (no steps=) run to convergence and
// add the detection slice.
//
// Faces, each against native:
//   batch, auto  the engine kinds, built by exp::make_replica_engine (the
//                sweep's own mapping) or, for random cells, make_engine;
//   step, round  BatchSystem::step and RoundSystem over a BatchSystem
//                (direct cells);
//   forced       auto with auto_force_switch_at = n: one forced switch
//                away from the starting face (simulators with an agent
//                driver), so the table covers both bridge directions;
//   nocache      batch with the outcome cache off (fault-free SKnO, the
//                simulator whose fires the cache serves);
//                forced and nocache are make_sim_engine with the replica's
//                simulator config plus that one test-only setting.
// On any failure the suite prints the cell x face coverage table; a face
// that throws fails its entry as `THREW: <what>`.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <initializer_list>
#include <iomanip>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chi_square.hpp"
#include "engine/batch/round_system.hpp"
#include "exp/scenario.hpp"
#include "test_protocol_gen.hpp"

namespace ppfs {
namespace {

using testing::Counts;
// One outcome per trial: final counts [, omissions] [, detection slice].
using Samples = std::vector<Counts>;

// Trials per face unless a cell asks for more.
constexpr std::size_t kTrials = 120;

struct Cell {
  // Fixed-budget cells give steps=; a cell without it runs the workload's
  // probe loop to convergence (registry workloads only).
  const char* grid;
  // Non-zero: the workload is written "random" and protocols drawn from
  // the generator seeds gen .. gen + seeds - 1 replace it, one point per
  // seed (one-way under one-way models), with random omission reactions
  // o/h wherever the model lets a party detect an omission (T2: o;
  // T3: o, h; I3: h).
  std::uint64_t gen = 0;
  std::uint64_t seeds = 1;
  // Runs per face: more for cells that must see a small bias in one leap
  // regime's omission tally.
  std::size_t trials = kTrials;
};

const Cell kCells[] = {
    // Two-way registry protocols under TW, and one run-to-convergence cell.
    {"or,and,approx-majority,exact-majority,exact-majority-gap,leader,"
     "threshold3-true,threshold3-false,mod3,pairing@n=8:steps=24"},
    {"approx-majority@n=8:checkevery=8:stable=1:maxsteps=100000"},
    // Random protocols of 2-5 states, two per n.
    {"random@n=5,6,7,8:steps=16", 777, 2},
    // Omissive two-way models: side-targeted, capped and unbounded bursts,
    // the NO quiet horizon, budgets.
    {"random@n=7:adv=uo:0.6:burst=2:steps=21", 286, 3},
    {"leader@n=8:model=T2:adv=uo@starter:0.5:steps=16"},
    {"leader@n=8:model=T3:adv=uo@reactor:0.5:steps=16"},
    {"pairing@n=8:model=T1:adv=uo@starter:0.3,uo@reactor:0.3:steps=24"},
    {"random@n=7:model=T3:adv=budget:6:0.3,uo:0.5:burst=2,"
     "uo@starter:0.5:burst=2:steps=21",
     274, 3},
    {"or@n=16:model=T1:adv=uo:0.5:burst=2:steps=48"},
    {"exact-majority@n=18:model=T1:adv=no:30:0.4:burst=inf:steps=54"},
    {"or@n=48:model=T1:adv=uo:0.3:steps=96"},
    // One-way models.
    {"beacon-or@n=32:model=IT:steps=96"},
    {"beacon-or@n=32:model=I1:adv=uo:0.35:burst=inf,uo:0.1:steps=96"},
    {"random@n=7:model=IT,IO:steps=14", 271, 2},
    {"random@n=8:model=IO:adv=budget:5:0.25:steps=24", 275},
    {"random@n=7:model=I2:adv=uo:0.2:burst=inf:steps=14", 283, 3},
    {"random@n=7:model=I3:adv=no:12:0.3:steps=21", 279, 3},
    // Simulators.
    {"exact-majority@n=8:sim=naive:steps=24"},
    {"leader@n=8:model=T2:sim=naive:adv=uo@starter:0.5:steps=24"},
    {"exact-majority@n=8:sim=sid:steps=96"},
    {"or@n=8:sim=sid:adv=uo:0.3,uo:0.5:burst=2,budget:4:0.3:steps=48"},
    {"exact-majority@n=6:sim=naming:steps=72"},
    {"pairing@n=6:sim=skno:o=1:steps=48"},
    {"exact-majority@n=8:sim=skno:o=2:adv=uo:0.5:burst=2:steps=80"},
    // Both budgets run out mid-run: the count-space exhaustion branches.
    {"exact-majority@n=8:sim=skno:o=2:adv=budget:2:0.2:steps=64"},
    {"exact-majority@n=8:sim=skno:o=3:adv=budget:8:0.6:burst=2:steps=64"},
    // leap::advance's two splits, with enough trials that a 10% bias in
    // one split's omission tally fails: the inert split (omissions that
    // change nothing, no burst cap) and the event-punctuated split
    // (omissions that change counts), direct and through SKnO. SID is the
    // simulator whose omissions are inert, but its dense pairing traffic
    // keeps it on the stepping path, so its row adds coverage, not power.
    {"or@n=16:model=T1:adv=uo:0.5:burst=inf:steps=64", 0, 1, 600},
    {"or@n=16:model=T1:adv=uo@starter:0.5:burst=inf:steps=64", 0, 1, 600},
    {"exact-majority@n=8:sim=skno:o=2:adv=uo:0.5:burst=inf:steps=64", 0, 1,
     600},
    {"or@n=8:sim=sid:adv=uo:0.5:burst=inf:steps=96"},
    // RoundSystem's composition split, with enough trials that a 10% bias
    // in it fails: every agent starts a leader, so the final leader count
    // tracks how many leaders each round draws.
    {"leader@n=20:steps=240", 0, 1, 600},
};

enum class Face { Native, Batch, Auto, Step, Round, Forced, NoCache };
constexpr Face kFaces[] = {Face::Batch, Face::Auto,   Face::Step,
                           Face::Round, Face::Forced, Face::NoCache};

const char* face_name(Face f) {
  switch (f) {
    case Face::Native: return "native";
    case Face::Batch: return "batch";
    case Face::Auto: return "auto";
    case Face::Step: return "step";
    case Face::Round: return "round";
    case Face::Forced: return "forced";
    case Face::NoCache: return "nocache";
  }
  return "?";
}

// One expanded cell point with everything the faces build from.
struct Point {
  exp::ScenarioSpec spec;  // engine is set per face
  std::string label;
  std::uint64_t gen = 0;
  std::size_t trials = kTrials;
  std::optional<Workload> workload;  // null: one-way direct point
  std::shared_ptr<const Protocol> two_way;
  std::shared_ptr<const OneWayProtocol> one_way;
  std::vector<State> initial;
  ModelFns fns;  // random cells only; registry cells run the defaults
  CountsProbe probe;
  bool adversary = false;
};

// One point: `spec` on a registry workload, or (gen != 0) on the random
// protocol drawn from generator seed `gen`.
Point make_point(exp::ScenarioSpec spec, std::uint64_t gen) {
  Point p;
  const Model model = exp::resolve_model(spec);
  const bool one_way_direct = spec.sim.empty() && is_one_way(model);
  p.gen = gen;
  p.adversary = parse_adversary_spec(spec.adversary).rate > 0.0;
  if (gen != 0) {
    spec.workload = "random#" + std::to_string(gen);
    Rng meta(gen);
    const std::size_t states = 2 + meta.below(4);
    if (one_way_direct)
      p.one_way = testing::random_one_way_protocol(states, meta,
                                                   model == Model::IO);
    else
      p.two_way = testing::random_protocol(states, meta);
    p.initial = testing::random_initial(spec.n, states, meta);
    const ModelCaps caps = model_caps(model);
    if (caps.starter_detects_omission)
      p.fns.o = testing::as_fn(testing::random_unary(states, meta));
    if (caps.reactor_detects_omission)
      p.fns.h = testing::as_fn(testing::random_unary(states, meta));
  } else if (one_way_direct) {
    const OneWayWorkload w =
        find_one_way_workload(spec.workload, spec.n, model);
    p.one_way = w.protocol;
    p.initial = w.initial;
  } else {
    p.workload = find_workload(spec.workload, spec.n);
    p.two_way = p.workload->protocol;
    p.initial = p.workload->initial;
  }
  spec.engine = "native";
  if (gen == 0)
    p.probe =
        exp::make_replica_engine(spec, p.workload ? &*p.workload : nullptr)
            .probe;
  std::string key = spec.point_key();
  for (const char* drop : {":model=default", ":adv=none", ":engine=native"}) {
    const std::size_t at = key.find(drop);
    if (at != std::string::npos) key.erase(at, std::string(drop).size());
  }
  p.label = key;
  p.spec = std::move(spec);
  return p;
}

std::vector<Point> expand_cell(const Cell& cell) {
  std::string text = cell.grid;
  // Random cells parse with a registry stand-in ("or" is both a two-way
  // and a one-way name); make_point replaces its protocol.
  if (cell.gen != 0) text = "or" + text.substr(text.find('@'));
  std::vector<Point> out;
  for (const exp::ScenarioSpec& spec : exp::parse_grid(text).expand())
    for (std::uint64_t gen = cell.gen; gen < cell.gen + cell.seeds; ++gen) {
      out.push_back(make_point(spec, gen));
      out.back().trials = cell.trials;
    }
  return out;
}

std::string sim_kind(const Point& p) {
  return p.spec.sim.empty() ? "" : parse_sim_spec(p.spec.sim).kind;
}

bool applies(const Point& p, Face f) {
  const bool sim = !p.spec.sim.empty();
  switch (f) {
    case Face::Native:
    case Face::Batch:
    case Face::Auto: return true;
    case Face::Step:
    case Face::Round: return !sim;
    // The naive wrapper has no agent-space driver: auto never leaves
    // count space.
    case Face::Forced: return sim && sim_kind(p) != "naive";
    case Face::NoCache: return sim_kind(p) == "skno" && !p.adversary;
  }
  return false;
}

// The step and round faces behind the Engine interface, so one loop drives
// every face.
class SystemFace final : public Engine {
 public:
  SystemFace(BatchSystem sys, Face face) : sys_(std::move(sys)) {
    if (face == Face::Round) round_.emplace(sys_);
  }
  [[nodiscard]] std::string kind() const override {
    return round_ ? "round" : "step";
  }
  [[nodiscard]] const Protocol& protocol() const override {
    return sys_.protocol();
  }
  [[nodiscard]] Model model() const override { return sys_.rules().model(); }
  [[nodiscard]] std::size_t size() const override { return sys_.size(); }
  [[nodiscard]] std::size_t interactions() const override {
    return sys_.steps();
  }
  [[nodiscard]] std::size_t omissions() const override {
    return sys_.omissions();
  }
  void counts_into(std::vector<std::size_t>& out) const override {
    out = sys_.counts();
  }
  std::size_t advance(std::size_t budget, Scheduler&, Rng& rng) override {
    // Cover the whole budget, as the engines do: the probe loop probes
    // at slice ends.
    for (std::size_t c = 0; c < budget;)
      c += round_ ? round_->advance(budget - c, rng).interactions
                  : sys_.step(rng).interactions;
    return budget;
  }
  [[nodiscard]] RunStats& stats() noexcept override { return sys_.stats(); }

 private:
  BatchSystem sys_;
  std::optional<RoundSystem> round_;
};

std::unique_ptr<Engine> build(const Point& p, Face face) {
  const AdversaryParams adv = parse_adversary_spec(p.spec.adversary);
  const Model model = exp::resolve_model(p.spec);
  if (face == Face::Step || face == Face::Round) {
    const Model lifted = p.adversary ? omissive_closure(model) : model;
    RuleMatrix rules =
        p.one_way ? RuleMatrix::compile(p.one_way, lifted, p.initial, p.fns)
                  : RuleMatrix::compile(p.two_way, lifted, p.fns);
    std::vector<std::size_t> counts(rules.num_states(), 0);
    for (const State q : p.initial) ++counts[q];
    BatchSystem sys(std::move(rules), std::move(counts));
    if (p.adversary) sys.set_omission_process(adv);
    return std::make_unique<SystemFace>(std::move(sys), face);
  }
  const std::string kind =
      face == Face::Native ? "native"
      : face == Face::Auto || face == Face::Forced ? "auto"
                                                   : "batch";
  if (face == Face::Forced || face == Face::NoCache) {
    // make_replica_engine's simulator config plus the test-only switch.
    SimEngineConfig config;
    config.spec = parse_sim_spec(p.spec.sim);
    config.model = p.spec.model;
    config.adversary = adv;
    if (face == Face::Forced) config.auto_force_switch_at = p.spec.n;
    if (face == Face::NoCache) config.outcome_cache_capacity = 0;
    return make_sim_engine(kind, p.two_way, p.initial, config);
  }
  if (p.gen != 0) {
    const EngineConfig config{model, p.fns, adv};
    return p.one_way ? make_engine(kind, p.one_way, p.initial, config)
                     : make_engine(kind, p.two_way, p.initial, config);
  }
  exp::ScenarioSpec spec = p.spec;
  spec.engine = kind;
  return exp::make_replica_engine(spec, p.workload ? &*p.workload : nullptr)
      .engine;
}

// Outcomes of `p` on `face` over p.trials seeded runs. Fixed
// budgets are driven in n-sized advance() calls, so auto engines arbitrate
// (and forced switches fire) at mid-run boundaries; probe cells run the
// sweep's probe loop.
Samples outcomes(const Point& p, Face face, std::uint64_t salt) {
  Samples out;
  // Keyed twice: split(trial) only XORs the trial into the seed, so
  // nearby seeds would share trial streams across faces.
  const Rng base = Rng(p.spec.point_seed() ^ p.gen).split(salt);
  for (std::size_t trial = 0; trial < p.trials; ++trial) {
    Rng rng = base.split(trial);
    auto engine = build(p, face);
    UniformScheduler sched(p.spec.n);
    const std::size_t steps = p.spec.fixed_steps;
    Counts key;
    if (steps > 0) {
      std::size_t done = 0;
      while (done < steps)
        done += engine->advance(std::min(p.spec.n, steps - done), sched, rng);
      EXPECT_EQ(engine->interactions(), steps)
          << p.label << " " << face_name(face);
      key = engine->counts();
    } else {
      const RunResult r = run_engine_until(*engine, sched, rng, p.probe,
                                           exp::resolve_run_options(p.spec));
      EXPECT_TRUE(r.converged) << p.label << " " << face_name(face);
      key = engine->counts();
      key.push_back(r.steps / p.spec.check_every);
    }
    if (face == Face::Forced) {
      engine->sync_metrics();
      EXPECT_GE(engine->metrics()->gauge("auto.switches").value(), 1.0)
          << p.label;
    }
    if (p.adversary) key.push_back(engine->omissions());
    out.push_back(std::move(key));
  }
  return out;
}

// chi2 / acceptance limit, maximized over the joint outcome and each of
// its coordinates: <= 1 accepts the two samples as one law. The marginals
// carry the power where the joint outcome is too spread for any category
// to hold five expected trials (at n = 32 nearly every joint outcome is
// rare and pools into one bucket).
double law_distance(const Samples& a, const Samples& b) {
  const auto view = [](const Samples& s, std::size_t coord) {
    std::map<Counts, std::size_t> dist;
    for (const Counts& c : s)
      ++dist[coord < c.size() ? Counts{c[coord]} : c];
    return dist;
  };
  double worst = 0.0;
  for (std::size_t coord = 0; coord <= a.front().size(); ++coord) {
    const auto [stat, df] = testing::chi_square_homogeneity(
        view(a, coord), view(b, coord), a.size(), b.size());
    worst = std::max(worst, stat / testing::chi_square_limit(df));
  }
  return worst;
}

std::vector<Point> all_points() {
  std::vector<Point> points;
  for (const Cell& cell : kCells)
    for (Point& p : expand_cell(cell)) points.push_back(std::move(p));
  return points;
}

// The direction a forced switch takes: away from auto's starting face.
std::string forced_direction(const Point& p) {
  const std::string start = build(p, Face::Forced)->active_kind();
  return start == "count" ? "count->agent" : "agent->count";
}

// One cell x face entry: the law distance, or what the face (or native,
// its reference) threw.
struct Entry {
  double distance = 0.0;
  std::string threw;
  [[nodiscard]] bool failed() const { return !threw.empty() || distance > 1.0; }
};

std::string coverage_table(const std::vector<Point>& points,
                           const std::vector<std::map<Face, Entry>>& dist) {
  std::ostringstream out;
  out << "cell x face coverage (chi2/limit; <= 1 passes, . = n/a)\n";
  out << std::left << std::setw(64) << "cell";
  for (const Face f : kFaces) out << std::setw(10) << face_name(f);
  out << "\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    out << std::setw(64) << points[i].label;
    for (const Face f : kFaces) {
      std::ostringstream entry;
      if (const auto it = dist[i].find(f); it == dist[i].end()) {
        entry << ".";
      } else if (!it->second.threw.empty()) {
        entry << "THREW: " << it->second.threw << " ";
      } else {
        entry << (it->second.failed() ? "FAIL " : "") << std::fixed
              << std::setprecision(2) << it->second.distance;
      }
      out << std::setw(10) << entry.str();
    }
    out << "\n";
  }
  return out.str();
}

TEST(Conformance, EveryFaceMatchesNative) {
  const std::vector<Point> points = all_points();
  std::vector<std::map<Face, Entry>> table(points.size());
  // What `body` threw, or empty: a throwing face (a sampler invariant, an
  // audit failure) fails its entry instead of ending the binary.
  const auto threw = [](const auto& body) -> std::string {
    try {
      body();
      return {};
    } catch (const std::exception& e) {
      return e.what();
    } catch (...) {
      return "unknown exception";
    }
  };
  // Points are independent (each face's trials are seeded from the point),
  // so a few workers share them; taking them from the table's end starts
  // the dear simulator rows first.
  std::atomic<std::size_t> taken{0};
  const auto work = [&] {
    for (std::size_t k; (k = taken++) < points.size();) {
      const std::size_t i = points.size() - 1 - k;
      const Point& p = points[i];
      Samples native;
      const std::string native_threw =
          threw([&] { native = outcomes(p, Face::Native, 0); });
      for (const Face f : kFaces) {
        if (!applies(p, f)) continue;
        Entry& e = table[i][f];
        if (!native_threw.empty()) {
          e.threw = "native: " + native_threw;
          continue;
        }
        e.threw = threw([&] {
          e.distance =
              law_distance(native, outcomes(p, f, static_cast<int>(f)));
        });
      }
    }
  };
  std::vector<std::thread> workers(
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4) - 1);
  for (std::thread& w : workers) w = std::thread(work);
  work();
  for (std::thread& w : workers) w.join();
  bool failed = false;
  for (const auto& row : table)
    for (const auto& [face, e] : row) failed |= e.failed();
  EXPECT_FALSE(failed) << coverage_table(points, table);
}

TEST(Conformance, TableCoversTheLattice) {
  std::set<std::string> models, adversaries, sims, faces;
  for (const Point& p : all_points()) {
    models.insert(model_name(exp::resolve_model(p.spec)));
    const AdversaryParams adv = parse_adversary_spec(p.spec.adversary);
    if (adv.rate <= 0.0) {
      adversaries.insert("none");
    } else {
      const bool capped =
          adv.max_burst != std::numeric_limits<std::size_t>::max();
      adversaries.insert(adv.kind == AdversaryKind::UO
                             ? (capped ? "uo:capped" : "uo:burst=inf")
                         : adv.kind == AdversaryKind::NO ? "no"
                                                         : "budget");
      if (adv.side == OmitSide::Starter) adversaries.insert("@starter");
      if (adv.side == OmitSide::Reactor) adversaries.insert("@reactor");
    }
    if (!p.spec.sim.empty()) sims.insert(sim_kind(p));
    for (const Face f : kFaces) {
      if (!applies(p, f)) continue;
      faces.insert(f == Face::Forced ? "forced:" + forced_direction(p)
                                     : face_name(f));
    }
  }
  const auto covers = [](const std::set<std::string>& have,
                         std::initializer_list<const char*> want) {
    for (const char* w : want)
      EXPECT_TRUE(have.count(w) != 0) << "no cell covers " << w;
  };
  covers(models, {"TW", "T1", "T2", "T3", "IT", "IO", "I1", "I2", "I3"});
  covers(adversaries, {"none", "uo:capped", "uo:burst=inf", "no", "budget",
                       "@starter", "@reactor"});
  covers(sims, {"naive", "skno", "sid", "naming"});
  covers(faces, {"batch", "auto", "step", "round", "nocache",
                 "forced:count->agent", "forced:agent->count"});
}

TEST(Conformance, NegativeControlsAreRejected) {
  // The suite has power: a table cell against its side-swapped adversary,
  // and against a reference run for twice the step budget.
  const Point starter = expand_cell(
      {"random@n=7:model=T3:adv=uo@starter:0.5:burst=2:steps=21", 274})[0];
  const Point reactor = expand_cell(
      {"random@n=7:model=T3:adv=uo@reactor:0.5:burst=2:steps=21", 274})[0];
  EXPECT_GT(law_distance(outcomes(reactor, Face::Native, 0),
                         outcomes(starter, Face::Batch, 1)),
            1.0);
  const Point once = expand_cell({"exact-majority@n=8:steps=24"}).front();
  const Point twice = expand_cell({"exact-majority@n=8:steps=48"}).front();
  EXPECT_GT(law_distance(outcomes(twice, Face::Native, 0),
                         outcomes(once, Face::Batch, 1)),
            1.0);
}

}  // namespace
}  // namespace ppfs
