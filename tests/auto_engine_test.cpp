// engine=auto correctness: the adaptive engine (AutoSimEngine in
// engine/batch/dispatch.cpp) must realize exactly the distribution of the
// fixed engines it arbitrates between. The representation bridge moves the
// wrapper-state multiset between count space and agent space with zero Rng
// draws, so switching — whether steered by the RegimeMonitor or forced
// mid-run through SimEngineConfig::auto_force_switch_at — must be invisible
// in distribution over the simulated projection. Checked with two-sample
// chi-square homogeneity against the never-switching batch engine, plus
// unit tests of the RegimeMonitor's hysteresis/cooldown discipline.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "chi_square.hpp"
#include "engine/batch/dispatch.hpp"
#include "engine/batch/regime.hpp"
#include "protocols/pairing.hpp"
#include "protocols/registry.hpp"
#include "sim/sim_rules.hpp"

namespace ppfs {
namespace {

using ppfs::testing::chi_square_homogeneity;
using ppfs::testing::chi_square_limit;
using Counts = ppfs::testing::Counts;
using Space = RegimeMonitor::Space;

// ---------------------------------------------------------------------------
// RegimeMonitor unit behavior
// ---------------------------------------------------------------------------

TEST(RegimeMonitor, FavoredSplitsOnDispersion) {
  EXPECT_EQ(RegimeMonitor::favored(1.0), Space::Agent);
  EXPECT_EQ(RegimeMonitor::favored(0.5), Space::Agent);  // threshold inclusive
  EXPECT_EQ(RegimeMonitor::favored(0.3), Space::Count);
  EXPECT_EQ(RegimeMonitor::favored(0.01), Space::Count);
}

TEST(RegimeMonitor, HysteresisRequiresConsecutiveObservations) {
  RegimeMonitor m(Space::Count);
  // One out-of-band observation is not enough (hysteresis = 2)...
  EXPECT_EQ(m.observe({0.9, 0.0}), Space::Count);
  // ...an in-band one resets the streak...
  EXPECT_EQ(m.observe({0.05, 0.0}), Space::Count);
  EXPECT_EQ(m.observe({0.9, 0.0}), Space::Count);
  // ...and only the second consecutive one switches.
  EXPECT_EQ(m.observe({0.9, 0.0}), Space::Agent);
  EXPECT_EQ(m.switches(), 1u);
}

TEST(RegimeMonitor, CooldownSuppressesImmediateFlapBack) {
  RegimeMonitor m(Space::Count);
  (void)m.observe({0.9, 0.0});
  ASSERT_EQ(m.observe({0.9, 0.0}), Space::Agent);
  // The next `cooldown` observations are ignored even if they argue for
  // count space...
  for (int i = 0; i < m.thresholds().cooldown; ++i)
    EXPECT_EQ(m.observe({0.01, 0.0}), Space::Agent) << "cooldown obs " << i;
  // ...after which a fresh hysteresis streak can flip back.
  EXPECT_EQ(m.observe({0.01, 0.0}), Space::Agent);
  EXPECT_EQ(m.observe({0.01, 0.0}), Space::Count);
  EXPECT_EQ(m.switches(), 2u);
}

TEST(RegimeMonitor, MidBandIsStickyUnlessFiresRunCold) {
  RegimeMonitor sticky(Space::Count);
  // Mid-band dispersion with mostly warm fires never argues for a switch.
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(sticky.observe({0.3, 0.1}), Space::Count);
  EXPECT_EQ(sticky.switches(), 0u);
  // Fires that keep interning fresh ids break the tie toward agent space.
  RegimeMonitor m(Space::Count);
  EXPECT_EQ(m.observe({0.3, 1.2}), Space::Count);
  EXPECT_EQ(m.observe({0.3, 1.2}), Space::Agent);
  // In agent space the same mid-band signal is in-band (no flap back).
  for (int i = 0; i < 8; ++i) (void)m.observe({0.3, 1.2});
  EXPECT_EQ(m.current(), Space::Agent);
  EXPECT_EQ(m.switches(), 1u);
}

TEST(RegimeMonitor, FreshIdWindowsSwitchTheCalibrationCell) {
  // The windows of exact-majority-gap@n=20000, SKnO o = 2, seed 42 — the
  // cell the mid-band rule exists for (its cache hit rate falls from 0.87
  // to 0.46 over them). It leaves count space at the 6th observation,
  // about 3.9e5 interactions in — the step kFreshPerColdFire is
  // calibrated to.
  const RegimeMonitor::Signals windows[] = {
      {0.166, 0.147, 0.931}, {0.282, 0.428, 0.831}, {0.339, 0.605, 0.794},
      {0.372, 0.701, 0.780}, {0.398, 0.786, 0.773}, {0.415, 0.842, 0.761}};
  RegimeMonitor m(Space::Count);
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(m.observe(windows[i]), Space::Count) << "observation " << i + 1;
  EXPECT_EQ(m.observe(windows[5]), Space::Agent);
}

TEST(RegimeMonitor, FireHeavyWindowsOverrideCollapsedDispersion) {
  // A cheap-step source (SID/naming: fire_cost_ratio < 1) concedes
  // fire-heavy windows to agent space even when the universe is fully
  // collapsed — naming's early id-assignment phase runs ~0.2x in count
  // space despite ~3% dispersion.
  RegimeMonitor::Thresholds t;
  t.fire_cost_ratio = 0.25;
  RegimeMonitor m(Space::Count, t);
  EXPECT_EQ(m.observe({0.03, 0.0, 0.9}), Space::Count);  // hysteresis
  EXPECT_EQ(m.observe({0.03, 0.0, 0.9}), Space::Agent);
  // Fires above the ratio also VETO a return to count space...
  for (int i = 0; i < t.cooldown + 4; ++i)
    EXPECT_EQ(m.observe({0.03, 0.0, 0.9}), Space::Agent);
  EXPECT_EQ(m.switches(), 1u);
  // ...and once the run goes no-op-dominated (leapable), collapsed
  // dispersion pulls it back.
  EXPECT_EQ(m.observe({0.03, 0.0, 0.1}), Space::Agent);
  EXPECT_EQ(m.observe({0.03, 0.0, 0.1}), Space::Count);
  EXPECT_EQ(m.switches(), 2u);
  // An expensive-step source (SKnO: ratio > 1) never sees the veto —
  // the same fire-heavy collapsed window stays in count space.
  RegimeMonitor skno(Space::Count);
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(skno.observe({0.03, 0.0, 1.0}), Space::Count);
  EXPECT_EQ(skno.switches(), 0u);
}

TEST(RegimeMonitor, MeasuredFireCostReducesToPriorInWarmWindows) {
  // The windowed cost model: a warm fire costs one cached-fire unit, a
  // cold one re-runs the native value step (the source's
  // fire_cost_ratio, the cold-start PRIOR for that cost). The cold share
  // is the window's fresh ids per fire over kFreshPerColdFire, capped
  // at 1. A window that interns nothing new is exactly the constant model.
  const RegimeMonitor::Thresholds t;  // fire_cost_ratio = 8
  EXPECT_DOUBLE_EQ(RegimeMonitor::measured_fire_cost(0.0, t), 1.0);
  constexpr double kCold = RegimeMonitor::kFreshPerColdFire;
  EXPECT_DOUBLE_EQ(RegimeMonitor::measured_fire_cost(kCold, t),
                   1.0 + t.fire_cost_ratio);
  EXPECT_DOUBLE_EQ(RegimeMonitor::measured_fire_cost(5.0, t),
                   1.0 + t.fire_cost_ratio);
  EXPECT_DOUBLE_EQ(RegimeMonitor::measured_fire_cost(0.5 * kCold, t),
                   1.0 + 0.5 * t.fire_cost_ratio);
}

TEST(RegimeMonitor, MisleadProneRegimeConvergesViaMeasuredCost) {
  // The regression the measured model exists for: an expensive-step
  // source (ratio 8) in a mid-band, fire-heavy window. The static
  // constant model says count space holds (ff 0.95 <= 8, dispersion in
  // band) — but when every fire of the window runs COLD it re-runs the
  // native step on top of the count move, so count space is the wrong
  // face. The measured model (0.95 * (1 + 8) > 8) converges to agent
  // space within hysteresis.
  const RegimeMonitor::Thresholds t;
  RegimeMonitor cold(Space::Count, t);
  const RegimeMonitor::Signals misled{0.3, 2.0, 0.95};
  EXPECT_EQ(cold.observe(misled), Space::Count);  // hysteresis obs 1
  EXPECT_EQ(cold.observe(misled), Space::Agent);  // converged
  EXPECT_EQ(cold.switches(), 1u);
  // Identical window with warm fires is genuinely count-space-friendly
  // (fires cost one cached unit each) and must NOT switch: no fresh ids
  // reduce the measured model to the fire_fraction <= fire_cost_ratio
  // test.
  RegimeMonitor warm(Space::Count, t);
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(warm.observe({0.3, 0.0, 0.95}), Space::Count);
  EXPECT_EQ(warm.switches(), 0u);
}

TEST(RegimeMonitor, NoteForcedAdoptsSpaceAndStartsCooldown) {
  RegimeMonitor m(Space::Count);
  m.note_forced(Space::Agent);
  EXPECT_EQ(m.current(), Space::Agent);
  EXPECT_EQ(m.switches(), 1u);
  // The monitor must not immediately fight the forced switch.
  for (int i = 0; i < m.thresholds().cooldown; ++i)
    EXPECT_EQ(m.observe({0.01, 0.0}), Space::Agent);
  EXPECT_EQ(m.observe({0.01, 0.0}), Space::Agent);
  EXPECT_EQ(m.observe({0.01, 0.0}), Space::Count);
}

// ---------------------------------------------------------------------------
// Distribution equivalence: auto vs the fixed batch engine
// ---------------------------------------------------------------------------

// Distribution of (projected counts [, omissions]) after `interactions`
// physical interactions across seeded trials. The engine is driven in
// `chunk`-sized advance() calls so the auto engine re-evaluates the regime
// (and honors auto_force_switch_at) at realistic mid-run boundaries.
std::map<Counts, std::size_t> chunked_distribution(
    const std::string& kind, std::shared_ptr<const Protocol> protocol,
    const std::vector<State>& initial, const SimEngineConfig& config,
    std::size_t chunk, std::size_t interactions, std::size_t trials,
    std::uint64_t seed) {
  std::map<Counts, std::size_t> dist;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    Rng rng(seed + trial * 7919);
    auto engine = make_sim_engine(kind, protocol, initial, config);
    UniformScheduler sched(initial.size());
    std::size_t done = 0;
    while (done < interactions)
      done += engine->advance(std::min(chunk, interactions - done), sched, rng);
    Counts key = engine->counts();
    if (config.adversary) key.push_back(engine->omissions());
    ++dist[key];
  }
  return dist;
}

void expect_auto_matches_batch(std::shared_ptr<const Protocol> protocol,
                               const std::vector<State>& initial,
                               const SimEngineConfig& auto_config,
                               std::size_t chunk, std::size_t interactions,
                               std::size_t trials, std::uint64_t seed,
                               const std::string& label) {
  SimEngineConfig batch_config = auto_config;
  batch_config.auto_force_switch_at.reset();
  const auto batch =
      chunked_distribution("batch", protocol, initial, batch_config, chunk,
                           interactions, trials, seed);
  const auto adaptive =
      chunked_distribution("auto", protocol, initial, auto_config, chunk,
                           interactions, trials, seed + 1);
  const auto [stat, df] = chi_square_homogeneity(batch, adaptive, trials, trials);
  EXPECT_LE(stat, chi_square_limit(df))
      << label << ": chi2=" << stat << " df=" << df;
}

SimEngineConfig spec_config(const std::string& spec,
                            std::optional<AdversaryParams> adversary = {}) {
  SimEngineConfig config;
  config.spec = parse_sim_spec(spec);
  config.adversary = adversary;
  return config;
}

TEST(AutoEngine, SidMatchesBatch) {
  // SID starts fully dispersed (every agent a distinct wrapper), so auto
  // runs the whole workload in agent space — the row that was 0.019x in
  // count space. The projected distribution must still match batch exactly.
  const std::size_t n = 8;
  const Workload w = standard_workloads(n)[3];  // exact-majority
  expect_auto_matches_batch(w.protocol, w.initial, spec_config("sid"), n,
                            12 * n, 120, 4101, "auto/sid");
}

TEST(AutoEngine, NamingMatchesBatch) {
  // Naming starts collapsed (everyone my_id = 1) and disperses as ids
  // spread: the natural count -> agent mid-run switch path.
  const std::size_t n = 6;
  const Workload w = standard_workloads(n)[3];
  expect_auto_matches_batch(w.protocol, w.initial, spec_config("naming"), n,
                            16 * n, 120, 4201, "auto/naming");
}

TEST(AutoEngine, SknoMatchesBatch) {
  const std::size_t n = 8;
  auto p = make_pairing_protocol();
  const auto st = pairing_states();
  std::vector<State> init(n, st.consumer);
  init[0] = init[1] = init[2] = st.producer;
  expect_auto_matches_batch(p, init, spec_config("skno:o=1"), n, 10 * n, 120,
                            4301, "auto/skno");
}

TEST(AutoEngine, SknoUnderAdversaryMatchesBatch) {
  // Under an adversary the auto engine still arbitrates, carrying its one
  // omission process across any switch; the omission stream is appended
  // to the category so it must match too.
  const std::size_t n = 8;
  const Workload w = standard_workloads(n)[3];
  AdversaryParams adv;
  adv.kind = AdversaryKind::Budget;
  adv.max_omissions = 2;
  adv.rate = 0.2;
  expect_auto_matches_batch(w.protocol, w.initial,
                            spec_config("skno:o=2", adv), n, 8 * n, 120, 4401,
                            "auto/skno+budget");
}

TEST(AutoEngine, SidUnderAdversaryMatchesBatch) {
  // Agent-space adversary path: SID starts dispersed, so auto runs agent
  // space and hands the driver its OmissionProcess on every advance().
  const std::size_t n = 8;
  const Workload w = standard_workloads(n)[0];  // or
  AdversaryParams adv;
  adv.kind = AdversaryKind::UO;
  adv.rate = 0.25;
  expect_auto_matches_batch(w.protocol, w.initial, spec_config("sid", adv), n,
                            8 * n, 120, 4501, "auto/sid+uo");
}

TEST(AutoEngine, ForcedMidRunSwitchMatchesBatch) {
  // The tentpole invariant, ctest-enforced: force one representation
  // switch at a deterministic mid-run boundary (both directions) and pin
  // the bridge distribution-exact against the never-switching engine.
  const std::size_t n = 8;
  const Workload w = standard_workloads(n)[3];
  // SID starts in agent space -> forced agent -> count switch.
  SimEngineConfig sid = spec_config("sid");
  sid.auto_force_switch_at = 6 * n;
  expect_auto_matches_batch(w.protocol, w.initial, sid, n, 12 * n, 120, 4601,
                            "auto/sid forced agent->count");
  // Naming starts in count space -> forced count -> agent switch.
  const Workload wn = standard_workloads(6)[3];
  SimEngineConfig naming = spec_config("naming");
  naming.auto_force_switch_at = 5 * 6;
  expect_auto_matches_batch(wn.protocol, wn.initial, naming, 6, 12 * 6, 120,
                            4701, "auto/naming forced count->agent");
}

// ---------------------------------------------------------------------------
// The carried omission process
// ---------------------------------------------------------------------------

TEST(AutoEngine, PaperCellLeavesCountSpaceUnderAdversary) {
  // The Thm 4.1 cell: pairing at n = 16 in I3 under budget:2:0.02. It
  // starts collapsed (count space) and disperses within a few
  // observations. The omission process rides the bridge, so the run ends
  // in agent space after exactly one switch with the whole budget spent.
  const std::size_t n = 16;
  const Workload w = find_workload("pairing", n);
  SimEngineConfig config =
      spec_config("skno:o=2", parse_adversary_spec("budget:2:0.02"));
  config.model = Model::I3;
  auto engine = make_sim_engine("auto", w.protocol, w.initial, config);
  EXPECT_EQ(engine->active_kind(), "count");
  UniformScheduler sched(n);
  Rng rng(5001);
  (void)run_engine_steps(*engine, sched, rng, 100000);
  EXPECT_EQ(engine->interactions(), 100000u);
  EXPECT_EQ(engine->active_kind(), "agent");
  engine->sync_metrics();
  EXPECT_EQ(engine->metrics()->gauge("auto.switches").value(), 1.0);
  EXPECT_EQ(engine->omissions(), 2u);
}

TEST(AutoEngine, ForcedSwitchMidBurstMatchesBatch) {
  // A capped-burst UO adversary (rate 0.5, at most 2 omissions in a row):
  // a forced switch lands inside a burst on a large share of the trials,
  // so the burst counter must cross the bridge intact, in both
  // directions, for the omission stream to match the fixed engine.
  const std::size_t n = 8;
  const Workload w = standard_workloads(n)[3];
  const AdversaryParams adv = parse_adversary_spec("uo:0.5:burst=2");
  // SKnO starts collapsed: forced count -> agent at the first boundary,
  // before the monitor's second observation could switch it.
  SimEngineConfig skno = spec_config("skno:o=2", adv);
  skno.auto_force_switch_at = n;
  expect_auto_matches_batch(w.protocol, w.initial, skno, n, 10 * n, 120, 5101,
                            "auto/skno+uo:burst=2 forced count->agent");
  // SID starts dispersed: forced agent -> count.
  SimEngineConfig sid = spec_config("sid", adv);
  sid.auto_force_switch_at = 3 * n;
  expect_auto_matches_batch(w.protocol, w.initial, sid, n, 10 * n, 120, 5201,
                            "auto/sid+uo:burst=2 forced agent->count");
}

TEST(AutoEngine, QuietHorizonIsGlobalAcrossForcedSwitch) {
  // no:Q at rate 1 with no burst cap omits every delivery before global
  // step Q and none after. A count face that restarted its step count at
  // the bridge would keep omitting past Q; the carried global step stops
  // it exactly there. Both runs are forced into count space shortly
  // before Q (SID from its agent-space start; SKnO after the monitor has
  // taken it to agent space) and the cooldown keeps them there across Q.
  const std::size_t n = 8;
  const std::size_t q = 200;
  const Workload w = standard_workloads(n)[3];
  const AdversaryParams adv = parse_adversary_spec("no:200:1.0:burst=inf");
  for (const char* sim : {"skno:o=2", "sid"}) {
    SimEngineConfig config = spec_config(sim, adv);
    config.auto_force_switch_at = q - 2 * n;
    auto engine = make_sim_engine("auto", w.protocol, w.initial, config);
    UniformScheduler sched(n);
    Rng rng(5301);
    std::size_t done = 0;
    while (done < 2 * q) {
      if (done == q - 3 * n) {
        EXPECT_EQ(engine->active_kind(), "agent") << sim;
      }
      if (done == q) {
        EXPECT_EQ(engine->active_kind(), "count") << sim;
      }
      done += engine->advance(n, sched, rng);
      ASSERT_EQ(engine->omissions(), std::min(done, q))
          << sim << " after " << done << " interactions on the "
          << engine->active_kind() << " face";
    }
  }
}

// ---------------------------------------------------------------------------
// Engine facade behavior
// ---------------------------------------------------------------------------

TEST(AutoEngine, ReportsActiveKindAndSwitchGauges) {
  const std::size_t n = 8;
  const Workload w = standard_workloads(n)[3];
  UniformScheduler sched(n);
  Rng rng(4801);
  // SID: dispersion 1.0 from step 0 — agent space immediately, no switch.
  auto sid = make_sim_engine("auto", w.protocol, w.initial, spec_config("sid"));
  EXPECT_EQ(sid->kind(), "auto");
  EXPECT_EQ(sid->active_kind(), "agent");
  (void)sid->advance(4 * n, sched, rng);
  EXPECT_EQ(sid->active_kind(), "agent");
  sid->sync_metrics();
  EXPECT_EQ(sid->metrics()->gauge("auto.agent_space").value(), 1.0);

  // A forced switch is visible through active_kind() and the gauge.
  SimEngineConfig forced = spec_config("sid");
  forced.auto_force_switch_at = 2 * n;
  auto sw = make_sim_engine("auto", w.protocol, w.initial, forced);
  EXPECT_EQ(sw->active_kind(), "agent");
  std::size_t done = 0;
  while (done < 4 * n) done += sw->advance(n, sched, rng);
  EXPECT_EQ(sw->active_kind(), "count");
  sw->sync_metrics();
  EXPECT_EQ(sw->metrics()->gauge("auto.switches").value(), 1.0);
  // Interactions and fires keep accumulating across the switch in the
  // master stats record.
  EXPECT_EQ(sw->interactions(), done);
  EXPECT_EQ(sw->stats().total_fires() + sw->stats().noops(), done);
}

TEST(AutoEngine, NamingSwitchesToAgentSpaceMidRun) {
  // Deterministic-seed pin of the natural regime trajectory: naming at
  // small n disperses past the to_agent threshold as ids spread, and the
  // monitor (hysteresis 2) must take the count -> agent switch unforced.
  const std::size_t n = 6;
  const Workload w = standard_workloads(n)[3];
  auto engine = make_sim_engine("auto", w.protocol, w.initial,
                                spec_config("naming"));
  EXPECT_EQ(engine->active_kind(), "count");
  UniformScheduler sched(n);
  Rng rng(4901);
  std::size_t done = 0;
  while (done < 40 * n) done += engine->advance(n, sched, rng);
  EXPECT_EQ(engine->active_kind(), "agent");
  engine->sync_metrics();
  EXPECT_GE(engine->metrics()->gauge("auto.switches").value(), 1.0);
}

TEST(AutoEngine, ClosedUniverseAutoArbitratesLeapAndRound) {
  // Closed protocols have no dispersion to monitor, but they do have a
  // fire-density regime: make_engine("auto", ...) is the adaptive batch
  // engine, running the count-leap or round-dense face over one
  // BatchSystem.
  const std::size_t n = 8;
  const Workload w = standard_workloads(n)[3];
  auto engine = make_engine("auto", w.protocol, w.initial);
  EXPECT_EQ(engine->kind(), "auto");
  EXPECT_TRUE(engine->active_kind() == "leap" ||
              engine->active_kind() == "round");
  const auto& kinds = engine_kinds();
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), "auto"), kinds.end());
}

TEST(AutoEngine, BatchIsTheCountFacePinned) {
  // beacon-or on IT is fully dense, so auto runs it on the round face
  // (round_bign_test); engine=batch is the same engine held on the leap
  // face. Pinned engines report "batch" throughout, build no monitor —
  // hence no auto.* gauge — and attach no registry of their own.
  const std::size_t n = 1'000'000;
  const OneWayWorkload w = find_one_way_workload("beacon-or", n, Model::IT);
  EngineConfig config;
  config.model = Model::IT;
  auto adaptive =
      make_engine_from_counts("auto", w.protocol, w.initial_counts, config);
  auto pinned =
      make_engine_from_counts("batch", w.protocol, w.initial_counts, config);
  EXPECT_EQ(pinned->metrics(), nullptr);
  pinned->enable_metrics();
  UniformScheduler sched(n);
  Rng rng_a(5101);
  Rng rng_p(5102);
  for (int slice = 0; slice < 8; ++slice) {
    (void)run_engine_steps(*adaptive, sched, rng_a, 1u << 16);
    (void)run_engine_steps(*pinned, sched, rng_p, 1u << 16);
    EXPECT_EQ(pinned->kind(), "batch");
    EXPECT_EQ(pinned->active_kind(), "batch");
  }
  EXPECT_EQ(adaptive->active_kind(), "round");
  pinned->sync_metrics();
  for (const auto& [name, gauge] : pinned->metrics()->gauges())
    EXPECT_NE(name.rfind("auto.", 0), 0u) << name;

  // Open universe: SID starts auto in agent space; batch stays in count
  // space with the same discipline.
  const Workload sw = standard_workloads(8)[3];
  auto sim_auto =
      make_sim_engine("auto", sw.protocol, sw.initial, spec_config("sid"));
  auto sim_pinned =
      make_sim_engine("batch", sw.protocol, sw.initial, spec_config("sid"));
  EXPECT_EQ(sim_auto->active_kind(), "agent");
  EXPECT_EQ(sim_pinned->metrics(), nullptr);
  sim_pinned->enable_metrics();
  UniformScheduler sim_sched(8);
  Rng rng_s(5103);
  (void)run_engine_steps(*sim_pinned, sim_sched, rng_s, 1u << 12);
  EXPECT_EQ(sim_pinned->kind(), "batch");
  EXPECT_EQ(sim_pinned->active_kind(), "batch");
  sim_pinned->sync_metrics();
  for (const auto& [name, gauge] : sim_pinned->metrics()->gauges())
    EXPECT_NE(name.rfind("auto.", 0), 0u) << name;
}

}  // namespace
}  // namespace ppfs
