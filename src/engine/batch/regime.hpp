// RegimeMonitor: the decision core of engine=auto (dispatch.hpp). Simulator
// runs live in one of two execution representations — count space
// (SimBatchSystem over interned wrapper states) or agent space
// (AgentSpaceSim over per-agent records) — and which one is faster is a
// property of the RUN'S REGIME, not the protocol: SKnO at n = 10^6 keeps
// ~5% dispersion and count space leaps; SKnO at n = 50 disperses to ~1
// state per agent and count space pays intern/index overhead per
// interaction for nothing; naming STARTS collapsed (everyone my_id = 1)
// and disperses mid-run as ids spread.
//
// The monitor reads the signals the engines already export into the
// MetricRegistry (dispatch syncs them at slice boundaries):
//
//   * dispersion  = universe.live / n   (count space: the live-universe
//     gauge; agent space: the driver's hashed distinct-wrapper estimate).
//     The primary signal: >= to_agent favors per-agent records, <=
//     to_count favors counts and leaping.
//   * fire fraction over the last observation window (master RunStats
//     deltas) against the SOURCE'S fire-cost ratio
//     (DynamicRuleSource::fire_cost_ratio — estimated native value-step
//     cost over count-space cached-fire cost). Dispersion alone cannot
//     tell these regimes apart: SKnO at n = 10^6 and naming at n = 4096
//     both run collapsed universes with fire-heavy windows, but SKnO's
//     value step (token-queue machinery) costs several cached fires, so
//     count space wins 10x, while naming's value step is a trivial struct
//     update, so count space paying a patched intern per fire LOSES 5x to
//     plain stepping. Count space is therefore only tenable while
//     fire_fraction <= fire_cost_ratio — above it, fires dominate the
//     window and each one is cheaper executed as a record step.
//   * fresh wrapper ids per fire over the last observation window: the
//     encodings the window's fires interned that were not live
//     (DynamicRuleSource::fresh_interned). Every fresh id is the product
//     of a cold fire — a cache serves only live successors — so this reads
//     the window's cold-fire share without looking at any cache: by the
//     cache-invisibility contract it is a function of the trajectory
//     alone, and a restored checkpoint observes exactly what the
//     uninterrupted run did. A secondary, mid-band accelerator only: a
//     warm run does not rescue a dispersed one (SKnO at n = 50 runs ~99%
//     cache hits and still loses 4x in count space — the per-interaction
//     index machinery, not outcome evaluation, dominates), so high
//     dispersion switches regardless; but a rising fresh-id rate in the
//     mid band is evidence the pair working set keeps leaving what is
//     live, and agent space will win sooner.
//
// Switch discipline (the no-flap contract): `hysteresis` consecutive
// out-of-band observations are required before a switch, and `cooldown`
// observations after one before the next may even be considered. Signals
// drift monotonically in these protocols (dispersion rises as ids/tokens
// spread), so in practice at most one or two switches happen per run; the
// hysteresis exists for the noisy neighborhood of a threshold.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "util/binio.hpp"

namespace ppfs {

class RegimeMonitor {
 public:
  enum class Space : std::uint8_t { Count, Agent };

  struct Thresholds {
    double to_agent = 0.5;     // dispersion at/above which agent space wins
    double to_count = 0.125;   // dispersion at/below which count space wins
    double mid_cold_share = 0.5;  // mid-band: cold share above this => agent
    // Source's native-step / cached-fire cost estimate
    // (DynamicRuleSource::fire_cost_ratio) — the COLD-START PRIOR of the
    // measured cost model: count space holds only while the windowed
    // fire fraction times measured_fire_cost(fresh_per_fire) stays
    // at/below it. In a window that interns nothing new that reduces to
    // fire_fraction <= fire_cost_ratio; cold fires inflate the per-fire
    // cost by the prior, since each re-runs the native value step. The
    // default is inert (fractions never exceed 1).
    double fire_cost_ratio = 8.0;
    int hysteresis = 2;        // consecutive out-of-band obs to switch
    int cooldown = 4;          // observations after a switch with no change
  };

  struct Signals {
    double dispersion = 0.0;       // distinct wrapper states / n
    double fresh_per_fire = 0.0;   // windowed; 0.0 = no signal/neutral
    double fire_fraction = 0.0;    // windowed fires / interactions covered
  };

  explicit RegimeMonitor(Space start) : space_(start) {}
  RegimeMonitor(Space start, const Thresholds& t) : t_(t), space_(start) {}

  // The representation favored a priori at dispersion `d` (run start: no
  // window history yet).
  [[nodiscard]] static Space favored(double d, const Thresholds& t) {
    return d >= t.to_agent ? Space::Agent : Space::Count;
  }
  [[nodiscard]] static Space favored(double d) {
    return favored(d, Thresholds());
  }

  // Fresh ids per fire at which a window reads as all cold. Calibrated on
  // SKnO at n = 20000, o = 2: near the mid-band decision its windows
  // intern ~1.5 fresh ids per cache miss, so a cold share of 0.5 sits
  // where a 0.5 cache hit rate did.
  static constexpr double kFreshPerColdFire = 1.5;

  // Share of the window's fires that ran cold, estimated from the fresh
  // ids they interned (capped at 1).
  [[nodiscard]] static double cold_share(double fresh_per_fire) {
    return std::min(1.0, fresh_per_fire / kFreshPerColdFire);
  }

  // MEASURED per-fire count-space cost for the window, in cached-fire
  // units: a warm fire costs one unit, a cold one re-runs the native value
  // step (the source's fire_cost_ratio — a cold-start PRIOR for that
  // cost) on top of it. Deterministic and draw-free. With no fresh ids
  // (a warm window, or no signal at all) this is exactly the constant
  // model.
  [[nodiscard]] static double measured_fire_cost(double fresh_per_fire,
                                                 const Thresholds& t) {
    return 1.0 + cold_share(fresh_per_fire) * t.fire_cost_ratio;
  }

  // Feed one observation; returns the representation to run in from now
  // on (== current() — the monitor never demands a mid-slice switch).
  Space observe(const Signals& s);

  // An externally-forced switch happened (the auto engine's test hook):
  // adopt the new space and start a cooldown so the monitor does not
  // immediately fight it.
  void note_forced(Space now) {
    space_ = now;
    streak_ = 0;
    cooldown_left_ = t_.cooldown;
    ++switches_;
  }

  [[nodiscard]] Space current() const noexcept { return space_; }
  [[nodiscard]] std::size_t switches() const noexcept { return switches_; }
  [[nodiscard]] const Thresholds& thresholds() const noexcept { return t_; }

  // Checkpoint round-trip of the decision face (thresholds come back from
  // the engine config). The streak/cooldown counters matter: a resumed run
  // must make the same switch decisions at the same observation indices.
  void save_state(bin::Writer& w) const {
    w.u8(space_ == Space::Agent ? 1 : 0);
    w.zig(streak_);
    w.zig(cooldown_left_);
    w.var(switches_);
  }
  void restore_state(bin::Reader& r) {
    space_ = r.u8() ? Space::Agent : Space::Count;
    streak_ = static_cast<int>(r.zig());
    cooldown_left_ = static_cast<int>(r.zig());
    switches_ = r.var();
  }

 private:
  Thresholds t_;
  Space space_;
  int streak_ = 0;           // consecutive observations favoring !space_
  int cooldown_left_ = 0;
  std::size_t switches_ = 0;
};

}  // namespace ppfs
