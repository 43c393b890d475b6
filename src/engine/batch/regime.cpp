#include "engine/batch/regime.hpp"

namespace ppfs {

RegimeMonitor::Space RegimeMonitor::observe(const Signals& s) {
  if (cooldown_left_ > 0) {
    --cooldown_left_;
    streak_ = 0;
    return space_;
  }
  // What this observation argues for, if anything. The mid band between
  // the two thresholds is sticky by default; a window of mostly cold fires
  // breaks the tie toward agent space (see the header).
  bool wants_agent = s.dispersion >= t_.to_agent;
  bool wants_count = s.dispersion <= t_.to_count;
  if (s.fire_fraction * measured_fire_cost(s.fresh_per_fire, t_) >
      t_.fire_cost_ratio) {
    // The window's measured count-space fire cost exceeds the native
    // per-step cost: fires dominate and each one is cheaper stepped as a
    // record than cached+interned as a count move — collapsed or not,
    // count space loses this regime (see the header: naming's early
    // id-assignment phase vs SKnO's expensive value step). With a fully
    // warm window this is the classic fire_fraction > fire_cost_ratio
    // test; cold fires scale the left side up, because each re-runs the
    // native value step on top of the count move.
    wants_agent = true;
    wants_count = false;
  }
  if (!wants_agent && !wants_count &&
      cold_share(s.fresh_per_fire) > t_.mid_cold_share)
    wants_agent = true;
  const bool out_of_band = (space_ == Space::Count && wants_agent) ||
                           (space_ == Space::Agent && wants_count);
  if (!out_of_band) {
    streak_ = 0;
    return space_;
  }
  if (++streak_ < t_.hysteresis) return space_;
  space_ = space_ == Space::Count ? Space::Agent : Space::Count;
  streak_ = 0;
  cooldown_left_ = t_.cooldown;
  ++switches_;
  return space_;
}

}  // namespace ppfs
