// Lightweight run statistics shared by tests and benches.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "util/binio.hpp"

namespace ppfs {

// Streaming summary (count / mean / variance / max) without storing
// samples. Second moments use Welford's update with Chan et al.'s pairwise
// merge, so merging partial summaries is numerically stable and (up to
// floating rounding) order-insensitive.
class StreamStat {
 public:
  void add(double v) noexcept {
    const double mean_old = count_ ? sum_ / static_cast<double>(count_) : 0.0;
    ++count_;
    sum_ += v;
    m2_ += (v - mean_old) * (v - sum_ / static_cast<double>(count_));
    max_ = std::max(max_, v);
    min_ = count_ == 1 ? v : std::min(min_, v);
  }
  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept { return count_ ? sum_ / count_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double min() const noexcept { return min_; }
  // Population variance (and its root). 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept {
    return count_ ? m2_ / static_cast<double>(count_) : 0.0;
  }
  [[nodiscard]] double stddev() const noexcept { return std::sqrt(variance()); }

  // Fold another summary in. Count/sum/extrema are exact whenever the
  // summed values make floating addition exact (integer-valued samples
  // below 2^53 — interaction counts, token counts, rollback tallies, which
  // is what the experiment layer feeds it); the second moment uses Chan's
  // parallel combination, associative up to floating rounding.
  void merge(const StreamStat& o) noexcept {
    if (o.count_ == 0) return;
    if (count_ == 0) {
      *this = o;
      return;
    }
    const double na = static_cast<double>(count_);
    const double nb = static_cast<double>(o.count_);
    const double delta = o.sum_ / nb - sum_ / na;
    m2_ += o.m2_ + delta * delta * (na * nb / (na + nb));
    count_ += o.count_;
    sum_ += o.sum_;
    max_ = std::max(max_, o.max_);
    min_ = std::min(min_, o.min_);
  }

  friend bool operator==(const StreamStat&, const StreamStat&) = default;

  // Bit-exact checkpoint round-trip (doubles as raw IEEE-754 words).
  void save_state(bin::Writer& w) const {
    w.var(count_);
    w.f64(sum_);
    w.f64(m2_);
    w.f64(max_);
    w.f64(min_);
  }
  void restore_state(bin::Reader& r) {
    count_ = r.var();
    sum_ = r.f64();
    m2_ = r.f64();
    max_ = r.f64();
    min_ = r.f64();
  }

 private:
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double m2_ = 0.0;  // sum of squared deviations from the running mean
  double max_ = 0.0;
  double min_ = 0.0;
};

struct RunResult {
  std::size_t steps = 0;        // physical interactions driven
  bool converged = false;       // probe held for the stability window
  std::size_t omissions = 0;    // omissive interactions delivered
};

// Per-run accounting fed by the engines: how often each ordered rule
// (s, r) fired, how many scheduled interactions were no-ops, and when the
// run's convergence probe started holding for good. The native engine
// records one event per interaction; the batch engine feeds whole
// BatchDeltas (engine/batch/configuration.hpp), so a single call may cover
// millions of scheduler steps.
class RunStats {
 public:
  RunStats() = default;
  explicit RunStats(std::size_t num_states);

  void reset(std::size_t num_states);

  // A count-changing rule delta(s, r) fired `times` times. Inline: the
  // engines call it once per fire.
  void record_fire(State s, State r, std::uint64_t times = 1) {
    if (s >= q_ || r >= q_) [[unlikely]]
      state_out_of_range("RunStats::record_fire");
    fires_[static_cast<std::size_t>(s) * q_ + r] += times;
    total_fires_ += times;
  }
  // `times` scheduled interactions left the configuration unchanged.
  void record_noops(std::uint64_t times) noexcept { noops_ += times; }

  // --- per-model omission accounting ---------------------------------------
  // `times` omissive interactions whose faulty outcome changed the
  // configuration (counts toward fires(s, r) and the omission tally).
  void record_omissive_fire(State s, State r, std::uint64_t times = 1);
  // `times` omissive interactions whose faulty outcome was a no-op (counts
  // toward noops and the omission tally).
  void record_omissive_noops(std::uint64_t times) noexcept {
    noops_ += times;
    omissions_ += times;
  }

  // Convergence-step tracking: report each probe evaluation with the
  // current interaction count. convergence_step() is the earliest step at
  // which the probe held and never reported false again.
  void record_probe(std::size_t step, bool holds) noexcept;

  // Fold another run's fire/no-op/omission accounting in (the auto engine
  // accumulates per-representation slices into one master record). Probe
  // and convergence tracking are deliberately NOT merged: only the stats
  // owner sees probe evaluations, and the folded-in slices never do.
  // Requires matching num_states (an empty *this adopts o's).
  void merge(const RunStats& o);

  [[nodiscard]] std::size_t num_states() const noexcept { return q_; }
  [[nodiscard]] std::uint64_t fires(State s, State r) const;
  [[nodiscard]] std::uint64_t total_fires() const noexcept { return total_fires_; }
  [[nodiscard]] std::uint64_t noops() const noexcept { return noops_; }
  [[nodiscard]] std::uint64_t interactions() const noexcept {
    return total_fires_ + noops_;
  }
  // Omissive interactions delivered (no-op or not) and the subset that
  // changed the configuration.
  [[nodiscard]] std::uint64_t omissions() const noexcept { return omissions_; }
  [[nodiscard]] std::uint64_t omissive_fires() const noexcept {
    return omissive_fires_;
  }

  // kNoConvergence if the probe never held (or broke and never re-held).
  static constexpr std::size_t kNoConvergence = static_cast<std::size_t>(-1);
  [[nodiscard]] std::size_t convergence_step() const noexcept;

  // The `k` most-fired rules, descending; ties broken by (s, r) order.
  struct RuleCount {
    State s;
    State r;
    std::uint64_t count;
    friend bool operator==(const RuleCount&, const RuleCount&) = default;
  };
  [[nodiscard]] std::vector<RuleCount> top_rules(std::size_t k) const;

  // Checkpoint round-trip: the full accounting state, including the probe
  // face (first_holding_/holding_) so a resumed run's convergence_step()
  // matches the uninterrupted run exactly.
  void save_state(bin::Writer& w) const;
  void restore_state(bin::Reader& r);

 private:
  // The range checks' throw, out of line.
  [[noreturn]] static void state_out_of_range(const char* who);

  std::size_t q_ = 0;
  std::vector<std::uint64_t> fires_;  // q_ * q_ dense, row = starter state
  std::uint64_t total_fires_ = 0;
  std::uint64_t noops_ = 0;
  std::uint64_t omissions_ = 0;
  std::uint64_t omissive_fires_ = 0;
  std::size_t first_holding_ = kNoConvergence;
  bool holding_ = false;
};

}  // namespace ppfs
