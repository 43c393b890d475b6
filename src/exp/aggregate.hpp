// Mergeable per-scenario statistics for the experiment layer.
//
// Every trial of a scenario point produces one ReplicaResult; a scenario's
// AggregateStats is the associative fold of its replicas in trial order.
// Because add() and merge() are associative and order-insensitive (sorted
// sample multisets, integer-exact sums), a sweep aggregated by one thread
// is byte-identical to the same sweep aggregated by sixteen — the property
// the determinism tests (tests/exp_determinism_test.cpp) pin down.
//
// Quantiles are exact: trial counts are small (tens to low thousands), so
// we keep the sorted interaction-count samples and answer p50/p90/p99 by
// nearest-rank lookup instead of a streaming P^2 estimate.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/stats.hpp"

namespace ppfs::exp {

// The outcome of one replica (one trial of one scenario point). `extras`
// carries scenario-kind-specific metrics — matching-verification results,
// simulator memory/rollback/naming counters — keyed by stable names so
// they aggregate and report generically.
struct ReplicaResult {
  RunResult run{};
  std::size_t convergence_step = RunStats::kNoConvergence;
  std::uint64_t fires = 0;
  std::uint64_t noops = 0;
  std::uint64_t omissive_fires = 0;
  std::map<std::string, double> extras;
  // Flight-recorder timeline (newline-terminated JSONL, schema
  // ppfs.flight.v1); empty unless the scenario set metrics_every > 0.
  // Carried per replica, not aggregated — consumers (ppfs_cli
  // --metrics-out) concatenate them in trial order.
  std::string flight;
  // Delta-encoded trajectory frames (util/trajectory.hpp); empty unless
  // the scenario set traj_every > 0. Like `flight`, carried per replica
  // and persisted by the sweep service's trajectory store, never
  // aggregated.
  std::string traj;
  // Non-empty = the replica threw; excluded from every distributional
  // column, counted in failed().
  std::string error;
  [[nodiscard]] bool failed() const noexcept { return !error.empty(); }
};

class AggregateStats {
 public:
  // Fold one replica in.
  void add(const ReplicaResult& r);
  // Fold another aggregate in; associative and order-insensitive.
  void merge(const AggregateStats& o);

  [[nodiscard]] std::size_t trials() const noexcept { return trials_; }
  [[nodiscard]] std::size_t failed() const noexcept { return failed_; }
  [[nodiscard]] std::size_t completed() const noexcept {
    return trials_ - failed_;
  }
  [[nodiscard]] std::size_t converged() const noexcept { return converged_; }
  [[nodiscard]] double convergence_rate() const noexcept {
    return completed() ? static_cast<double>(converged_) / completed() : 0.0;
  }

  // Physical interaction counts across completed replicas.
  [[nodiscard]] const StreamStat& interactions() const noexcept {
    return interactions_;
  }
  // Exact nearest-rank quantile over the sorted samples (q in [0, 1]).
  [[nodiscard]] std::uint64_t interactions_quantile(double q) const;
  [[nodiscard]] const std::vector<std::uint64_t>& interaction_samples()
      const noexcept {
    return samples_;
  }

  // Convergence step (RunStats::convergence_step) over converged replicas.
  [[nodiscard]] const StreamStat& convergence_steps() const noexcept {
    return convergence_steps_;
  }

  // Omission accounting totals across completed replicas.
  [[nodiscard]] std::uint64_t omissions() const noexcept { return omissions_; }
  [[nodiscard]] std::uint64_t omissive_fires() const noexcept {
    return omissive_fires_;
  }
  [[nodiscard]] std::uint64_t fires() const noexcept { return fires_; }
  [[nodiscard]] std::uint64_t noops() const noexcept { return noops_; }

  [[nodiscard]] const std::map<std::string, StreamStat>& extras()
      const noexcept {
    return extras_;
  }

  // Byte-stable serialization (hexfloat doubles) — what the determinism
  // tests compare across thread counts.
  [[nodiscard]] std::string fingerprint() const;

  // Binary round-trip for sweep partials (bit-exact doubles via
  // util/binio.hpp): a restored aggregate compares equal to the original.
  void save_state(bin::Writer& w) const;
  void restore_state(bin::Reader& r);

  friend bool operator==(const AggregateStats&, const AggregateStats&) = default;

 private:
  std::size_t trials_ = 0;
  std::size_t converged_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::uint64_t> samples_;  // sorted, completed replicas only
  StreamStat interactions_;
  StreamStat convergence_steps_;
  std::uint64_t omissions_ = 0;
  std::uint64_t fires_ = 0;
  std::uint64_t noops_ = 0;
  std::uint64_t omissive_fires_ = 0;
  std::map<std::string, StreamStat> extras_;
};

}  // namespace ppfs::exp
