// Count-based view of a configuration: instead of the explicit n-tuple of
// local states (core/population.hpp), store how many agents occupy each
// state. Under the uniform scheduler agents are exchangeable, so the count
// vector is a lossless projection of the configuration as far as the
// dynamics are concerned — this is the representation that lets the batch
// engine advance whole runs of interactions in O(q^2) work (Berenbrink et
// al., arXiv:2005.03584).
#pragma once

#include <memory>
#include <vector>

#include "core/population.hpp"
#include "core/protocol.hpp"
#include "core/types.hpp"

namespace ppfs {

// Summary of one BatchSystem::advance call: how many uniform-scheduler
// interactions the batch covered and which count-changing rule (if any)
// fired at its end. Consumed by RunStats (engine/stats.hpp) and by the
// delta-level trace of the batch engine.
struct BatchDelta {
  std::size_t interactions = 0;  // scheduler steps covered by the batch
  std::size_t noops = 0;         // of which left the configuration unchanged
  std::size_t omissions = 0;     // of which were inserted omissive draws
  bool fired = false;            // did a count-changing rule fire?
  bool omissive = false;         // ... as the outcome of an omissive draw?
  State s = kNoState;            // pre-states of the fired rule (ordered)
  State r = kNoState;
  StatePair out{kNoState, kNoState};  // post-states of the fired rule
};

// Common output of all occupied states in a count vector, or -1 if any
// occupied state has no output / outputs disagree — the count-level
// counterpart of Population::consensus_output. Shared by Configuration and
// the engine facade.
[[nodiscard]] int counts_consensus_output(const std::vector<std::size_t>& counts,
                                          const Protocol& protocol);

class Configuration {
 public:
  // `counts[q]` = number of agents in state q; must sum to n >= 1 and have
  // one entry per protocol state.
  Configuration(std::shared_ptr<const Protocol> protocol,
                std::vector<std::size_t> counts);

  [[nodiscard]] static Configuration from_population(const Population& pop);

  // Canonical expansion: agents grouped by ascending state id. Any
  // population with these counts is equivalent under exchangeability.
  [[nodiscard]] Population to_population() const;

  [[nodiscard]] const Protocol& protocol() const noexcept { return *protocol_; }
  [[nodiscard]] std::shared_ptr<const Protocol> protocol_ptr() const {
    return protocol_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] std::size_t num_states() const noexcept { return counts_.size(); }
  [[nodiscard]] const std::vector<std::size_t>& counts() const noexcept {
    return counts_;
  }
  [[nodiscard]] std::size_t count(State q) const { return counts_.at(q); }

  // Fire delta(s, r) once at the count level. Requires the pre-states to be
  // populated (count(s) >= 1, and >= 2 when s == r).
  void apply_pair(State s, State r);

  // Fire an explicit outcome (s, r) -> out at the count level — the move a
  // model-generic rule (including omissive classes, which need not equal
  // the protocol's delta) makes. Same pre-state population requirement;
  // every state must be in range. Inline: the count-space engines call it
  // once per fire.
  void apply_outcome(State s, State r, StatePair out) {
    const std::size_t q = counts_.size();
    if (s >= q || r >= q || out.starter >= q || out.reactor >= q ||
        counts_[s] < 1 + static_cast<std::size_t>(s == r) ||
        counts_[r] < 1) [[unlikely]]
      bad_outcome(s, r, out);
    --counts_[s];
    --counts_[r];
    ++counts_[out.starter];
    ++counts_[out.reactor];
  }

  // Move `k` agents from state `from` to state `to` (count(from) >= k).
  void move(State from, State to, std::size_t k);

  // Same notion as Population::consensus_output: the common output of all
  // occupied states, or -1.
  [[nodiscard]] int consensus_output() const;

  friend bool operator==(const Configuration& a, const Configuration& b) {
    return a.counts_ == b.counts_;
  }

 private:
  // The throw of apply_outcome, out of line: which check failed.
  [[noreturn]] void bad_outcome(State s, State r, StatePair out) const;

  std::shared_ptr<const Protocol> protocol_;
  std::vector<std::size_t> counts_;
  std::size_t n_ = 0;
};

}  // namespace ppfs
