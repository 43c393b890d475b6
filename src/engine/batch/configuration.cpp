#include "engine/batch/configuration.hpp"

#include <numeric>
#include <stdexcept>

namespace ppfs {

Configuration::Configuration(std::shared_ptr<const Protocol> protocol,
                             std::vector<std::size_t> counts)
    : protocol_(std::move(protocol)), counts_(std::move(counts)) {
  if (!protocol_) throw std::invalid_argument("Configuration: null protocol");
  if (counts_.size() != protocol_->num_states())
    throw std::invalid_argument("Configuration: counts/states size mismatch");
  n_ = std::accumulate(counts_.begin(), counts_.end(), std::size_t{0});
  if (n_ == 0) throw std::invalid_argument("Configuration: empty population");
}

Configuration Configuration::from_population(const Population& pop) {
  return Configuration(pop.protocol_ptr(), pop.counts());
}

Population Configuration::to_population() const {
  return Population::from_counts(protocol_, counts_);
}

void Configuration::apply_pair(State s, State r) {
  apply_outcome(s, r, protocol_->delta(s, r));
}

void Configuration::bad_outcome(State s, State r, StatePair out) const {
  if (s >= counts_.size() || r >= counts_.size())
    throw std::out_of_range("Configuration::apply_outcome: pre-state range");
  if (counts_[s] < 1 + static_cast<std::size_t>(s == r) || counts_[r] < 1)
    throw std::invalid_argument("Configuration::apply_outcome: pre-states empty");
  throw std::invalid_argument("Configuration::apply_outcome: post-state range");
}

void Configuration::move(State from, State to, std::size_t k) {
  if (counts_.at(from) < k)
    throw std::invalid_argument("Configuration::move: not enough agents");
  counts_[from] -= k;
  counts_.at(to) += k;
}

int counts_consensus_output(const std::vector<std::size_t>& counts,
                            const Protocol& protocol) {
  int common = -2;  // sentinel: no occupied state seen yet
  for (State q = 0; q < counts.size(); ++q) {
    if (counts[q] == 0) continue;
    const int out = protocol.output(q);
    if (out < 0) return -1;
    if (common == -2) common = out;
    else if (out != common) return -1;
  }
  return common;
}

int Configuration::consensus_output() const {
  return counts_consensus_output(counts_, *protocol_);
}

}  // namespace ppfs
