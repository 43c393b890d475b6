#include "core/population.hpp"

#include <stdexcept>

namespace ppfs {

Population::Population(std::shared_ptr<const Protocol> protocol,
                       std::vector<State> initial)
    : protocol_(std::move(protocol)), states_(std::move(initial)) {
  if (!protocol_) throw std::invalid_argument("Population: null protocol");
  if (states_.empty()) throw std::invalid_argument("Population: empty population");
  for (State q : states_) {
    if (q >= protocol_->num_states())
      throw std::invalid_argument("Population: state out of range");
  }
}

void Population::set_state(AgentId a, State q) {
  if (q >= protocol_->num_states())
    throw std::invalid_argument("Population::set_state: state out of range");
  states_.at(a) = q;
}

void Population::interact(AgentId s, AgentId r) {
  if (s == r) throw std::invalid_argument("Population::interact: self-interaction");
  const StatePair out = protocol_->delta(states_.at(s), states_.at(r));
  states_[s] = out.starter;
  states_[r] = out.reactor;
}

std::vector<std::size_t> Population::counts() const {
  std::vector<std::size_t> c(protocol_->num_states(), 0);
  for (State q : states_) ++c[q];
  return c;
}

void Population::counts_into(std::vector<std::size_t>& out) const {
  out.assign(protocol_->num_states(), 0);
  for (State q : states_) ++out[q];
}

Population Population::from_counts(std::shared_ptr<const Protocol> protocol,
                                   const std::vector<std::size_t>& counts) {
  if (!protocol) throw std::invalid_argument("Population::from_counts: null protocol");
  if (counts.size() != protocol->num_states())
    throw std::invalid_argument("Population::from_counts: size mismatch");
  std::vector<State> states;
  for (State q = 0; q < counts.size(); ++q)
    states.insert(states.end(), counts[q], q);
  return Population(std::move(protocol), std::move(states));
}

std::size_t Population::count_of(State q) const {
  std::size_t c = 0;
  for (State s : states_)
    if (s == q) ++c;
  return c;
}

int Population::consensus_output() const {
  const int first = protocol_->output(states_.front());
  if (first < 0) return -1;
  for (State q : states_) {
    if (protocol_->output(q) != first) return -1;
  }
  return first;
}

bool operator==(const Population& a, const Population& b) {
  return a.states_ == b.states_;
}

std::vector<State> make_initial(
    const std::vector<std::pair<State, std::size_t>>& groups) {
  std::size_t n = 0;
  for (const auto& group : groups) n += group.second;
  std::vector<State> out;
  out.reserve(n);
  for (const auto& [q, k] : groups) out.insert(out.end(), k, q);
  return out;
}

}  // namespace ppfs
