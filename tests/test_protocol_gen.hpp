// Shared random-protocol generator for property tests: arbitrary dense
// delta tables with a tunable no-op fraction (no-ops keep stable sets
// nontrivial), every state initial, outputs alternating by parity. Used by
// the simulator fuzz tests and the engine conformance suite.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/protocol.hpp"
#include "util/rng.hpp"

namespace ppfs::testing {

inline std::shared_ptr<const TableProtocol> random_protocol(
    std::size_t states, Rng& rng, double noop_fraction = 0.4) {
  std::vector<std::string> names;
  std::vector<int> outputs;
  std::vector<State> initial;
  for (State q = 0; q < states; ++q) {
    names.push_back("q" + std::to_string(q));
    outputs.push_back(static_cast<int>(q % 2));
    initial.push_back(q);
  }
  std::vector<StatePair> table(states * states);
  for (State s = 0; s < states; ++s) {
    for (State r = 0; r < states; ++r) {
      if (rng.chance(noop_fraction)) {
        table[s * states + r] = StatePair{s, r};
      } else {
        table[s * states + r] = StatePair{static_cast<State>(rng.below(states)),
                                          static_cast<State>(rng.below(states))};
      }
    }
  }
  return std::make_shared<TableProtocol>("random", names, outputs, initial,
                                         std::move(table));
}

inline std::vector<State> random_initial(std::size_t n, std::size_t states,
                                         Rng& rng) {
  std::vector<State> init(n);
  for (auto& q : init) q = static_cast<State>(rng.below(states));
  return init;
}

// Table-backed one-way protocol for property tests over the IT/IO/I*
// engines: g and f stored densely, like TableProtocol for the two-way case.
class TableOneWayProtocol final : public OneWayProtocol {
 public:
  TableOneWayProtocol(std::vector<State> g, std::vector<State> f)
      : g_(std::move(g)), f_(std::move(f)) {}
  std::size_t num_states() const override { return g_.size(); }
  State g(State s) const override { return g_[s]; }
  State f(State s, State r) const override { return f_[s * g_.size() + r]; }
  std::string name() const override { return "random-one-way"; }
  int output(State q) const override { return static_cast<int>(q % 2); }

 private:
  std::vector<State> g_;
  std::vector<State> f_;
};

// Random unary function over `states` states (for g and the omission
// reactions o/h).
inline std::vector<State> random_unary(std::size_t states, Rng& rng) {
  std::vector<State> t(states);
  for (auto& v : t) v = static_cast<State>(rng.below(states));
  return t;
}

// Random one-way protocol: identity g when `io` (the IO shape), random g
// otherwise; f keeps the reactor unchanged with probability noop_fraction.
inline std::shared_ptr<const OneWayProtocol> random_one_way_protocol(
    std::size_t states, Rng& rng, bool io, double noop_fraction = 0.4) {
  std::vector<State> g(states);
  for (State s = 0; s < states; ++s)
    g[s] = io ? s : static_cast<State>(rng.below(states));
  std::vector<State> f(states * states);
  for (State s = 0; s < states; ++s) {
    for (State r = 0; r < states; ++r) {
      f[s * states + r] = rng.chance(noop_fraction)
                              ? r
                              : static_cast<State>(rng.below(states));
    }
  }
  return std::make_shared<TableOneWayProtocol>(std::move(g), std::move(f));
}

// Wrap a dense unary table as the std::function form ModelFns carries.
inline std::function<State(State)> as_fn(std::vector<State> table) {
  return [t = std::move(table)](State q) { return t[q]; };
}

}  // namespace ppfs::testing
