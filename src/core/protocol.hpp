// Two-way population protocols (§2.1 of the paper).
//
// A protocol P is (Q_P, Q'_P, delta_P) with delta_P : Q×Q -> Q×Q applied to
// ordered (starter, reactor) pairs. This header provides:
//   * Protocol        — the abstract interface used by engines/simulators;
//   * TableProtocol   — a dense-table implementation (fast path);
//   * ProtocolBuilder — ergonomic construction with named states and rules;
//   * shape checks    — whether a two-way protocol happens to fit the
//                       one-way IT/IO shapes of §2.2 (used by the Fig. 1
//                       experiments).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/types.hpp"

namespace ppfs {

class Protocol {
 public:
  virtual ~Protocol() = default;

  [[nodiscard]] virtual std::size_t num_states() const = 0;

  // The two-way transition function delta(starter, reactor).
  [[nodiscard]] virtual StatePair delta(State s, State r) const = 0;

  // Human-readable identifiers (for traces and experiment tables).
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::string state_name(State q) const;

  // Output interpretation of a state: >= 0 for an output value (e.g. a
  // predicate bit), -1 for "no output / undecided".
  [[nodiscard]] virtual int output(State q) const;

  // States admissible in initial configurations (Q'_P).
  [[nodiscard]] virtual const std::vector<State>& initial_states() const = 0;

  [[nodiscard]] bool is_initial(State q) const;

  // True if delta is symmetric in the sense used by Lemma 1:
  // delta(a,b) = (x,y)  implies  delta(b,a) = (y,x) for all a,b.
  [[nodiscard]] bool is_symmetric() const;

  // True if delta(q, q') leaves both parties unchanged.
  [[nodiscard]] bool is_noop(State s, State r) const;
};

// Dense-table protocol: delta stored as a flat num_states^2 array. This is
// the execution fast path; every protocol in src/protocols lowers to it.
class TableProtocol final : public Protocol {
 public:
  TableProtocol(std::string name, std::vector<std::string> state_names,
                std::vector<int> outputs, std::vector<State> initial,
                std::vector<StatePair> table);

  [[nodiscard]] std::size_t num_states() const override { return names_.size(); }
  [[nodiscard]] StatePair delta(State s, State r) const override {
    return table_[static_cast<std::size_t>(s) * names_.size() + r];
  }
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::string state_name(State q) const override;
  [[nodiscard]] int output(State q) const override;
  [[nodiscard]] const std::vector<State>& initial_states() const override {
    return initial_;
  }

 private:
  std::string name_;
  std::vector<std::string> names_;
  std::vector<int> outputs_;
  std::vector<State> initial_;
  std::vector<StatePair> table_;
};

// Incremental builder. States default to identity transitions (no rule ==
// both parties keep their states), matching how protocols are written in
// the population-protocols literature ("the only non-trivial rules are...").
class ProtocolBuilder {
 public:
  explicit ProtocolBuilder(std::string name);

  // Returns the new state's id. `output` < 0 means no output.
  State add_state(std::string state_name, int output = -1, bool initial = false);

  // delta(s, r) = (s2, r2).
  ProtocolBuilder& rule(State s, State r, State s2, State r2);

  // Adds rule(s,r,s2,r2) and its mirror rule(r,s,r2,s2).
  ProtocolBuilder& symmetric_rule(State s, State r, State s2, State r2);

  [[nodiscard]] std::shared_ptr<const TableProtocol> build() const;

 private:
  struct Rule {
    State s, r, s2, r2;
  };
  std::string name_;
  std::vector<std::string> state_names_;
  std::vector<int> outputs_;
  std::vector<State> initial_;
  std::vector<Rule> rules_;
};

// --- One-way shape checks (§2.2) -------------------------------------------
//
// IT shape: delta(s, r) = (g(s), f(s, r)) — the starter's update must not
// depend on the reactor. IO shape: additionally g = identity.
// These are used by the Figure 1 experiments to classify protocols.

// If the protocol fits the IT shape, returns the induced g; otherwise
// nullopt.
[[nodiscard]] std::optional<std::vector<State>> it_shape_g(const Protocol& p);

[[nodiscard]] bool fits_it_shape(const Protocol& p);
[[nodiscard]] bool fits_io_shape(const Protocol& p);

// --- Native one-way protocols (§2.2) ----------------------------------------
//
// A protocol expressed directly in the one-way form (g, f). Used by the
// one-way native engine and the Fig. 1 computability demonstrations.
class OneWayProtocol {
 public:
  virtual ~OneWayProtocol() = default;
  [[nodiscard]] virtual std::size_t num_states() const = 0;
  [[nodiscard]] virtual State g(State s) const = 0;           // starter update
  [[nodiscard]] virtual State f(State s, State r) const = 0;  // reactor update
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual int output(State q) const { (void)q; return -1; }
  [[nodiscard]] bool is_io() const;  // g == identity
};

}  // namespace ppfs
