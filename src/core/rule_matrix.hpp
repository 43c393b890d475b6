// RuleMatrix: the single compiled representation of "what an interaction
// does" under every model of the lattice (§2.2–2.3). Both the per-agent
// engines (engine/native.hpp) and the count-based batch engine
// (engine/batch/) execute from a RuleMatrix, so the transition relations of
// the ten models are encoded exactly once.
//
// An interaction is classified into one of four classes:
//
//   Real         — the non-omissive outcome chosen by the scheduler;
//   OmitStarter  — two-way omission striking the starter's side:
//                  the starter cannot compute fs and applies o instead,
//                  the reactor still applies fr (T2/T3; o = id in T1);
//   OmitReactor  — two-way omission striking the reactor's side:
//                  (fs(s,r), h(r)) with h = id below T3;
//   OmitBoth     — omission on both sides: (o(s), h(r)). One-way models
//                  transmit in one direction only, so all three omissive
//                  classes collapse to the single faulty outcome of
//                  I1..I4 ((g(s), r), (g(s), g(r)), (g(s), h(r)) or
//                  (o(s), g(r)) respectively).
//
// Compilation validates the designer-supplied omission-reaction functions
// against ModelCaps: installing o on a model without starter-side omission
// detection (or h without reactor-side detection) is rejected, instead of
// being silently ignored at interaction time.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/models.hpp"
#include "core/protocol.hpp"
#include "core/types.hpp"

namespace ppfs {

enum class InteractionClass : std::uint8_t {
  Real = 0,
  OmitBoth = 1,
  OmitStarter = 2,
  OmitReactor = 3,
};

inline constexpr std::size_t kNumInteractionClasses = 4;

[[nodiscard]] std::string interaction_class_name(InteractionClass c);

// The outcome class an omission striking `side` realizes under `model`:
// the three faulty T-relation outcomes for two-way models; one-way models
// transmit in one direction only, so every side collapses to OmitBoth.
// Throws on non-omissive models. (RuleMatrix::omission_class and the
// open-universe sim engine both delegate here.)
[[nodiscard]] InteractionClass omission_class_for(Model model, OmitSide side);

// Designer-chosen omission-reaction functions (Definitions of §2.3): `o` is
// the starter-side update in a detected omission (T2/T3/I4), `h` the
// reactor-side one (T3/I3). Null means identity. Supplying a function the
// model cannot express is a compile-time error (ModelCaps validation).
struct ModelFns {
  std::function<State(State)> o;
  std::function<State(State)> h;
};

class RuleMatrix {
 public:
  // Compile a two-way protocol under any model. Two-way models (TW/T1..T3)
  // use delta directly; one-way models (IT/IO/I1..I4) require the protocol
  // to fit the IT shape delta(s,r) = (g(s), f(s,r)) (and g = id for
  // IO-based models), from which g and f are extracted.
  [[nodiscard]] static RuleMatrix compile(
      std::shared_ptr<const Protocol> protocol, Model model,
      const ModelFns& fns = {});

  // Compile a native one-way protocol; `model` must be one-way.
  // The distinct states of `initial` (any multiplicity, e.g. one entry per
  // agent) seed the lowered two-way face's Q'_P, used for count/consensus
  // tooling (it does not constrain execution).
  [[nodiscard]] static RuleMatrix compile(
      std::shared_ptr<const OneWayProtocol> protocol, Model model,
      const std::vector<State>& initial, const ModelFns& fns = {});

  [[nodiscard]] Model model() const noexcept { return model_; }
  [[nodiscard]] std::size_t num_states() const noexcept { return q_; }
  [[nodiscard]] bool omissive() const noexcept { return is_omissive(model_); }
  [[nodiscard]] bool one_way() const noexcept { return is_one_way(model_); }

  // Two-way face: the protocol whose delta equals the Real class. Used by
  // Configuration/Population interop, outputs and state names.
  [[nodiscard]] const Protocol& protocol() const noexcept { return *two_way_; }
  [[nodiscard]] std::shared_ptr<const Protocol> protocol_ptr() const {
    return two_way_;
  }

  // Post-states of an interaction of class `c` on pre-states (s, r).
  [[nodiscard]] StatePair outcome(InteractionClass c, State s, State r) const {
    return table(c)[static_cast<std::size_t>(s) * q_ + r];
  }

  [[nodiscard]] bool is_noop(InteractionClass c, State s, State r) const {
    const StatePair out = outcome(c, s, r);
    return out.starter == s && out.reactor == r;
  }

  // Map a scheduled interaction to its class. Throws if the interaction is
  // omissive and the model has no omission adversary. One-way models ignore
  // the side (all omissive classes coincide).
  [[nodiscard]] InteractionClass classify(const Interaction& ia) const;

  // The outcome class an omission adversary striking `side` emits. Two-way
  // models distinguish the three faulty outcomes of the T-relations;
  // one-way models transmit in one direction only, so every side collapses
  // to the single faulty outcome (same as classify()). Throws on
  // non-omissive models.
  [[nodiscard]] InteractionClass omission_class(OmitSide side) const;

  // Enumerate the ordered pre-state pairs whose class-`c` outcome changes
  // the configuration, in (s, r) row-major order — the fixed pair universe
  // the count-space engines build their dynamic samplers over (is_noop
  // depends only on the compiled tables, never on counts).
  template <class Fn>
  void for_each_changing_pair(InteractionClass c, Fn&& fn) const {
    for (State s = 0; s < q_; ++s)
      for (State r = 0; r < q_; ++r)
        if (!is_noop(c, s, r)) fn(s, r);
  }

 private:
  RuleMatrix() = default;

  [[nodiscard]] const std::vector<StatePair>& table(InteractionClass c) const {
    return tables_[static_cast<std::size_t>(c)];
  }

  Model model_ = Model::TW;
  std::size_t q_ = 0;
  std::shared_ptr<const Protocol> two_way_;
  // Indexed by InteractionClass; omissive tables are empty for
  // non-omissive models (classify() rejects before lookup).
  std::array<std::vector<StatePair>, kNumInteractionClasses> tables_;
};

}  // namespace ppfs
