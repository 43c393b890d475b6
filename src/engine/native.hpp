// The per-agent execution system: runs protocols directly under their own
// model, with no simulation layer. It is the performance baseline for
// every overhead experiment and the reference semantics for correctness
// checks; the dispatch native engine (engine/batch/dispatch.hpp) drives
// it behind the Engine interface.
//
// InteractionSystem applies a compiled RuleMatrix (core/rule_matrix.hpp) —
// the same model-semantics definition the count-based batch engine
// consumes — so the ten models of §2.2–2.3 are encoded exactly once. Build
// one per model with RuleMatrix::compile: two-way protocols under any
// model, native one-way protocols under IT/IO/I1..I4, with designer o/h
// functions validated against ModelCaps at compile time.
#pragma once

#include <vector>

#include "core/models.hpp"
#include "core/population.hpp"
#include "core/protocol.hpp"
#include "core/rule_matrix.hpp"
#include "core/types.hpp"
#include "obs/metrics.hpp"

namespace ppfs {

// Model-generic per-agent engine: one agent array, one RuleMatrix.
class InteractionSystem {
 public:
  InteractionSystem(RuleMatrix rules, std::vector<State> initial);

  void interact(const Interaction& ia);

  [[nodiscard]] const RuleMatrix& rules() const noexcept { return rules_; }
  [[nodiscard]] const Population& population() const noexcept { return pop_; }
  [[nodiscard]] Population& population() noexcept { return pop_; }
  [[nodiscard]] State state(AgentId a) const { return pop_.state(a); }
  [[nodiscard]] const std::vector<State>& states() const noexcept {
    return pop_.states();
  }
  [[nodiscard]] std::size_t size() const noexcept { return pop_.size(); }
  [[nodiscard]] std::size_t steps() const noexcept { return steps_; }
  [[nodiscard]] std::size_t omissions() const noexcept { return omissions_; }
  [[nodiscard]] int consensus_output() const { return pop_.consensus_output(); }

  // Wire per-delivery counters + the sampled interact timer (obs layer);
  // null detaches. Purely observational.
  void set_metrics(obs::MetricRegistry* reg) {
    m_fires_ = reg ? &reg->counter("native.fires") : nullptr;
    m_noops_ = reg ? &reg->counter("native.noops") : nullptr;
    m_time_interact_ = reg ? &reg->timer("time.interact") : nullptr;
  }

 private:
  RuleMatrix rules_;
  Population pop_;  // states + the matrix's two-way protocol face
  std::size_t steps_ = 0;
  std::size_t omissions_ = 0;
  obs::Counter* m_fires_ = nullptr;  // deliveries that changed some state
  obs::Counter* m_noops_ = nullptr;
  obs::SampledTimer* m_time_interact_ = nullptr;
};

}  // namespace ppfs
