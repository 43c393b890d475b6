#include "engine/native.hpp"

#include <stdexcept>
#include <utility>

namespace ppfs {

InteractionSystem::InteractionSystem(RuleMatrix rules, std::vector<State> initial)
    : rules_(std::move(rules)),
      pop_(rules_.protocol_ptr(), std::move(initial)) {}

void InteractionSystem::interact(const Interaction& ia) {
  if (ia.starter == ia.reactor)
    throw std::invalid_argument("InteractionSystem: self-interaction");
  PPFS_TIMER_BEGIN(t0, m_time_interact_);
  const InteractionClass cls = rules_.classify(ia);  // throws on bad omission
  const State s = pop_.state(ia.starter);
  const State r = pop_.state(ia.reactor);
  const StatePair out = rules_.outcome(cls, s, r);
  pop_.set_state(ia.starter, out.starter);
  pop_.set_state(ia.reactor, out.reactor);
  ++steps_;
  if (ia.omissive) ++omissions_;
#if PPFS_METRICS
  // ppfs-lint: allow(metric-macro): one fire/no-op comparison feeds two
  // counters under a shared null check, which the single-call PPFS_METRIC
  // macro cannot express; the #if above preserves the compile-out.
  if (m_fires_) {
    if (out.starter != s || out.reactor != r) m_fires_->add();
    else m_noops_->add();
  }
#endif
  PPFS_TIMER_END(t0, m_time_interact_);
}

}  // namespace ppfs
