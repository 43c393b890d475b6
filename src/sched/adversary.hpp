// Omission adversaries (Definitions 1–2 of the paper).
//
// An adversary wraps a base scheduler (whose output it must deliver
// unchanged and in order — this preserves global fairness of the real
// interactions) and inserts omissive interactions between base picks. The
// insertion policy (UO / NO / NO1 / Budget) lives in OmissionProcess
// (sched/omission_process.hpp), which the count-based batch engine consumes
// directly; this wrapper is the step-wise Scheduler face of the same
// process.
//
// The victims of inserted omissions are chosen uniformly unless a victim
// picker is installed (targeted adversaries used by stress tests).
//
// next_delivery is the one step-wise omission injector: the wrapper below
// and the dispatch engines' per-agent loops (engine/batch/dispatch.cpp)
// all deliver through it, so the draw order of an inserted omission is
// defined in exactly one place.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>

#include "sched/omission_process.hpp"
#include "sched/scheduler.hpp"

namespace ppfs {

// Picks the victims of an inserted omission (next_delivery forces the
// returned `omissive` flag to true).
using VictimPicker = std::function<Interaction(Rng&, std::size_t step)>;

// The interaction delivered at `step` over n agents. With a process
// attached, ask should_omit first; on yes strike a victim pair — the
// picker's, or a uniform ordered pair stamped with the adversary's side —
// and otherwise (or with no process) deliver the scheduler's next pick.
// Inline: the per-agent engines call it once per interaction.
[[nodiscard]] inline Interaction next_delivery(
    OmissionProcess* process, Scheduler& sched, Rng& rng, std::size_t step,
    std::size_t n, const VictimPicker& picker = nullptr) {
  if (process == nullptr || !process->should_omit(rng, step))
    return sched.next(rng, step);
  if (picker) {
    Interaction ia = picker(rng, step);
    ia.omissive = true;
    return ia;
  }
  Interaction ia = uniform_ordered_pair(rng, n);
  ia.omissive = true;
  ia.side = process->params().side;
  return ia;
}

class OmissionAdversary final : public Scheduler {
 public:
  OmissionAdversary(std::unique_ptr<Scheduler> base, std::size_t n,
                    AdversaryParams params);

  // Install a custom victim picker for inserted omissive interactions
  // (the returned Interaction's `omissive` flag is forced to true).
  void set_victim_picker(VictimPicker picker);

  [[nodiscard]] Interaction next(Rng& rng, std::size_t step) override;

  [[nodiscard]] std::size_t omissions_emitted() const noexcept {
    return process_.emitted();
  }
  [[nodiscard]] const OmissionProcess& process() const noexcept {
    return process_;
  }

 private:
  std::unique_ptr<Scheduler> base_;
  std::size_t n_;
  OmissionProcess process_;
  VictimPicker picker_;
};

}  // namespace ppfs
