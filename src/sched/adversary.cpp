#include "sched/adversary.hpp"

#include <stdexcept>

namespace ppfs {

OmissionAdversary::OmissionAdversary(std::unique_ptr<Scheduler> base, std::size_t n,
                                     AdversaryParams params)
    : base_(std::move(base)), n_(n), process_(params) {
  if (!base_) throw std::invalid_argument("OmissionAdversary: null base scheduler");
  if (n_ < 2) throw std::invalid_argument("OmissionAdversary: n >= 2 required");
}

void OmissionAdversary::set_victim_picker(VictimPicker picker) {
  picker_ = std::move(picker);
}

Interaction OmissionAdversary::next(Rng& rng, std::size_t step) {
  return next_delivery(&process_, *base_, rng, step, n_, picker_);
}

}  // namespace ppfs
