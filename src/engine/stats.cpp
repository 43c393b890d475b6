#include "engine/stats.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace ppfs {

RunStats::RunStats(std::size_t num_states) { reset(num_states); }

void RunStats::reset(std::size_t num_states) {
  q_ = num_states;
  fires_.assign(q_ * q_, 0);
  total_fires_ = 0;
  noops_ = 0;
  omissions_ = 0;
  omissive_fires_ = 0;
  first_holding_ = kNoConvergence;
  holding_ = false;
}

void RunStats::record_omissive_fire(State s, State r, std::uint64_t times) {
  record_fire(s, r, times);
  omissions_ += times;
  omissive_fires_ += times;
}

void RunStats::state_out_of_range(const char* who) {
  throw std::invalid_argument(std::string(who) + ": state out of range");
}

void RunStats::record_probe(std::size_t step, bool holds) noexcept {
  if (!holds) {
    holding_ = false;
    first_holding_ = kNoConvergence;
    return;
  }
  if (!holding_) {
    holding_ = true;
    first_holding_ = step;
  }
}

void RunStats::merge(const RunStats& o) {
  if (o.q_ == 0) {
    // A state-less record can still carry no-op/omission tallies.
    noops_ += o.noops_;
    omissions_ += o.omissions_;
    return;
  }
  if (q_ == 0) reset(o.q_);
  if (o.q_ != q_)
    throw std::invalid_argument("RunStats::merge: num_states mismatch");
  for (std::size_t i = 0; i < fires_.size(); ++i) fires_[i] += o.fires_[i];
  total_fires_ += o.total_fires_;
  noops_ += o.noops_;
  omissions_ += o.omissions_;
  omissive_fires_ += o.omissive_fires_;
}

std::uint64_t RunStats::fires(State s, State r) const {
  if (s >= q_ || r >= q_) state_out_of_range("RunStats::fires");
  return fires_[static_cast<std::size_t>(s) * q_ + r];
}

std::size_t RunStats::convergence_step() const noexcept {
  return holding_ ? first_holding_ : kNoConvergence;
}

void RunStats::save_state(bin::Writer& w) const {
  w.var(q_);
  // The fires matrix is q² dense but mostly zeros for large alphabets;
  // varints keep the common zero cell to one byte.
  for (const std::uint64_t c : fires_) w.var(c);
  w.var(total_fires_);
  w.var(noops_);
  w.var(omissions_);
  w.var(omissive_fires_);
  w.var(first_holding_);
  w.u8(holding_ ? 1 : 0);
}

void RunStats::restore_state(bin::Reader& r) {
  q_ = r.var();
  fires_.assign(q_ * q_, 0);
  for (auto& c : fires_) c = r.var();
  total_fires_ = r.var();
  noops_ = r.var();
  omissions_ = r.var();
  omissive_fires_ = r.var();
  first_holding_ = r.var();
  holding_ = r.u8() != 0;
}

std::vector<RunStats::RuleCount> RunStats::top_rules(std::size_t k) const {
  std::vector<RuleCount> all;
  all.reserve(fires_.size());
  for (State s = 0; s < q_; ++s) {
    for (State r = 0; r < q_; ++r) {
      const std::uint64_t c = fires_[static_cast<std::size_t>(s) * q_ + r];
      if (c > 0) all.push_back({s, r, c});
    }
  }
  std::sort(all.begin(), all.end(), [](const RuleCount& a, const RuleCount& b) {
    if (a.count != b.count) return a.count > b.count;
    if (a.s != b.s) return a.s < b.s;
    return a.r < b.r;
  });
  if (all.size() > k) all.resize(k);
  return all;
}

}  // namespace ppfs
