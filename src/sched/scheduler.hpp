// Schedulers produce the infinite interaction sequence (the "run", §2.1).
//
// The uniform-random scheduler picks ordered pairs uniformly; for
// finite-state systems its runs are globally fair with probability 1, the
// standard way to realize GF empirically. The scripted scheduler replays an
// explicit interaction sequence (used to execute the proof constructions of
// §3 exactly), optionally falling back to another scheduler afterwards —
// mirroring the paper's "extend to an infinite GF run" step.
#pragma once

#include <memory>
#include <vector>

#include "core/types.hpp"
#include "util/rng.hpp"

namespace ppfs {

// Uniform draw over the n(n-1) ordered agent pairs with distinct members —
// the one pair distribution shared by the uniform scheduler, the omission
// adversaries' victim picks, and the dispatch engines' inserted omissions.
[[nodiscard]] inline Interaction uniform_ordered_pair(Rng& rng, std::size_t n) {
  const auto s = static_cast<AgentId>(rng.below(n));
  auto r = static_cast<AgentId>(rng.below(n - 1));
  if (r >= s) ++r;
  return Interaction{s, r, /*omissive=*/false};
}

class Scheduler {
 public:
  virtual ~Scheduler() = default;
  // The step index is informational (for adversaries keyed on time).
  [[nodiscard]] virtual Interaction next(Rng& rng, std::size_t step) = 0;
};

class UniformScheduler final : public Scheduler {
 public:
  explicit UniformScheduler(std::size_t n);
  [[nodiscard]] Interaction next(Rng& rng, std::size_t step) override;
  [[nodiscard]] std::size_t size() const noexcept { return n_; }

 private:
  std::size_t n_;
};

class ScriptedScheduler final : public Scheduler {
 public:
  // Replays `script`; after it is exhausted, delegates to `fallback`
  // (which may be null only if the caller never asks for more steps).
  ScriptedScheduler(std::vector<Interaction> script,
                    std::unique_ptr<Scheduler> fallback = nullptr);

  [[nodiscard]] Interaction next(Rng& rng, std::size_t step) override;

  [[nodiscard]] bool exhausted() const noexcept { return pos_ >= script_.size(); }

 private:
  std::vector<Interaction> script_;
  std::size_t pos_ = 0;
  std::unique_ptr<Scheduler> fallback_;
};

}  // namespace ppfs
