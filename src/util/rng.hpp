// Deterministic, seedable PRNG used throughout the library.
//
// Experiments in this repository must be exactly reproducible from a seed,
// so we avoid std::mt19937 (whose seeding idioms invite platform drift) and
// ship a self-contained xoshiro256** generator with a splitmix64 seeder
// (Blackman & Vigna). The generator satisfies
// std::uniform_random_bit_generator, so it also composes with <random>.
#pragma once

#include <array>
#include <cstdint>

namespace ppfs {

// splitmix64: used to expand a 64-bit seed into xoshiro state; also handy
// as a tiny stateless mixer for hashing.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class Rng {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept
      : seed_(seed) {
    std::uint64_t s = seed;
    for (auto& w : state_) w = splitmix64(s);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  // operator(), below() and uniform() are forced inline: the leap's trial
  // loop and pair draws keep the generator state in registers only then.
  [[gnu::always_inline]] constexpr result_type operator()() noexcept {
    ++draws_;
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound). bound must be > 0. Uses Lemire's
  // multiply-shift with rejection for exact uniformity.
  [[nodiscard, gnu::always_inline]] std::uint64_t below(
      std::uint64_t bound) noexcept {
    __uint128_t m = static_cast<__uint128_t>(operator()()) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (lo < threshold) {
        m = static_cast<__uint128_t>(operator()()) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  // Uniform double in [0, 1).
  [[nodiscard, gnu::always_inline]] double uniform() noexcept {
    return static_cast<double>(operator()() >> 11) * 0x1.0p-53;
  }

  // Bernoulli trial with success probability p.
  [[nodiscard]] bool chance(double p) noexcept { return uniform() < p; }

  // Draw ledger: raw 64-bit generator invocations made so far. Every
  // random quantity in the library funnels through operator() (below()
  // may consume more than one draw via Lemire rejection), so this is a
  // complete account of entropy consumption. The count is part of no
  // output and influences no control flow; it exists so audit scopes
  // (util/audit.hpp PPFS_DRAW_FREE) can check the zero-draw contracts of
  // regime arbitration, engine bridges, and observability hooks, and so
  // tests can pin a fixed-seed run's exact draw budget. split() children
  // start their own ledger at zero.
  [[nodiscard]] constexpr std::uint64_t draw_count() const noexcept {
    return draws_;
  }

  // Keyed, non-mutating stream derivation: the generator for stream
  // `stream_id`, a pure function of (seed, stream_id) — independent of how
  // many values the parent has produced. splitmix64 is a bijection, so
  // distinct stream ids under one seed never collide. The sweep drain
  // (exp/sweep_service.hpp) keys one stream per trial, which is what makes
  // multi-threaded sweeps bit-identical at any thread count.
  [[nodiscard]] constexpr Rng split(std::uint64_t stream_id) const noexcept {
    std::uint64_t s = seed_ ^ stream_id;
    return Rng(splitmix64(s));
  }

  // Checkpoint face: the full generator state as six plain words, so a
  // restored generator continues the exact draw sequence (and draw ledger)
  // from the point of capture. seed_ must round-trip too — split() is keyed
  // off it, so a restored replica derives the same child streams.
  struct Snapshot {
    std::uint64_t seed = 0;
    std::array<std::uint64_t, 4> state{};
    std::uint64_t draws = 0;
  };

  [[nodiscard]] constexpr Snapshot snapshot() const noexcept {
    return Snapshot{seed_, state_, draws_};
  }

  constexpr void restore(const Snapshot& s) noexcept {
    seed_ = s.seed;
    state_ = s.state;
    draws_ = s.draws;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t seed_ = 0;  // retained for keyed split()
  std::array<std::uint64_t, 4> state_{};
  std::uint64_t draws_ = 0;  // see draw_count()
};

}  // namespace ppfs
