// Shared leap samplers for the count-space engines (BatchSystem over dense
// closed universes, SimBatchSystem over sparse open ones): geometric no-op
// run lengths with exact integer trials in the dense regime and
// floating-point inversion in the sparse one, the binomial splitter that
// tallies omissive no-ops inside a leap, the burst-capped leg, and
// leap::advance — the one omission-aware leap both systems run (its
// regimes are described there). The round face's hypergeometric and
// round-length samplers live here too.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "engine/batch/configuration.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace ppfs::leap {

// Failures before the first success of a Bernoulli(W/T) sequence, capped
// at `cap`. Exact integer trials when a success is cheap to wait for;
// floating-point inversion when p < 1/64 (error ~1e-16, amortized over
// >= 64 skipped interactions).
inline std::size_t sample_noop_run(std::uint64_t w, std::uint64_t t, Rng& rng,
                                   std::size_t cap) {
  if (w >= t) return 0;
  if (w >= t / 64) {
    std::size_t k = 0;
    while (k < cap && rng.below(t) >= w) ++k;
    return k;
  }
  const double p = static_cast<double>(w) / static_cast<double>(t);
  double u = rng.uniform();
  if (u <= 0.0) u = 0x1.0p-53;  // uniform() is in [0, 1); keep log finite
  const double g = std::floor(std::log(u) / std::log1p(-p));
  if (g >= static_cast<double>(cap)) return cap;
  return static_cast<std::size_t>(g);
}

// Same, for a double success probability (used when the omission rate is
// mixed into the per-delivery success): Bernoulli(p) trials when p is
// large, inversion below 1/64.
inline std::size_t sample_bernoulli_run(double p, Rng& rng, std::size_t cap) {
  if (p >= 1.0) return 0;
  if (p <= 0.0) return cap;
  if (p >= 1.0 / 64) {
    std::size_t k = 0;
    while (k < cap && !rng.chance(p)) ++k;
    return k;
  }
  double u = rng.uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  const double g = std::floor(std::log(u) / std::log1p(-p));
  if (g >= static_cast<double>(cap)) return cap;
  return static_cast<std::size_t>(g);
}

// Successes among n Bernoulli(p) trials, counted by skipping geometric
// failure gaps — exact (up to the run samplers' ~1e-16 inversion
// rounding). O(np) draws while p < 1/64; at larger p the gap sampler
// flips one coin per trial, so the cost is O(n).
inline std::size_t count_sparse_successes(std::size_t n, double p, Rng& rng) {
  std::size_t k = 0;
  std::size_t i = 0;
  while (i < n) {
    const std::size_t gap = sample_bernoulli_run(p, rng, n - i);
    i += gap;
    if (i >= n) break;
    ++k;
    ++i;
  }
  return k;
}

// Binomial(n, p) draw, used to tally the omissive no-ops inside a leap
// whose draws cannot change the configuration. Geometric-gap counting
// whenever either outcome is sparse (mean <= 256), an exact Bernoulli
// loop for small n otherwise, and a clamped normal approximation only
// when both the success and failure counts are large — where its
// relative error is negligible; it touches the omission tally and hence
// only the *pacing* of a budget's exhaustion, never which rule fires.
inline std::size_t sample_binomial(std::size_t n, double p, Rng& rng) {
  if (p <= 0.0 || n == 0) return 0;
  if (p >= 1.0) return n;
  const double mean = static_cast<double>(n) * p;
  const double anti_mean = static_cast<double>(n) * (1.0 - p);
  if (mean <= 256.0) return count_sparse_successes(n, p, rng);
  if (anti_mean <= 256.0) return n - count_sparse_successes(n, 1.0 - p, rng);
  constexpr std::size_t kExactLimit = 4096;
  if (n <= kExactLimit) {
    std::size_t k = 0;
    for (std::size_t i = 0; i < n; ++i) k += rng.chance(p) ? 1 : 0;
    return k;
  }
  const double sigma = std::sqrt(mean * (1.0 - p));
  // Box-Muller from two uniforms.
  double u1 = rng.uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = rng.uniform();
  const double z =
      std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  const double v = std::round(mean + sigma * z);
  if (v <= 0.0) return 0;
  if (v >= static_cast<double>(n)) return n;
  return static_cast<std::size_t>(v);
}

// P(some run of at least m ones | `ones` ones placed uniformly among
// `slots` positions), by inclusion-exclusion over the g = slots-ones+1
// gaps between zeros, each of which must hold fewer than m ones:
//   rho = sum_{i>=1} (-1)^(i+1) t_i,
//   t_i = C(g, i) * C(slots - i*m, g - 1) / C(slots, g - 1).
// t_{i+1} <= t_i * t_1 / (i+1), so for t_1 <= 1/4 the alternating sum is
// well-conditioned and stops after a few terms of O(m) arithmetic each.
// Returns nullopt above that (cancellation would eat the digits).
inline std::optional<double> long_run_probability(std::size_t slots,
                                                  std::size_t ones,
                                                  std::size_t m) {
  const double s = static_cast<double>(ones);
  const double l = static_cast<double>(slots);
  const double g = l - s + 1.0;
  const double dm = static_cast<double>(m);
  // t_{i+1} / t_i; zero once i+1 runs of m no longer fit in the ones.
  const auto next_ratio = [&](double i) {
    const double base = (i + 1.0) * dm;
    if (s < base || g <= i) return 0.0;
    double r = (g - i) / (i + 1.0);
    for (double k = 1.0; k <= dm; k += 1.0)
      r *= (s - base + k) / (l - base + k);
    return r;
  };
  double t = next_ratio(0.0);
  if (t > 0.25) return std::nullopt;
  double rho = 0.0;
  double sign = 1.0;
  for (double i = 1.0; t > 1e-18; i += 1.0, sign = -sign) {
    rho += sign * t;
    t *= next_ratio(i);
  }
  return rho;
}

// One leg of the exact BURST-CAPPED omission leap: the step-wise
// adversary (OmissionProcess::should_omit) inserts omissions in bursts of
// at most `max_burst` consecutive insertions — after a full burst the next
// delivery is forcibly real and the burst counter resets. The chain over
// the within-burst state b is:
//
//   b < max_burst: omission w.p. p (b -> b+1), else real (b -> 0), and a
//                  real delivery changes counts w.p. w/t;
//   b = max_burst: the next delivery is real with certainty (no rate
//                  coin), b -> 0.
//
// This sampler covers the case where omissive deliveries are GLOBAL
// NO-OPS (w_omit = 0 / omission-transparent sources): it walks the chain
// one burst EPISODE at a time — runs of state-0 real no-ops aggregate
// into one geometric draw, and the continuation of a burst into one
// truncated-geometric draw — so the cost is O(1) per burst episode (not
// per omission), exact at every delivery position including truncation at
// `cap` and exhaustion of the omission budget. When omissive deliveries
// can change counts, leap::advance punctuates per omissive delivery and
// only needs the forced-real branch, which it takes inline.
struct BurstLeg {
  std::size_t deliveries = 0;  // consumed, <= cap (includes the fire)
  std::size_t omissions = 0;   // inserted among them (all global no-ops)
  bool fire = false;           // ended by a count-changing real delivery
};

inline BurstLeg sample_capped_burst_leg(double p, std::uint64_t w,
                                        std::uint64_t t, std::size_t max_burst,
                                        std::size_t& burst,
                                        std::size_t omission_budget,
                                        std::size_t cap, Rng& rng) {
  BurstLeg leg;
  const double wr = static_cast<double>(w) / static_cast<double>(t);
  while (leg.deliveries < cap) {
    const std::size_t room = cap - leg.deliveries;
    if (leg.omissions >= omission_budget || p <= 0.0) {
      // No further insertions ever: a pure real-delivery geometric tail.
      const std::size_t run = w == 0 ? room : sample_noop_run(w, t, rng, room);
      leg.deliveries += run;
      if (run > 0) burst = 0;
      if (run < room) {
        ++leg.deliveries;
        leg.fire = true;
        burst = 0;
      }
      return leg;
    }
    if (burst >= max_burst) {
      // Forced real delivery (no rate coin is flipped).
      ++leg.deliveries;
      burst = 0;
      if (rng.below(t) < w) {
        leg.fire = true;
        return leg;
      }
      continue;
    }
    // Insertions possible: each delivery is an omission w.p. p, else a
    // real one that changes counts w.p. wr. Aggregate the run of real
    // no-ops (every one of them resets the burst to 0, so the omission
    // probability is p throughout).
    const double sigma = p + (1.0 - p) * wr;
    const std::size_t run = sample_bernoulli_run(sigma, rng, room);
    leg.deliveries += run;
    if (run > 0) burst = 0;
    if (run >= room) return leg;  // cap reached mid-run
    if (!rng.chance(p / sigma)) {
      // The event is a real count-change.
      ++leg.deliveries;
      leg.fire = true;
      burst = 0;
      return leg;
    }
    // The event opens (or continues) a burst: the first omission plus its
    // geometric continuation, truncated by the burst cap, the omission
    // budget, and the delivery cap.
    const std::size_t limit =
        std::min({max_burst - burst, omission_budget - leg.omissions,
                  cap - leg.deliveries});
    const std::size_t k =
        1 + sample_bernoulli_run(1.0 - p, rng, limit - 1);
    leg.omissions += k;
    leg.deliveries += k;
    burst += k;
    if (k < limit) {
      // The burst ended because the rate coin came up "real": that
      // delivery is already determined real — only change vs no-op is
      // left to draw.
      ++leg.deliveries;
      burst = 0;
      if (rng.below(t) < w) {
        leg.fire = true;
        return leg;
      }
    }
    // k == limit: the loop head classifies what bound it (burst cap ->
    // forced real, budget -> real tail, delivery cap -> return).
  }
  return leg;
}

// The omission-aware leap (Def. 1–2 adversaries in count space): covers
// deliveries until `d.interactions` reaches `budget`, stopping after the
// first count-changing one. Each delivery is omissive with probability
// p = rate, independently, while the omission process is active (budget
// left, before the NO quiet horizon), with at most max_burst omissions in
// a row. A leap never crosses the quiet horizon
// (OmissionProcess::horizon_cap): the next loop iteration sees the
// process inactive there. The regimes:
//
//   1. no process, or an inactive one (inactivity is absorbing): the exact
//      integer leap — the no-op run before the next real change is
//      geometric with success W/T, W the real changing weight and T the
//      pair total; exact Bernoulli trials when W/T >= 1/64, floating-point
//      inversion (error ~1e-16) below that;
//   2. omissions inert (they can never change counts) and the burst cap
//      reachable: sample_capped_burst_leg walks the within-burst chain one
//      burst episode at a time, budget exhaustion included;
//   3. omissions inert, the cap unreachable and the budget covering the
//      leap: the run until the next change is geometric with success
//      (1-p)·W/T, and the omissive draws inside it are recovered by one
//      binomial split (sample_binomial; it paces the budget, never decides
//      which rule fires);
//   4. a full burst: the next delivery is real with certainty (no rate
//      coin);
//   5. otherwise the event-punctuated leap: an "event" is an omissive
//      delivery or a real change; the run of real no-ops before one is
//      geometric with success p + (1-p)·W/T (every real delivery resets the
//      burst), the event is omissive with probability p over that, and the
//      system resolves an omissive event itself. Each omissive delivery
//      costs O(1), so Budget(o) adversaries add O(o) work to a run.
//
// The kernel owns the regime choice and the no-op bookkeeping (BatchDelta,
// steps, RunStats, the leap-length histogram). `System` befriends it and
// supplies only what differs between the engines:
//   * members steps_, stats_, omit_ (pointer-like; null without a process)
//     and m_leap_len_;
//   * leap_weight() -> (W, T) of the real class under the current counts;
//   * omissions_inert(): omissive deliveries never change counts;
//   * fire_real(W, rng, d): apply one real count-changing pair;
//   * fire_omission(T, rng, d): resolve one omissive delivery, applying it
//     and returning true when it changes counts.
// The fire hooks record the fire in `d` and the stats but count no
// delivery; the kernel does.
template <class System>
void advance(System& sys, std::size_t budget, Rng& rng, BatchDelta& d) {
  auto& omit = sys.omit_;
  // `k` deliveries that changed nothing, `om` of them omissive.
  const auto pass = [&](std::size_t k, std::size_t om) {
    sys.stats_.record_omissive_noops(om);
    sys.stats_.record_noops(k - om);
    d.noops += k;
    d.interactions += k;
    sys.steps_ += k;
  };
  // One delivery whose fire a hook just applied.
  const auto fired = [&] {
    ++d.interactions;
    ++sys.steps_;
  };

  while (d.interactions < budget) {
    const std::size_t remaining = budget - d.interactions;
    const auto [w, t] = sys.leap_weight();

    if (!omit || !omit->active(sys.steps_)) {  // 1.
      if (w == 0) {
        pass(remaining, 0);
        return;
      }
      const std::size_t run = sample_noop_run(w, t, rng, remaining);
      PPFS_METRIC(sys.m_leap_len_, record(run));
      pass(run, 0);
      if (run < remaining) {
        sys.fire_real(w, rng, d);
        fired();
      }
      return;
    }

    const double p = omit->rate();
    const std::size_t cap = omit->horizon_cap(sys.steps_, remaining);
    const double wr = static_cast<double>(w) / static_cast<double>(t);
    const bool capped = omit->burst_cap_reachable();
    const bool inert = sys.omissions_inert();
    if (inert && capped) {  // 2.
      std::size_t burst = omit->burst();
      const BurstLeg leg =
          sample_capped_burst_leg(p, w, t, omit->max_burst(), burst,
                                  omit->remaining_budget(), cap, rng);
      omit->set_burst(burst);
      omit->note_omissions(leg.omissions);
      d.omissions += leg.omissions;
      pass(leg.deliveries - (leg.fire ? 1 : 0), leg.omissions);
      if (leg.fire) {
        sys.fire_real(w, rng, d);
        fired();
        return;
      }
      if (cap == remaining) return;  // budget exhausted
      continue;                        // crossed the quiet horizon
    }

    if (inert && omit->remaining_budget() > cap) {  // 3.
      const double rho = (1.0 - p) * wr;  // per-delivery change probability
      const std::size_t run = sample_bernoulli_run(rho, rng, cap);
      PPFS_METRIC(sys.m_leap_len_, record(run));
      if (run > 0) {
        const double q_om = p / (1.0 - rho);  // P(omissive | no-op)
        const std::size_t om = sample_binomial(run, q_om, rng);
        omit->note_omissions(om);
        d.omissions += om;
        pass(run, om);
      }
      if (run == cap) {
        if (cap == remaining) return;  // budget exhausted
        continue;                        // crossed the quiet horizon
      }
      sys.fire_real(w, rng, d);
      fired();
      return;
    }

    if (capped && omit->burst() >= omit->max_burst()) {  // 4.
      omit->set_burst(0);
      if (w > 0 && rng.below(t) < w) {
        sys.fire_real(w, rng, d);
        fired();
        return;
      }
      pass(1, 0);
      continue;
    }

    const double sigma = p + (1.0 - p) * wr;  // 5.
    const std::size_t run = sample_bernoulli_run(sigma, rng, cap);
    PPFS_METRIC(sys.m_leap_len_, record(run));
    if (run > 0) {
      pass(run, 0);
      omit->set_burst(0);
    }
    if (run == cap) {
      if (cap == remaining) return;
      continue;
    }
    if (rng.chance(p / sigma)) {
      omit->note_omissions(1);
      omit->set_burst(omit->burst() + 1);
      ++d.omissions;
      if (sys.fire_omission(t, rng, d)) {
        fired();
        return;
      }
      pass(1, 1);
      continue;  // budget/horizon/burst state may have changed
    }
    sys.fire_real(w, rng, d);
    fired();
    omit->set_burst(0);
    return;
  }
}

namespace detail {

// Integer arguments up to this are served from a table (log_gamma).
inline constexpr std::size_t kLogGammaTableMax = std::size_t{1} << 16;

// lgamma_r(x) for x = 0..kLogGammaTableMax (entry 0 is unused), filled
// once on first use; the static's initialization is thread-safe.
inline const std::vector<double>& log_gamma_table() {
  static const std::vector<double> table = [] {
    std::vector<double> t(kLogGammaTableMax + 1, 0.0);
    for (std::size_t x = 1; x <= kLogGammaTableMax; ++x) {
      int sign = 0;
      t[x] = ::lgamma_r(static_cast<double>(x), &sign);
    }
    return t;
  }();
  return table;
}

// log Γ(x). std::lgamma also stores Γ's sign in the global `signgam`, a
// data race between replicas on a sweep's worker threads; lgamma_r hands
// the sign back through its argument and computes the same value.
// Integers 1..kLogGammaTableMax come from log_gamma_table, bit-identical
// to lgamma_r: every lchoose on round-sized arguments (<= 2l) is a lookup.
inline double log_gamma(double x) {
  if (x >= 1.0 && x <= static_cast<double>(kLogGammaTableMax)) {
    const auto k = static_cast<std::size_t>(x);
    if (static_cast<double>(k) == x) return log_gamma_table()[k];
  }
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

inline double lchoose(double n, double k) {
  return log_gamma(n + 1.0) - log_gamma(k + 1.0) - log_gamma(n - k + 1.0);
}

// Mode-centered two-sided inversion of Hypergeometric(N, K, m): one
// uniform, the mode pmf from lgamma, and the exact ratio recurrence
//   pmf(k+1)/pmf(k) = (K-k)(m-k) / ((k+1)(N-K-m+k+1))
// expanding outward until the cdf mass covers u. Tail fp error ~1e-12;
// exhaustion clamps to the support edge.
inline std::uint64_t hypergeometric_inversion(std::uint64_t N,
                                              std::uint64_t K,
                                              std::uint64_t m, Rng& rng) {
  const double dN = static_cast<double>(N);
  const double dK = static_cast<double>(K);
  const double dm = static_cast<double>(m);
  const std::uint64_t lo = K + m > N ? K + m - N : 0;
  const std::uint64_t hi = std::min(K, m);
  std::uint64_t mode =
      static_cast<std::uint64_t>((dm + 1.0) * (dK + 1.0) / (dN + 2.0));
  mode = std::min(std::max(mode, lo), hi);
  const double lp0 = lchoose(dK, static_cast<double>(mode)) +
                     lchoose(dN - dK, dm - static_cast<double>(mode)) -
                     lchoose(dN, dm);
  const double u = rng.uniform();
  double pl = std::exp(lp0);
  double pr = pl;
  double acc = pl;
  if (u < acc) return mode;
  std::uint64_t l = mode;
  std::uint64_t r = mode;
  while (l > lo || r < hi) {
    if (r < hi) {
      const double dr = static_cast<double>(r);
      pr *= (dK - dr) * (dm - dr) /
            ((dr + 1.0) * (dN - dK - dm + dr + 1.0));
      ++r;
      acc += pr;
      if (u < acc) return r;
    }
    if (l > lo) {
      const double dl = static_cast<double>(l);
      pl *= dl * (dN - dK - dm + dl) /
            ((dK - dl + 1.0) * (dm - dl + 1.0));
      --l;
      acc += pl;
      if (u < acc) return l;
    }
  }
  return hi;
}

// Mode-centered two-sided inversion of Binomial(n, p): the sibling of
// hypergeometric_inversion above — one uniform, the mode pmf from lgamma,
// and the exact ratio recurrence
//   pmf(k+1)/pmf(k) = (n-k)p / ((k+1)q)
// expanding outward until the cdf mass covers u, so O(sqrt(npq)) steps.
// Exact up to the rounding of the lgamma-based mode pmf (relative error
// ~1e-16·n·log n); exhaustion (u in the fp residue above the summed mass)
// returns the mode.
inline std::uint64_t binomial_inversion(std::uint64_t n, double p, Rng& rng) {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  const double dn = static_cast<double>(n);
  const double odds = p / (1.0 - p);
  const std::uint64_t mode =
      std::min(n, static_cast<std::uint64_t>((dn + 1.0) * p));
  const double dmode = static_cast<double>(mode);
  const double lp0 = lchoose(dn, dmode) + dmode * std::log(p) +
                     (dn - dmode) * std::log1p(-p);
  const double u = rng.uniform();
  double pl = std::exp(lp0);
  double pr = pl;
  double acc = pl;
  if (u < acc) return mode;
  std::uint64_t l = mode;
  std::uint64_t r = mode;
  while ((l > 0 && pl > 0.0) || (r < n && pr > 0.0)) {
    if (r < n) {
      const double dr = static_cast<double>(r);
      pr *= (dn - dr) / (dr + 1.0) * odds;
      ++r;
      acc += pr;
      if (u < acc) return r;
    }
    if (l > 0) {
      const double dl = static_cast<double>(l);
      pl *= dl / ((dn - dl + 1.0) * odds);
      --l;
      acc += pl;
      if (u < acc) return l;
    }
  }
  return mode;
}

}  // namespace detail

// Hypergeometric(pool, succ, m): successes among m items drawn without
// replacement from `pool` items of which `succ` are successes — the
// univariate link in the round engine's chained multivariate draws.
//
// The problem is first reduced by its two symmetries — drawing the
// complement (m -> pool - m, result = succ - k) and exchanging the roles
// of succ and m — until the drawn side is smallest; when that is <= 64
// the draw runs as exact integer without-replacement trials (so the
// small-n conformance suite exercises a fully exact path), otherwise the
// lgamma inversion above.
inline std::uint64_t sample_hypergeometric(std::uint64_t pool,
                                           std::uint64_t succ, std::uint64_t m,
                                           Rng& rng) {
  if (succ == 0 || m == 0) return 0;
  if (succ >= pool) return m;
  if (m >= pool) return succ;
  std::uint64_t flip = 0;
  bool negate = false;
  if (m > pool - m) {
    flip = succ;
    negate = true;
    m = pool - m;
  }
  if (succ < m) {
    const std::uint64_t tmp = succ;
    succ = m;
    m = tmp;
  }
  std::uint64_t k;
  if (m <= 64) {
    std::uint64_t left = pool;
    std::uint64_t good = succ;
    k = 0;
    for (std::uint64_t i = 0; i < m; ++i) {
      if (rng.below(left) < good) {
        ++k;
        --good;
      }
      --left;
    }
  } else {
    k = detail::hypergeometric_inversion(pool, succ, m, rng);
  }
  return negate ? flip - k : k;
}

// Length of the collision-free prefix of a uniform interaction round:
// pair i+1 is collision-free iff it draws two of the U = n - 2i untouched
// agents, so P(L >= i) = n! / ((n-2i)! * (n(n-1))^i). Returns min(L, cap);
// truncation at `cap` (interaction budget or omission quiet horizon) is
// exact because scheduler pairs are i.i.d. — the discarded suffix is
// independent of the prefix, and the next round restarts fresh.
inline std::size_t sample_round_length(std::uint64_t n, Rng& rng,
                                       std::size_t cap) {
  if (n < 2 || cap == 0) return 0;
  // ppfs-lint: allow(weight-mul): n < 2^32 keeps the pair total in u64.
  const std::uint64_t t = n * (n - 1);
  const std::size_t max_len =
      std::min(cap, static_cast<std::size_t>(n / 2));
  if (n <= (1u << 16)) {
    // Sequential exact integer trials; the first pair never collides.
    std::size_t i = 1;
    while (i < max_len) {
      const std::uint64_t u = n - 2 * i;
      // ppfs-lint: allow(weight-mul): u <= n < 2^32, so u(u-1) fits u64.
      if (u < 2 || rng.below(t) >= u * (u - 1)) return i;
      ++i;
    }
    return max_len;
  }
  // One uniform inverted through the monotone survival function in log
  // space: L is the unique i with S(i+1) <= u < S(i), found by bisection
  // on the floating-point ls(i) > lu. At n = 10^9 lgamma(n+1) ~ 2·10^10
  // carries an ulp of ~4·10^-6, more than ls moves between neighbouring
  // i, so the computed ls is not monotone there and another search path
  // could land on a different i. The path stays this bisection; only the
  // test at each midpoint is cheaper.
  double u = rng.uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  const double lu = std::log(u);
  const double dn = static_cast<double>(n);
  const double lt = std::log(static_cast<double>(t));
  double lg_n = -1.0;  // lgamma(n+1), computed on first use
  const auto ls = [&](std::size_t i) {
    if (lg_n < 0.0) lg_n = detail::log_gamma(dn + 1.0);
    return lg_n - detail::log_gamma(static_cast<double>(n - 2 * i) + 1.0) -
           static_cast<double>(i) * lt;
  };
  // ln S(i) = sum_{j<i} ln(1 - a_j) + ln(1 - b_j), a_j = 2j/n,
  // b_j = 2j/(n-1), all <= x_i = 2(i-1)/(n-1). With
  //   -y - y^2/(2(1-y)) <= ln(1-y) <= -y - y^2/2    (0 <= y < 1),
  // A = sum(a_j + b_j) = i(i-1)(1/n + 1/(n-1)) and
  // Q = sum(a_j^2 + b_j^2) = (2/3)(i-1)i(2i-1)(1/n^2 + 1/(n-1)^2):
  //   U(i) = -A - Q/2 >= ln S(i) >= -A - Q/(2(1-x_i)) = L(i).
  // Where a bound clears lu by more than err(i), the floating-point ls(i)
  // lies on the same side of lu, so the midpoint is decided without it.
  // err(i) bounds |ls(i) - ln S(i)| plus the rounding of the bounds, in
  // units of e = 2^-52 (ulp(y) <= e·|y|; one rounding <= e/2 relative),
  // taking lgamma_r and log within 4 ulp (glibc documents a few):
  //   lgamma(n+1) and lgamma(n-2i+1):   4e·lg_n each;
  //   their difference:                 e·lg_n;
  //   lt: t rounds to double (<= e absolute after the log), then log
  //       (4e·lt), so i·lt is off by <= 5e·i·lt, plus e·i·lt rounding;
  //   the last subtraction:             e·(lg_n + i·lt);
  //   U(i), <= 12 roundings:            7e·|U| <= 7e·i·lt (|U| <= |ln S|);
  //   L(i), used only above lu >= ln 2^-53 > -37: 8e·37.
  // Total <= 10e·lg_n + 14e·i·lt + 300e, with lg_n <= n·ln n
  // <= n·lt/2 + 1. err(i) = 2^-46·(n·lt/2 + i·lt + 8) = 64e·(...) covers
  // that over four times. The margin only sends more midpoints to ls(i);
  // it never changes an answer.
  const double inv_n1 = 1.0 / (dn - 1.0);
  const double s1 = 1.0 / dn + inv_n1;
  const double s2 = 1.0 / (dn * dn) + inv_n1 * inv_n1;
  const double lg_bound = dn * lt * 0.5 + 1.0;
  const auto above = [&](std::size_t i) {  // == (ls(i) > lu)
    const double di = static_cast<double>(i);
    const double err = 0x1.0p-46 * (lg_bound + di * lt + 8.0);
    const double a = di * (di - 1.0) * s1;
    const double q = (2.0 / 3.0) * (di - 1.0) * di * (2.0 * di - 1.0) * s2;
    if (-a - 0.5 * q + err < lu) return false;
    const double x = 2.0 * (di - 1.0) * inv_n1;
    if (-a - q / (2.0 * (1.0 - x)) - err > lu) return true;
    return ls(i) > lu;
  };
  if (above(max_len)) return max_len;
  std::size_t lo = 1;  // ls(1) = 0 > lu, so the invariant holds
  std::size_t hi = max_len;
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    (above(mid) ? lo : hi) = mid;
  }
  return lo;
}

}  // namespace ppfs::leap
