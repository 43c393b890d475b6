#include "sched/omission_process.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "engine/batch/leap_sampling.hpp"

namespace ppfs {
namespace {

// Does a uniform placement of `ones` ones among `slots` positions hold a
// run of at least m? Sequential without-replacement trials, O(slots)
// draws: the exact fallback where leap::long_run_probability is
// ill-conditioned (only small windows with a large rate^m reach it).
bool placement_has_long_run(std::size_t slots, std::size_t ones,
                            std::size_t m, Rng& rng) {
  std::size_t run = 0;
  for (std::size_t j = 0; j < slots && ones > 0; ++j) {
    if (rng.below(slots - j) < ones) {
      --ones;
      if (++run >= m) return true;
    } else {
      run = 0;
    }
  }
  return false;
}

struct CoinSummary {
  std::size_t ones = 0;
  bool long_run = false;  // some run of at least m consecutive ones
};

// `slots` i.i.d. rate-p coins, drawn as their summary: the ones count is
// one exact binomial draw; given it, the run event is one uniform against
// leap::long_run_probability, or an explicit placement where that series
// is ill-conditioned.
CoinSummary draw_coins(std::size_t slots, double p, std::size_t m, Rng& rng) {
  CoinSummary c;
  c.ones = static_cast<std::size_t>(
      leap::detail::binomial_inversion(slots, p, rng));
  if (c.ones < m) return c;
  if (const auto rho = leap::long_run_probability(slots, c.ones, m))
    c.long_run = rng.uniform() < *rho;
  else
    c.long_run = placement_has_long_run(slots, c.ones, m, rng);
  return c;
}

}  // namespace

std::string adversary_kind_name(AdversaryKind k) {
  switch (k) {
    case AdversaryKind::UO: return "uo";
    case AdversaryKind::NO: return "no";
    case AdversaryKind::NO1: return "no1";
    case AdversaryKind::Budget: return "budget";
  }
  throw std::invalid_argument("adversary_kind_name: bad kind");
}

AdversaryParams parse_adversary_spec(const std::string& spec) {
  AdversaryParams p;
  if (spec == "none" || spec.empty()) {
    p.rate = 0.0;
    return p;
  }
  // Split on ':' into head and up to two numeric fields.
  std::vector<std::string> parts;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t next = spec.find(':', pos);
    if (next == std::string::npos) {
      parts.push_back(spec.substr(pos));
      break;
    }
    parts.push_back(spec.substr(pos, next - pos));
    pos = next + 1;
  }
  const auto number = [&](std::size_t i) -> double {
    try {
      std::size_t used = 0;
      const double v = std::stod(parts.at(i), &used);
      if (used != parts[i].size() || v < 0)
        throw std::invalid_argument("trailing garbage");
      return v;
    } catch (const std::exception&) {
      throw std::invalid_argument("parse_adversary_spec: bad number '" +
                                  parts.at(i) + "' in '" + spec + "'");
    }
  };
  // Count fields (quiet_after, budget) must be plain integers: stoull, no
  // float round-trip (a double->size_t cast is UB for huge inputs and
  // silently truncates fractional ones).
  const auto count = [&](std::size_t i) -> std::size_t {
    try {
      std::size_t used = 0;
      const unsigned long long v = std::stoull(parts.at(i), &used);
      if (used != parts[i].size())
        throw std::invalid_argument("trailing garbage");
      return static_cast<std::size_t>(v);
    } catch (const std::exception&) {
      throw std::invalid_argument("parse_adversary_spec: bad count '" +
                                  parts.at(i) + "' in '" + spec + "'");
    }
  };
  const auto require_fields = [&](std::size_t min, std::size_t max) {
    if (parts.size() < min || parts.size() > max)
      throw std::invalid_argument("parse_adversary_spec: wrong number of "
                                  "fields in '" + spec + "'");
  };
  // Optional trailing "burst=K" / "burst=inf" field overriding the
  // consecutive-insertion cap.
  if (parts.size() > 1 && parts.back().rfind("burst=", 0) == 0) {
    const std::string v = parts.back().substr(6);
    if (v == "inf" || v == "none")
      p.max_burst = std::numeric_limits<std::size_t>::max();
    else {
      try {
        // stoull would wrap a negative value instead of throwing.
        if (v.empty() || v[0] == '-' || v[0] == '+')
          throw std::invalid_argument("bad burst");
        std::size_t used = 0;
        const unsigned long long b = std::stoull(v, &used);
        if (used != v.size() || b == 0)
          throw std::invalid_argument("bad burst");
        p.max_burst = static_cast<std::size_t>(b);
      } catch (const std::exception&) {
        throw std::invalid_argument(
            "parse_adversary_spec: bad burst cap '" + v + "' in '" + spec +
            "' (want a positive integer or inf)");
      }
    }
    parts.pop_back();
  }
  // Optional "@side" suffix on the kind ("uo@starter:0.2").
  std::string head = parts[0];
  if (const std::size_t at = head.find('@'); at != std::string::npos) {
    const std::string side = head.substr(at + 1);
    head.resize(at);
    if (side == "starter") p.side = OmitSide::Starter;
    else if (side == "reactor") p.side = OmitSide::Reactor;
    else if (side == "both") p.side = OmitSide::Both;
    else
      throw std::invalid_argument("parse_adversary_spec: unknown side '" +
                                  side + "' (want starter|reactor|both)");
  }
  if (head == "uo") {
    require_fields(1, 2);
    p.kind = AdversaryKind::UO;
    if (parts.size() > 1) p.rate = number(1);
  } else if (head == "no") {
    require_fields(2, 3);
    p.kind = AdversaryKind::NO;
    p.quiet_after = count(1);
    if (parts.size() > 2) p.rate = number(2);
  } else if (head == "no1") {
    require_fields(1, 2);
    p.kind = AdversaryKind::NO1;
    p.max_omissions = 1;
    if (parts.size() > 1) p.rate = number(1);
  } else if (head == "budget") {
    require_fields(2, 3);
    p.kind = AdversaryKind::Budget;
    p.max_omissions = count(1);
    if (parts.size() > 2) p.rate = number(2);
  } else {
    throw std::invalid_argument("parse_adversary_spec: unknown kind '" + head +
                                "' (want none|uo|no|no1|budget)");
  }
  if (p.rate < 0.0 || p.rate > 1.0)
    throw std::invalid_argument("parse_adversary_spec: rate must be in [0, 1]");
  return p;
}

OmissionProcess::OmissionProcess(AdversaryParams params) : params_(params) {
  if (params_.kind == AdversaryKind::NO1) params_.max_omissions = 1;
}

std::size_t OmissionProcess::remaining_budget() const noexcept {
  return emitted_ >= params_.max_omissions ? 0
                                           : params_.max_omissions - emitted_;
}

std::size_t OmissionProcess::sample_round_omissions(std::size_t deliveries,
                                                    std::size_t step,
                                                    Rng& rng) {
  if (deliveries == 0) return 0;
  if (!active(step)) {
    // Every delivery is real; the first one closes any open burst episode,
    // exactly as should_omit would.
    set_burst(0);
    return 0;
  }
  const double p = params_.rate;
  if (!burst_cap_reachable() && remaining_budget() >= deliveries) {
    // The cap can never bind again (absorbing) and the budget cannot run
    // out mid-round: every delivery is an independent rate coin. Burst
    // bookkeeping is irrelevant from here on, as in the uncapped leaps.
    const std::size_t k = static_cast<std::size_t>(
        leap::detail::binomial_inversion(deliveries, p, rng));
    emitted_ += k;
    return k;
  }
  if (remaining_budget() >= deliveries && long_runs_rare(deliveries))
    return sample_capped_round(deliveries, rng);
  // Exact episode walk over the within-burst Markov chain, one burst
  // episode per iteration (the mark-only sibling of
  // leap::sample_capped_burst_leg).
  std::size_t om = 0;
  std::size_t i = 0;
  while (i < deliveries) {
    if (!active(step)) {  // budget exhausted mid-round
      set_burst(0);
      break;
    }
    if (burst_ >= params_.max_burst) {
      // A full burst forces the next delivery real (no rate coin).
      set_burst(0);
      ++i;
      continue;
    }
    // Run of real deliveries before the next insertion (each resets the
    // burst, so the insertion probability is p throughout).
    const std::size_t room = deliveries - i;
    const std::size_t run = leap::sample_bernoulli_run(p, rng, room);
    if (run > 0) set_burst(0);
    i += run;
    if (run >= room) break;
    // The next delivery opens (or continues) a burst: the first insertion
    // plus its geometric continuation, truncated by the burst cap, the
    // budget, and the round end.
    const std::size_t limit = std::min(
        {params_.max_burst - burst_, remaining_budget(), deliveries - i});
    const std::size_t k =
        1 + leap::sample_bernoulli_run(1.0 - p, rng, limit - 1);
    om += k;
    emitted_ += k;
    burst_ += k;
    i += k;
    if (k < limit) {
      // The burst ended because the rate coin came up real: consume that
      // real delivery and reset.
      set_burst(0);
      ++i;
    }
    // k == limit: the loop head classifies what bound it (burst cap ->
    // forced real, budget -> real tail, round end -> exit).
  }
  return om;
}

bool OmissionProcess::long_runs_rare(std::size_t deliveries) const noexcept {
  if (params_.max_burst == std::numeric_limits<std::size_t>::max())
    return false;
  const double m = static_cast<double>(params_.max_burst) + 1.0;
  return (static_cast<double>(deliveries) + 1.0) * std::pow(params_.rate, m) <=
         1.0 / 16;
}

// Coin coupling: with i.i.d. rate coins c_j the capped chain omits at j
// exactly when c_j = 1 and the burst is below the cap K, so a window
// entered at burst 0 differs from its raw coins only inside runs of at
// least m = K + 1 ones (the (K+1)-th one of a run is the forced real
// delivery). Per round:
//   1. close an open burst coin by coin (at most K + 1 coins);
//   2. count the window's trailing run T with backward coins, up to m;
//   3. summarize the ell = w - T - 1 coins before the zero that ends it
//      (draw_coins: S ones, and whether they hold a long run);
//   4. with no long run anywhere, the round has S + T omissions and
//      ends at burst T;
//   5. otherwise redraw from the law given a long run: the end tau of the
//      first one, a prefix of tau - m - 1 coins free of long runs, K
//      omissions and the forced real at tau, then repeat from 2 on the
//      rest of the window.
// Steps 2-4 decide "no long run" with exactly its probability, so mixing
// them with step 5 reproduces the chain's joint law of (omissions, final
// burst). Step 5 runs with probability about deliveries·rate^m.
std::size_t OmissionProcess::sample_capped_round(std::size_t deliveries,
                                                 Rng& rng) {
  const double p = params_.rate;
  const std::size_t cap = params_.max_burst;
  const std::size_t m = cap + 1;
  std::size_t om = 0;
  std::size_t i = 0;
  if (burst_ > 0) {
    const std::size_t room = std::min(cap - burst_, deliveries);
    const std::size_t k =
        room == 0 ? 0 : leap::sample_bernoulli_run(1.0 - p, rng, room);
    om += k;
    burst_ += k;
    i += k;
    if (i < deliveries) {
      // A real rate coin, or the forced real delivery after a full burst.
      set_burst(0);
      ++i;
    }
  }
  std::size_t w = deliveries - i;
  std::vector<double> first_end;  // F(j) = P(first long run ends by j)
  while (w > 0) {
    const std::size_t t =
        leap::sample_bernoulli_run(1.0 - p, rng, std::min(w, m));
    if (t < m) {
      if (t == w) {  // the whole window is one short run
        om += t;
        burst_ = t;
        break;
      }
      const CoinSummary head = draw_coins(w - t - 1, p, m, rng);
      if (!head.long_run) {
        om += head.ones + t;
        burst_ = t;
        break;
      }
    }
    // The window holds a long run. F(m) = p^m, and for j > m the first
    // completion at j needs a zero at j-m after a prefix free of them:
    // F(j) = F(j-1) + (1-p)·p^m·(1 - F(j-m-1)).
    const double pm = std::pow(p, static_cast<double>(m));
    first_end.assign(w + 1, 0.0);
    first_end[m] = pm;
    for (std::size_t j = m + 1; j <= w; ++j)
      first_end[j] =
          first_end[j - 1] + (1.0 - p) * pm * (1.0 - first_end[j - m - 1]);
    const double target = rng.uniform() * first_end[w];
    std::size_t tau = m;
    while (tau < w && first_end[tau] <= target) ++tau;
    CoinSummary prefix;
    do {
      prefix = draw_coins(tau > m ? tau - m - 1 : 0, p, m, rng);
    } while (prefix.long_run);
    om += prefix.ones + cap;
    burst_ = cap;
    set_burst(0);  // the forced real delivery at tau
    w -= tau;
  }
  emitted_ += om;
  return om;
}

bool OmissionProcess::should_omit(Rng& rng, std::size_t step) {
  if (!active(step) || burst_ >= params_.max_burst || !rng.chance(params_.rate)) {
    if (burst_ > 0) PPFS_METRIC(m_burst_len_, record(burst_));
    burst_ = 0;
    return false;
  }
  ++emitted_;
  ++burst_;
  return true;
}

}  // namespace ppfs
