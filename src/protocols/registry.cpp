#include "protocols/registry.hpp"

#include <algorithm>
#include <stdexcept>
#include <string_view>

#include "core/population.hpp"
#include "protocols/counting.hpp"
#include "protocols/leader.hpp"
#include "protocols/logic.hpp"
#include "protocols/majority.hpp"
#include "protocols/oneway.hpp"
#include "protocols/pairing.hpp"
#include "protocols/parity.hpp"

namespace ppfs {

namespace {

// Initial configuration from ordered (state, count) groups: the counts
// vector at every n (O(q)), plus the per-agent vector up to kPerAgentLimit
// (groups concatenated in order — layouts stay byte-identical to the
// historical ones).
template <class W>
void set_initial(W& w,
                 const std::vector<std::pair<State, std::size_t>>& groups) {
  w.initial_counts.assign(w.protocol->num_states(), 0);
  std::size_t n = 0;
  for (const auto& [q, k] : groups) {
    w.initial_counts.at(q) += k;
    n += k;
  }
  if (n <= kPerAgentLimit) w.initial = make_initial(groups);
}

// The factories below leave `name` empty: the suite tables attach it from
// their stem, so names resolve without constructing anything.
Workload make_or_workload(std::size_t n) {
  // One agent holds a 1; OR must spread to everyone.
  Workload w{{}, make_or_protocol(), {}, 1, nullptr};
  set_initial(w, {{1, 1}, {0, n - 1}});
  return w;
}

Workload make_and_workload(std::size_t n) {
  // One agent holds a 0; AND must converge to 0.
  Workload w{{}, make_and_protocol(), {}, 0, nullptr};
  set_initial(w, {{0, 1}, {1, n - 1}});
  return w;
}

Workload make_approx_majority_workload(std::size_t n) {
  auto p = make_approximate_majority();
  const auto st = approx_majority_states();
  // 2/3 of the agents prefer x. The protocol guarantees the *majority*
  // opinion only w.h.p. for large margins, so the stable criterion — one
  // opinion extinct (consensus) — is what the workload checks.
  const std::size_t nx = std::max<std::size_t>(2 * n / 3, 1);
  auto conv = [st](const std::vector<std::size_t>& counts) {
    return counts[st.x] == 0 || counts[st.y] == 0;
  };
  Workload w{{}, p, {}, -1, std::move(conv)};
  set_initial(w, {{st.x, nx}, {st.y, n - nx}});
  return w;
}

Workload make_exact_majority_workload(std::size_t n) {
  auto p = make_exact_majority();
  const auto st = exact_majority_states();
  std::size_t nx = n / 2 + 1;  // strict majority for opinion 1
  Workload w{{}, p, {}, 1, nullptr};
  set_initial(w, {{st.big_x, nx}, {st.big_y, n - nx}});
  return w;
}

Workload make_exact_majority_gap_workload(std::size_t n) {
  auto p = make_exact_majority();
  const auto st = exact_majority_states();
  // Margin Theta(n): the simulator-at-scale instance of the same protocol.
  // The margin-2 workload above needs Theta(n^2) *simulated* interactions
  // to resolve the last cancellation, and no simulator can leap simulated
  // no-ops (the token/locking machinery runs regardless of whether delta
  // changes anything), so the count-space simulator demonstrations at
  // n = 10^6 use this large-margin initial configuration.
  const std::size_t nx = n / 2 + std::max<std::size_t>(1, n / 8);
  Workload w{{}, p, {}, 1, nullptr};
  set_initial(w, {{st.big_x, nx}, {st.big_y, n - nx}});
  return w;
}

Workload make_leader_workload(std::size_t n) {
  auto p = make_leader_election();
  const auto st = leader_states();
  auto conv = [st](const std::vector<std::size_t>& counts) {
    return counts[st.leader] == 1;
  };
  Workload w{{}, p, {}, -1, std::move(conv)};
  set_initial(w, {{st.leader, n}});
  return w;
}

Workload make_threshold_workload(std::size_t n, std::size_t k, bool above) {
  auto p = make_threshold_counting(k);
  // `above`: k ones present (predicate true); else k-1 ones (false).
  const std::size_t ones = above ? k : k - 1;
  if (ones > n) throw std::invalid_argument("threshold workload: ones > n");
  Workload w{{}, p, {}, above ? 1 : 0, nullptr};
  set_initial(w, {{1, ones}, {0, n - ones}});
  return w;
}

Workload make_mod_workload(std::size_t n, std::size_t m) {
  const std::size_t ones = std::max<std::size_t>(1, n / 2);
  auto p = make_mod_counting(m, ones % m);
  Workload w{{}, p, {}, 1, nullptr};
  set_initial(w, {{1, ones}, {0, n - ones}});
  return w;
}

Workload make_pairing_workload(std::size_t n) {
  auto p = make_pairing_protocol();
  const auto st = pairing_states();
  const std::size_t producers = n / 2;
  const std::size_t consumers = n - producers;
  const std::size_t expect_cs = std::min(consumers, producers);
  auto conv = [st, expect_cs](const std::vector<std::size_t>& counts) {
    return counts[st.critical] == expect_cs;
  };
  Workload w{{}, p, {}, -1, std::move(conv)};
  set_initial(w, {{st.consumer, consumers}, {st.producer, producers}});
  return w;
}

OneWayWorkload make_io_or_workload(std::size_t n) {
  OneWayWorkload w{{}, make_io_or(), {}, true, 1, nullptr};
  set_initial(w, {{1, 1}, {0, n - 1}});
  return w;
}

OneWayWorkload make_io_max_workload(std::size_t n) {
  OneWayWorkload w{{}, make_io_max(8), {}, true, 7, nullptr};
  // Agent i starts in i % 7, with agent 0 lifted to the unique maximum 7.
  w.initial_counts.assign(8, 0);
  for (std::size_t q = 0; q < 7; ++q)
    w.initial_counts[q] = n / 7 + (q < n % 7 ? 1 : 0);
  --w.initial_counts[0];
  w.initial_counts[7] = 1;
  if (n <= kPerAgentLimit) {
    w.initial.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      w.initial[i] = static_cast<State>(i % 7);
    w.initial[0] = 7;
  }
  return w;
}

OneWayWorkload make_io_leader_workload(std::size_t n) {
  auto conv = [](const std::vector<std::size_t>& counts) {
    return counts[0] == 1;  // exactly one leader
  };
  OneWayWorkload w{{}, make_io_leader(), {}, true, -1, std::move(conv)};
  set_initial(w, {{0, n}});
  return w;
}

OneWayWorkload make_io_majority_workload(std::size_t n) {
  // 2/3 majority for x; converged once one opinion is extinct. The
  // workload stands in for exact majority on one-way models (see
  // make_io_cancellation_majority).
  const auto st = io_majority_states();
  const std::size_t nx = std::max<std::size_t>(2 * n / 3, 1);
  auto conv = [st](const std::vector<std::size_t>& counts) {
    return counts[st.x] == 0 || counts[st.y] == 0;
  };
  OneWayWorkload w{{}, make_io_cancellation_majority(), {}, true, -1,
                   std::move(conv)};
  set_initial(w, {{st.x, nx}, {st.y, n - nx}});
  return w;
}

OneWayWorkload make_beacon_or_workload(std::size_t n) {
  // IT-only: non-identity g (beacon phase), OR over the bit halves.
  auto conv = [](const std::vector<std::size_t>& counts) {
    return counts[0] == 0 && counts[1] == 0;  // every bit is 1
  };
  OneWayWorkload w{{}, make_it_or_with_beacon(), {}, false, -1,
                   std::move(conv)};
  set_initial(w, {{2, 1}, {0, n - 1}});
  return w;
}

// One suite entry: the name stem (the full name appends "(n=N)") and the
// factory that builds the workload.
template <class W>
struct Entry {
  const char* stem;
  W (*make)(std::size_t n);
};

// The standard suite, in resolution order.
const Entry<Workload> kStandard[] = {
    {"or", make_or_workload},
    {"and", make_and_workload},
    {"approx-majority", make_approx_majority_workload},
    {"exact-majority", make_exact_majority_workload},
    {"exact-majority-gap", make_exact_majority_gap_workload},
    {"leader", make_leader_workload},
    {"threshold3-true",
     [](std::size_t n) { return make_threshold_workload(n, 3, true); }},
    {"threshold3-false",
     [](std::size_t n) { return make_threshold_workload(n, 3, false); }},
    {"mod3", [](std::size_t n) { return make_mod_workload(n, 3); }},
    {"pairing", make_pairing_workload},
};

// The one-way suite, in resolution order. `io` repeats the factory's
// OneWayWorkload::io (registry_equivalence_test pins the two together) so
// the IO check needs no protocol.
struct OneWayEntry {
  Entry<OneWayWorkload> entry;
  bool io;
};
const OneWayEntry kOneWay[] = {
    {{"or", make_io_or_workload}, true},
    {{"max", make_io_max_workload}, true},
    {{"leader", make_io_leader_workload}, true},
    {{"exact-majority-1way", make_io_majority_workload}, true},
    {{"beacon-or", make_beacon_or_workload}, false},
};

std::string sized_name(const char* stem, std::size_t n) {
  return std::string(stem) + "(n=" + std::to_string(n) + ")";
}

template <class W>
W build(const Entry<W>& e, std::size_t n) {
  W w = e.make(n);
  w.name = sized_name(e.stem, n);
  return w;
}

void require_n(std::size_t n, const char* suite) {
  if (n < 4)
    throw std::invalid_argument(std::string(suite) + ": n >= 4 required");
}

// Name resolution without building: the first suite entry whose sized
// name starts with `name`.
const Entry<Workload>& standard_entry(const std::string& name, std::size_t n) {
  require_n(n, "standard_workloads");
  for (const Entry<Workload>& e : kStandard) {
    if (sized_name(e.stem, n).rfind(name, 0) == 0) return e;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

const Entry<OneWayWorkload>& one_way_entry(const std::string& name,
                                           std::size_t n, Model model) {
  require_n(n, "one_way_workloads");
  for (const OneWayEntry& e : kOneWay) {
    // Prefix match; "exact-majority" resolves to "exact-majority-1way".
    const std::string full = sized_name(e.entry.stem, n);
    if (full.rfind(name, 0) == 0) {
      if (model == Model::IO && !e.io)
        throw std::invalid_argument("workload '" + full +
                                    "' needs g != id, IO forbids it");
      return e.entry;
    }
  }
  throw std::invalid_argument("unknown one-way workload '" + name +
                              "' (try: or, max, leader, exact-majority, "
                              "beacon-or)");
}

template <class W>
const std::vector<State>& per_agent_initial_of(const W& w,
                                               const std::string& what) {
  if (w.initial.empty() && !w.initial_counts.empty())
    throw std::invalid_argument(
        "workload '" + w.name +
        "' carries state counts only (populations above kPerAgentLimit = "
        "2^27 agents are never enumerated per agent); " +
        what +
        " needs per-agent states — only direct engine=batch and engine=auto "
        "runs start from counts");
  return w.initial;
}

}  // namespace

std::vector<Workload> standard_workloads(std::size_t n) {
  require_n(n, "standard_workloads");
  std::vector<Workload> out;
  for (const Entry<Workload>& e : kStandard) out.push_back(build(e, n));
  return out;
}

std::vector<Workload> core_workloads(std::size_t n) {
  require_n(n, "core_workloads");
  std::vector<Workload> out;
  for (const std::string_view stem :
       {"or", "exact-majority", "leader", "pairing"}) {
    for (const Entry<Workload>& e : kStandard)
      if (stem == e.stem) out.push_back(build(e, n));
  }
  return out;
}

std::vector<OneWayWorkload> one_way_workloads(std::size_t n) {
  require_n(n, "one_way_workloads");
  std::vector<OneWayWorkload> out;
  for (const OneWayEntry& e : kOneWay) out.push_back(build(e.entry, n));
  return out;
}

Workload find_workload(const std::string& name, std::size_t n) {
  return build(standard_entry(name, n), n);
}

OneWayWorkload find_one_way_workload(const std::string& name, std::size_t n,
                                     Model model) {
  return build(one_way_entry(name, n, model), n);
}

void check_workload_name(const std::string& name, std::size_t n,
                         std::optional<Model> one_way_model) {
  if (one_way_model) (void)one_way_entry(name, n, *one_way_model);
  else (void)standard_entry(name, n);
}

const std::vector<State>& per_agent_initial(const Workload& w,
                                            const std::string& what) {
  return per_agent_initial_of(w, what);
}

const std::vector<State>& per_agent_initial(const OneWayWorkload& w,
                                            const std::string& what) {
  return per_agent_initial_of(w, what);
}

}  // namespace ppfs
