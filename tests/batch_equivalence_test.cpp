// Batch/native reachable-set agreement. The count chain the batch engine
// advances is the exact projection of the agent-level uniform-scheduler
// chain, so for n <= 8 the set of reachable count configurations must
// agree exactly with an agent-level BFS (including self-pair gating: a rule
// (q, q) needs two agents in q). The distributional law of every engine
// face is checked by conformance_test.
#include <gtest/gtest.h>

#include <set>

#include "engine/batch/configuration.hpp"
#include "protocols/registry.hpp"
#include "test_protocol_gen.hpp"

namespace ppfs {
namespace {

using ppfs::testing::random_initial;
using ppfs::testing::random_protocol;

using Counts = std::vector<std::size_t>;

// --- Exact reachable-set agreement (n <= 8) ---------------------------------

// Agent-level BFS over explicit state tuples, projected to count vectors.
std::set<Counts> native_reachable(const Protocol& p, const std::vector<State>& init,
                                  std::size_t max_configs) {
  std::set<std::vector<State>> seen;
  std::vector<std::vector<State>> frontier{init};
  seen.insert(init);
  while (!frontier.empty() && seen.size() < max_configs) {
    std::vector<std::vector<State>> next;
    for (const auto& cfg : frontier) {
      for (std::size_t a = 0; a < cfg.size(); ++a) {
        for (std::size_t b = 0; b < cfg.size(); ++b) {
          if (a == b) continue;
          const StatePair out = p.delta(cfg[a], cfg[b]);
          std::vector<State> succ = cfg;
          succ[a] = out.starter;
          succ[b] = out.reactor;
          if (seen.insert(succ).second) next.push_back(std::move(succ));
        }
      }
    }
    frontier = std::move(next);
  }
  std::set<Counts> projected;
  for (const auto& cfg : seen) {
    Counts c(p.num_states(), 0);
    for (State q : cfg) ++c[q];
    projected.insert(std::move(c));
  }
  return projected;
}

// Count-level BFS through Configuration::apply_pair, exactly the moves the
// batch engine can make.
std::set<Counts> batch_reachable(std::shared_ptr<const Protocol> p,
                                 const Counts& init, std::size_t max_configs) {
  std::set<Counts> seen{init};
  std::vector<Counts> frontier{init};
  const std::size_t q = p->num_states();
  while (!frontier.empty() && seen.size() < max_configs) {
    std::vector<Counts> next;
    for (const auto& c : frontier) {
      for (State s = 0; s < q; ++s) {
        for (State r = 0; r < q; ++r) {
          const std::size_t need_s = 1 + static_cast<std::size_t>(s == r);
          if (c[s] < need_s || c[r] < 1) continue;
          Configuration conf(p, c);
          conf.apply_pair(s, r);
          if (seen.insert(conf.counts()).second) next.push_back(conf.counts());
        }
      }
    }
    frontier = std::move(next);
  }
  return seen;
}

TEST(BatchEquivalence, ReachableConfigurationSetsAgreeSmallN) {
  Rng meta(101);
  for (int round = 0; round < 6; ++round) {
    const std::size_t states = 2 + meta.below(3);  // q <= 4
    const std::size_t n = 4 + meta.below(3);       // n <= 6
    auto p = random_protocol(states, meta);
    const auto init = random_initial(n, states, meta);
    Counts init_counts(states, 0);
    for (State q : init) ++init_counts[q];

    const auto native = native_reachable(*p, init, 200'000);
    const auto batch = batch_reachable(p, init_counts, 200'000);
    EXPECT_EQ(native, batch) << "round " << round << " states=" << states
                             << " n=" << n;
  }
}

TEST(BatchEquivalence, ReachableSetsAgreeOnRegistryProtocols) {
  for (const Workload& w : standard_workloads(6)) {
    if (w.protocol->num_states() > 8) continue;
    Counts init_counts(w.protocol->num_states(), 0);
    for (State q : w.initial) ++init_counts[q];
    const auto native = native_reachable(*w.protocol, w.initial, 200'000);
    const auto batch = batch_reachable(w.protocol, init_counts, 200'000);
    EXPECT_EQ(native, batch) << w.name;
  }
}

}  // namespace
}  // namespace ppfs
