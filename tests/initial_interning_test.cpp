// Bulk interning of initial populations (DynamicRuleSource::
// intern_initial_groups): the count-space simulator engines intern each
// distinct initial wrapper state once and adopt its count, instead of
// serializing and hashing every agent. The contract is that nothing
// downstream can tell: the groups' ids equal agent-by-agent interning
// through each source's own encode path, and a SimBatchSystem built from
// the groups is byte-identical (save_state) to one that adopts the
// agent-by-agent ids one agent at a time.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "engine/batch/sim_batch_system.hpp"
#include "protocols/majority.hpp"
#include "sim/sim_rules.hpp"
#include "util/binio.hpp"
#include "util/rng.hpp"

namespace ppfs {
namespace {

constexpr std::size_t kN = 96;

// Two per-agent layouts of one multiset over q states in which every
// state has a distinct count (4, 8, 12, ..., the last state takes the
// rest): the states dealt round-robin (interleaved), and a seeded shuffle.
std::vector<std::vector<State>> layouts(std::size_t q) {
  std::vector<std::size_t> left(q, 0);
  std::size_t total = 0;
  for (std::size_t j = 0; j + 1 < q; ++j) total += left[j] = 4 * (j + 1);
  left[q - 1] = kN - total;
  std::vector<State> interleaved;
  while (interleaved.size() < kN)
    for (std::size_t j = 0; j < q; ++j)
      if (left[j] > 0) {
        --left[j];
        interleaved.push_back(static_cast<State>(j));
      }
  std::vector<State> shuffled = interleaved;
  Rng rng(4242);
  for (std::size_t i = kN - 1; i > 0; --i)
    std::swap(shuffled[i], shuffled[rng.below(i + 1)]);
  return {interleaved, shuffled};
}

std::string saved(const SimBatchSystem& sys) {
  bin::Writer w;
  sys.save_state(w);
  return w.data();
}

struct Case {
  std::string label;
  // A fresh source, and its existing one-agent encode path.
  std::function<std::shared_ptr<DynamicRuleSource>()> make;
  std::function<State(DynamicRuleSource&, State)> intern_one;
};

std::vector<Case> cases() {
  auto p = make_exact_majority();
  const auto skno = [p](std::size_t o, Model m) {
    return Case{
        "skno:o=" + std::to_string(o),
        [p, o, m] { return std::make_shared<SknoRuleSource>(p, m, o); },
        [](DynamicRuleSource& src, State q) {
          SknoCore::Agent a;
          a.sim_state = q;
          return static_cast<SknoRuleSource&>(src).intern_wrapper(a);
        }};
  };
  return {
      skno(0, Model::IT),
      skno(2, Model::I3),
      Case{"naming",
           [p] { return std::make_shared<NamingRuleSource>(p, Model::IO, kN); },
           [](DynamicRuleSource& src, State q) {
             NamingRuleSource::Full f;
             f.sid.active = false;
             f.sid.id = kNoId;
             f.sid.sim_state = q;
             return static_cast<NamingRuleSource&>(src).intern_wrapper_full(f);
           }},
  };
}

TEST(InitialInterning, GroupsEqualAgentByAgentInterning) {
  for (const Case& c : cases()) {
    auto probe = c.make();
    for (const std::vector<State>& sim : layouts(probe->protocol().num_states())) {
      auto bulk = c.make();
      auto reference = c.make();
      std::vector<State> ids;
      for (const State q : sim) ids.push_back(c.intern_one(*reference, q));
      EXPECT_EQ(bulk->intern_initial_groups(sim),
                first_appearance_groups(ids, reference->universe_size(), "test"))
          << c.label;
      EXPECT_EQ(bulk->universe_size(), reference->universe_size()) << c.label;
      // The per-agent form stays the agent-by-agent reference.
      EXPECT_EQ(c.make()->intern_initial(sim), ids) << c.label;
    }
  }
}

TEST(InitialInterning, SimBatchSystemIsByteIdenticalEitherWay) {
  for (const Case& c : cases()) {
    auto probe = c.make();
    for (const std::vector<State>& sim : layouts(probe->protocol().num_states())) {
      const SimBatchSystem bulk(c.make(), sim);
      // The historical construction: intern agent by agent and add each
      // agent's count on its own.
      auto reference = c.make();
      std::vector<std::pair<State, std::size_t>> agents;
      for (const State q : sim) agents.emplace_back(c.intern_one(*reference, q), 1);
      const SimBatchSystem per_agent(reference, SimBatchSystem::AdoptWrappers{},
                                     agents);
      EXPECT_EQ(saved(bulk), saved(per_agent)) << c.label;
      EXPECT_EQ(bulk.configuration().occupied(),
                per_agent.configuration().occupied())
          << c.label;
      EXPECT_EQ(bulk.projected_counts(), per_agent.projected_counts()) << c.label;
    }
  }
}

TEST(InitialInterning, SidKeepsOneWrapperPerAgent) {
  // SID's initial ids are per agent: the default fold yields one group of
  // count 1 per agent, in agent order.
  auto p = make_exact_majority();
  SidRuleSource rules(p, Model::IO, kN);
  const std::vector<State> sim = layouts(p->num_states())[1];
  const auto groups = rules.intern_initial_groups(sim);
  ASSERT_EQ(groups.size(), kN);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(groups[i].second, 1u);
    EXPECT_EQ(rules.project(groups[i].first), sim[i]);
  }
}

TEST(InitialInterning, RejectsOutOfRangeStates) {
  auto p = make_exact_majority();
  SknoRuleSource rules(p, Model::IT, 0);
  std::vector<State> sim(kN, 0);
  sim[7] = static_cast<State>(p->num_states());
  EXPECT_THROW((void)rules.intern_initial_groups(sim), std::invalid_argument);
}

// first_appearance_groups adds whole blocks of one state at once and
// spreads mixed blocks over several tallies; neither may show. Layouts of
// random runs (short and long, so blocks are uniform, mixed and cut by
// the tail) must give the agent-by-agent groups, and an out-of-range
// state anywhere must throw.
TEST(InitialInterning, FirstAppearanceGroupsEqualAgentByAgentCounts) {
  constexpr std::size_t q = 5;
  const auto agent_by_agent = [](const std::vector<State>& states) {
    std::vector<std::pair<State, std::size_t>> want;
    for (const State s : states) {
      const auto it = std::find_if(want.begin(), want.end(),
                                   [s](const auto& g) { return g.first == s; });
      if (it == want.end()) want.emplace_back(s, 1);
      else ++it->second;
    }
    return want;
  };
  const auto runs_of = [](std::initializer_list<std::pair<State, std::size_t>>
                              runs) {
    std::vector<State> states;
    for (const auto& [s, k] : runs) states.insert(states.end(), k, s);
    return states;
  };
  // Fixed layouts for the three places a state can first show up: inside
  // a mixed block (3 at agent 37, in the block 32..47), a uniform block
  // right after a long uniform run (4 at agents 1008..1028, after 1008
  // agents of 2), and only in the tail past the last whole block (1 at
  // agents 64..66 of n = 67).
  for (const std::vector<State>& states :
       {runs_of({{0, 37}, {3, 1}, {0, 2}, {1, 100}}),
        runs_of({{2, 1008}, {4, 21}, {2, 11}, {0, 33}}),
        runs_of({{0, 64}, {1, 3}})})
    EXPECT_EQ(first_appearance_groups(states, q, "test"),
              agent_by_agent(states));
  Rng rng(2026);
  for (std::size_t trial = 0; trial < 300; ++trial) {
    std::vector<State> states;
    const std::size_t runs = rng.below(12);
    for (std::size_t r = 0; r < runs; ++r)
      states.insert(states.end(), 1 + rng.below(rng.chance(0.5) ? 4 : 80),
                    static_cast<State>(rng.below(q)));
    EXPECT_EQ(first_appearance_groups(states, q, "test"),
              agent_by_agent(states));
    if (states.empty()) continue;
    states[rng.below(states.size())] = static_cast<State>(q + rng.below(3));
    try {
      (void)first_appearance_groups(states, q, "test");
      ADD_FAILURE() << "no throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), "test: initial state out of range");
    }
  }
}

}  // namespace
}  // namespace ppfs
