// Lazy registry resolution: find_workload / find_one_way_workload build
// only the entry they match, so they must return exactly what the first
// prefix match in the full suite returns — name, per-agent layout, counts,
// expected output and convergence verdict — and reject unknown names and
// IO-forbidden workloads with the same messages.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "protocols/registry.hpp"

namespace ppfs {
namespace {

const std::size_t kSizes[] = {4, 16, 1000};

// Verdicts of a workload's probe on its own counts and on every
// single-state configuration; -1 marks a workload without a custom probe.
std::vector<int> verdicts(
    const std::function<bool(const std::vector<std::size_t>&)>& conv,
    const std::vector<std::size_t>& counts, std::size_t n) {
  if (!conv) return {-1};
  std::vector<int> out = {conv(counts) ? 1 : 0};
  for (std::size_t q = 0; q < counts.size(); ++q) {
    std::vector<std::size_t> all(counts.size(), 0);
    all[q] = n;
    out.push_back(conv(all) ? 1 : 0);
  }
  return out;
}

template <class W>
void expect_same(const W& lazy, const W& full, std::size_t n,
                 const std::string& prefix) {
  EXPECT_EQ(lazy.name, full.name) << prefix;
  EXPECT_EQ(lazy.initial, full.initial) << prefix;
  EXPECT_EQ(lazy.initial_counts, full.initial_counts) << prefix;
  EXPECT_EQ(lazy.expected_output, full.expected_output) << prefix;
  EXPECT_EQ(verdicts(lazy.converged, lazy.initial_counts, n),
            verdicts(full.converged, full.initial_counts, n))
      << prefix;
}

std::string thrown_message(const std::function<void()>& f) {
  try {
    f();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "<no throw>";
}

TEST(RegistryEquivalence, StandardPrefixesResolveToTheFirstSuiteMatch) {
  for (const std::size_t n : kSizes) {
    const std::vector<Workload> suite = standard_workloads(n);
    for (const Workload& named : suite) {
      for (std::size_t len = 0; len <= named.name.size(); ++len) {
        const std::string prefix = named.name.substr(0, len);
        const Workload* first = nullptr;
        for (const Workload& w : suite) {
          if (w.name.rfind(prefix, 0) == 0) {
            first = &w;
            break;
          }
        }
        ASSERT_NE(first, nullptr) << prefix;
        expect_same(find_workload(prefix, n), *first, n, prefix);
      }
    }
  }
}

TEST(RegistryEquivalence, OneWayPrefixesResolveToTheFirstSuiteMatch) {
  for (const std::size_t n : kSizes) {
    const std::vector<OneWayWorkload> suite = one_way_workloads(n);
    for (const Model model : {Model::IT, Model::IO, Model::I3}) {
      for (const OneWayWorkload& named : suite) {
        for (std::size_t len = 0; len <= named.name.size(); ++len) {
          const std::string prefix = named.name.substr(0, len);
          const OneWayWorkload* first = nullptr;
          for (const OneWayWorkload& w : suite) {
            if (w.name.rfind(prefix, 0) == 0) {
              first = &w;
              break;
            }
          }
          ASSERT_NE(first, nullptr) << prefix;
          if (model == Model::IO && !first->io) {
            EXPECT_EQ(thrown_message([&] {
                        (void)find_one_way_workload(prefix, n, model);
                      }),
                      "workload '" + first->name +
                          "' needs g != id, IO forbids it")
                << prefix;
            continue;
          }
          const OneWayWorkload lazy = find_one_way_workload(prefix, n, model);
          expect_same(lazy, *first, n, prefix);
          EXPECT_EQ(lazy.io, first->io) << prefix;
        }
      }
    }
  }
}

TEST(RegistryEquivalence, CoreSuiteIsTheNamedSubset) {
  std::vector<std::string> names;
  for (const Workload& w : core_workloads(16)) names.push_back(w.name);
  EXPECT_EQ(names, (std::vector<std::string>{"or(n=16)", "exact-majority(n=16)",
                                             "leader(n=16)", "pairing(n=16)"}));
}

TEST(RegistryEquivalence, RejectionsKeepTheirMessages) {
  EXPECT_EQ(thrown_message([] { (void)find_workload("nope", 16); }),
            "unknown workload 'nope'");
  EXPECT_EQ(thrown_message([] { (void)find_workload("or(n=16)x", 16); }),
            "unknown workload 'or(n=16)x'");
  EXPECT_EQ(
      thrown_message([] { (void)find_one_way_workload("nope", 16, Model::IT); }),
      "unknown one-way workload 'nope' (try: or, max, leader, exact-majority, "
      "beacon-or)");
  EXPECT_EQ(thrown_message([] { (void)find_workload("or", 3); }),
            "standard_workloads: n >= 4 required");
  EXPECT_EQ(
      thrown_message([] { (void)find_one_way_workload("or", 3, Model::IT); }),
      "one_way_workloads: n >= 4 required");
}

}  // namespace
}  // namespace ppfs
