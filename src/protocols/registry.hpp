// A small registry of ready-made simulated workloads: protocol + initial
// configuration + expected stable outcome. Tests and benches sweep over
// these instead of copy-pasting setups.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/models.hpp"
#include "core/protocol.hpp"
#include "core/types.hpp"

namespace ppfs {

// Largest population the registry will enumerate agent-by-agent. Above
// it (n = 10^9 runs) a per-agent State vector costs gigabytes before any
// engine starts, so workloads carry only `initial_counts` and run on the
// count-space engines. Below it the per-agent layouts are byte-identical
// to the historical ones.
inline constexpr std::size_t kPerAgentLimit = std::size_t{1} << 27;

struct Workload {
  std::string name;
  std::shared_ptr<const Protocol> protocol;
  std::vector<State> initial;
  // Expected stable consensus output (see Population::consensus_output),
  // or -1 if the workload's verdict is checked by a custom monitor.
  int expected_output = -1;
  // Convergence probe: true once the configuration (by state counts) has
  // reached the expected stable set. Null means "use consensus_output".
  std::function<bool(const std::vector<std::size_t>& counts)> converged;
  // Count-vector form of the initial configuration: initial_counts[q]
  // agents start in state q (one entry per protocol state). Registry
  // workloads fill it at every n, at O(q) cost, and fill `initial` (the
  // per-agent layout, equal to this histogram) only for n <= kPerAgentLimit.
  // Hand-built workloads may leave it empty; `initial` then describes them.
  std::vector<std::size_t> initial_counts = {};
};

// Standard workload suite, parameterized by population size (n >= 2).
// Includes: or / and epidemics, approximate majority, exact majority
// (margin-2, plus the margin-Theta(n) "exact-majority-gap" instance the
// simulator-at-scale runs use), leader election, threshold-k counting,
// mod-m counting, pairing.
[[nodiscard]] std::vector<Workload> standard_workloads(std::size_t n);

// A smaller suite for expensive sweeps (simulators under adversaries).
[[nodiscard]] std::vector<Workload> core_workloads(std::size_t n);

// A workload expressed directly in the one-way form (g, f) of §2.2, for
// the IT/IO/I1..I4 engines. `io` marks protocols with g = id (runnable
// under IO and every I-model; IT-only workloads have io = false).
struct OneWayWorkload {
  std::string name;
  std::shared_ptr<const OneWayProtocol> protocol;
  std::vector<State> initial;
  bool io = true;
  // Expected stable consensus output, or -1 with a custom probe.
  int expected_output = -1;
  std::function<bool(const std::vector<std::size_t>& counts)> converged;
  // As in Workload: the counts form, filled at every n.
  std::vector<std::size_t> initial_counts = {};
};

// One-way workload suite: or / max epidemics, leader election, the IT
// beacon-or, and the cancellation majority ("exact-majority" requests on
// one-way models resolve here — exact majority is not one-way-computable,
// so the w.h.p.-exact cancellation protocol stands in for it).
[[nodiscard]] std::vector<OneWayWorkload> one_way_workloads(std::size_t n);

// Name resolution shared by the CLI and the experiment layer: the first
// standard workload whose name starts with `name` (names carry an "(n=...)"
// suffix, so "exact-majority" matches before "exact-majority-gap"). Names
// resolve without constructing protocols, and only the match is built.
// Throws std::invalid_argument for unknown names.
[[nodiscard]] Workload find_workload(const std::string& name, std::size_t n);

// One-way counterpart ("exact-majority" resolves to the cancellation
// majority). Throws if the workload needs g != id under IO.
[[nodiscard]] OneWayWorkload find_one_way_workload(const std::string& name,
                                                   std::size_t n, Model model);

// The per-agent initial vector, for the consumers that need agent
// identities (engine=native, every simulator). Throws
// std::invalid_argument naming kPerAgentLimit when the workload carries
// counts only; `what` (e.g. "engine=native") names the consumer.
[[nodiscard]] const std::vector<State>& per_agent_initial(
    const Workload& w, const std::string& what);
[[nodiscard]] const std::vector<State>& per_agent_initial(
    const OneWayWorkload& w, const std::string& what);

}  // namespace ppfs
