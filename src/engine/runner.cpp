#include "engine/workload_runner.hpp"

#include "exp/scenario.hpp"

namespace ppfs {

namespace {

template <class W>
std::function<bool(const std::vector<std::size_t>&, const Protocol&)>
counts_probe(const W& w) {
  if (w.converged) {
    auto probe = w.converged;
    return [probe](const std::vector<std::size_t>& counts, const Protocol&) {
      return probe(counts);
    };
  }
  const int expected = w.expected_output;
  return [expected](const std::vector<std::size_t>& counts, const Protocol& p) {
    for (State q = 0; q < counts.size(); ++q) {
      if (counts[q] > 0 && p.output(q) != expected) return false;
    }
    return true;
  };
}

template <class W>
std::unique_ptr<Engine> workload_engine(const std::string& kind, const W& w,
                                        const EngineConfig& config) {
  if (kind == "native" || w.initial_counts.empty())
    return make_engine(kind, w.protocol,
                       per_agent_initial(w, "engine=" + kind), config);
  return make_engine_from_counts(kind, w.protocol, w.initial_counts, config);
}

}  // namespace

std::function<bool(const std::vector<std::size_t>&, const Protocol&)>
workload_counts_probe(const Workload& w) {
  return counts_probe(w);
}

std::function<bool(const std::vector<std::size_t>&, const Protocol&)>
workload_counts_probe(const OneWayWorkload& w) {
  return counts_probe(w);
}

std::unique_ptr<Engine> make_workload_engine(const std::string& kind,
                                             const Workload& w,
                                             const EngineConfig& config) {
  return workload_engine(kind, w, config);
}

std::unique_ptr<Engine> make_workload_engine(const std::string& kind,
                                             const OneWayWorkload& w,
                                             const EngineConfig& config) {
  return workload_engine(kind, w, config);
}

RunResult run_native_workload(const Workload& w, std::uint64_t seed,
                              const RunOptions& opt) {
  const auto engine = make_workload_engine("native", w);
  UniformScheduler sched(engine->size());
  Rng rng(seed);
  return run_engine_until(*engine, sched, rng, workload_counts_probe(w), opt);
}

RunResult run_workload_with_engine(const std::string& engine_kind,
                                   const Workload& w, std::uint64_t seed,
                                   const RunOptions& opt, RunStats* stats_out) {
  exp::ScenarioSpec spec;
  spec.workload = w.name;
  spec.custom = std::make_shared<Workload>(w);
  spec.n = w.initial.size();
  spec.engine = engine_kind;
  spec.seed = seed;
  spec.max_steps = opt.max_steps;
  spec.check_every = opt.check_every;
  spec.stable_checks = opt.stable_checks;
  return exp::run_replica(spec, /*trial=*/0, stats_out).run;
}

}  // namespace ppfs
