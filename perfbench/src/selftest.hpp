// The benchmark's self-test: the workload grids expand to their
// documented points, and the traced replica reproduces exp::run_replica
// exactly on a tiny cell of every engine kind. perfbench/run.py
// --selftest runs it and also checks the printed metric names against
// BENCHMARK.json.
#pragma once

namespace perfbench {

// Prints one line per check; returns 0 iff all passed.
[[nodiscard]] int run_selftest();

}  // namespace perfbench
