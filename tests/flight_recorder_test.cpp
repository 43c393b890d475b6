// Flight-recorder tests: cadence/delta-encoding unit checks, the
// attach-is-invisible invariant (a metrics-on run follows the exact
// trajectory of a metrics-off run), and the headline determinism property
// — sweep timelines are bit-identical no matter how many worker threads
// executed the replicas.
#include "obs/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <string>

#include "engine/batch/dispatch.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep_service.hpp"
#include "protocols/logic.hpp"

namespace ppfs {
namespace {

using obs::ConfigSummary;
using obs::FlightRecorder;
using obs::FlightRecorderOptions;
using obs::MetricRegistry;

TEST(FlightRecorder, CadenceAdvancesToNextMultipleOfEvery) {
  FlightRecorder rec({.every = 100, .top_k = 2});
  EXPECT_FALSE(rec.due(0));
  EXPECT_FALSE(rec.due(99));
  EXPECT_TRUE(rec.due(100));

  // Snapshots land at slice boundaries, possibly past the due point; the
  // next due point is the following multiple of `every`.
  MetricRegistry reg;
  ConfigSummary s;
  s.interactions = 130;
  rec.record(reg, s);
  EXPECT_EQ(rec.snapshots(), 1u);
  EXPECT_FALSE(rec.due(199));
  EXPECT_TRUE(rec.due(200));

  // every = 0 degrades to every-interaction rather than dividing by zero.
  FlightRecorder each({.every = 0});
  EXPECT_TRUE(each.due(1));
}

TEST(FlightRecorder, DeltaEncodesAndOmitsUnchangedMetrics) {
  MetricRegistry reg;
  reg.counter("fires").add(5);
  reg.counter("steady").add(1);
  reg.gauge("live").set(3.0);
  reg.histogram("leap").record(6);  // bucket [4,8)

  FlightRecorder rec({.every = 10, .top_k = 4});
  ConfigSummary s;
  s.interactions = 10;
  s.distinct_states = 2;
  s.top_counts = {{"one", 7}, {"zero", 3}};
  rec.record(reg, s);

  reg.counter("fires").add(3);  // "steady" and the gauge stay put
  reg.histogram("leap").record(6);
  s.interactions = 20;
  s.distinct_states = 3;
  rec.record(reg, s);

  ASSERT_EQ(rec.snapshots(), 2u);
  const std::string& first = rec.lines()[0];
  EXPECT_NE(first.find("\"i\":10"), std::string::npos);
  EXPECT_NE(first.find("\"fires\":5"), std::string::npos);
  EXPECT_NE(first.find("\"steady\":1"), std::string::npos);
  EXPECT_NE(first.find("\"live\":3"), std::string::npos);
  EXPECT_NE(first.find("[\"one\",7]"), std::string::npos);
  EXPECT_NE(first.find("\"leap\":[[4,1]]"), std::string::npos);

  const std::string& second = rec.lines()[1];
  EXPECT_NE(second.find("\"di\":10"), std::string::npos);
  EXPECT_NE(second.find("\"fires\":3"), std::string::npos);  // delta, not 8
  EXPECT_EQ(second.find("\"steady\""), std::string::npos);   // unchanged
  EXPECT_EQ(second.find("\"live\""), std::string::npos);     // unchanged
  EXPECT_NE(second.find("\"leap\":[[4,1]]"), std::string::npos);
  // No wall-clock section unless include_timings was requested.
  EXPECT_EQ(second.find("\"wall\""), std::string::npos);
}

TEST(FlightRecorder, TruncatesTopCountsToTopK) {
  FlightRecorder rec({.every = 1, .top_k = 2});
  MetricRegistry reg;
  ConfigSummary s;
  s.interactions = 1;
  s.top_counts = {{"a", 9}, {"b", 5}, {"c", 2}, {"d", 1}};
  rec.record(reg, s);
  const std::string& line = rec.lines()[0];
  EXPECT_NE(line.find("[\"a\",9]"), std::string::npos);
  EXPECT_NE(line.find("[\"b\",5]"), std::string::npos);
  EXPECT_EQ(line.find("\"c\""), std::string::npos);
}

TEST(Engine, MetricsAreOptInAndIdempotent) {
  auto engine = make_engine("batch", make_or_protocol(), {1, 0, 0, 0});
  EXPECT_EQ(engine->metrics(), nullptr);  // detached by default
  obs::MetricRegistry& reg = engine->enable_metrics();
  EXPECT_EQ(engine->metrics(), &reg);
  // Second call returns the same registry — wiring happens once.
  EXPECT_EQ(&engine->enable_metrics(), &reg);
  engine->sync_metrics();
  EXPECT_EQ(reg.counter("run.interactions").value(), 0u);
}

TEST(Engine, AttachedMetricsDoNotChangeTheTrajectory) {
  // The instrumentation contract: hooks never consume Rng draws and
  // snapshots only happen at existing slice boundaries, so a metrics-on
  // replica is bit-identical to a metrics-off one.
  exp::ScenarioGrid grid;
  grid.workloads = {"exact-majority"};
  grid.sizes = {128};
  grid.trials = 3;
  grid.seed = 20260808;

  exp::ScenarioGrid instrumented = grid;
  instrumented.metrics_every = 256;

  const exp::Report plain = exp::run_points(grid.expand());
  const exp::Report traced = exp::run_points(instrumented.expand());
  ASSERT_EQ(plain.rows().size(), traced.rows().size());
  for (std::size_t p = 0; p < plain.rows().size(); ++p) {
    const auto& a = plain.rows()[p].replicas;
    const auto& b = traced.rows()[p].replicas;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t t = 0; t < a.size(); ++t) {
      EXPECT_EQ(a[t].run.steps, b[t].run.steps);
      EXPECT_EQ(a[t].run.converged, b[t].run.converged);
      EXPECT_EQ(a[t].fires, b[t].fires);
      EXPECT_EQ(a[t].noops, b[t].noops);
      EXPECT_TRUE(a[t].flight.empty());
      EXPECT_FALSE(b[t].flight.empty());
    }
  }
}

TEST(FlightRecorder, SweepTimelinesAreThreadCountInvariant) {
  // The ISSUE acceptance check: a 2-axis grid swept at --threads=1 and
  // --threads=4 must produce byte-identical concatenated timelines
  // (replicas carry their own recorders; collection is in trial order).
  exp::ScenarioGrid grid;
  grid.workloads = {"or", "exact-majority"};
  grid.sizes = {64, 128};
  grid.trials = 2;
  grid.seed = 7;
  grid.metrics_every = 512;

  auto timelines = [&grid](std::size_t threads) {
    const exp::Report rep = exp::run_points(grid.expand(), threads);
    std::string all;
    for (const auto& row : rep.rows()) {
      for (std::size_t t = 0; t < row.replicas.size(); ++t) {
        all += row.spec.point_key() + "#" + std::to_string(t) + "\n";
        all += row.replicas[t].flight;
      }
    }
    return all;
  };

  const std::string serial = timelines(1);
  const std::string parallel = timelines(4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);

  // The m.* extras ride the same guarantee.
  const exp::Report rep = exp::run_points(grid.expand());
  for (const auto& row : rep.rows())
    for (const auto& r : row.replicas)
      EXPECT_TRUE(r.extras.count("m.run.interactions"));
}

}  // namespace
}  // namespace ppfs
