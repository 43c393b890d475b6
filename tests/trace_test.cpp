#include "engine/trace.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "engine/native.hpp"
#include "protocols/logic.hpp"
#include "sched/scheduler.hpp"

namespace ppfs {
namespace {

TEST(Trace, RoundTripsThroughText) {
  Trace t({{0, 1, false},
           {2, 3, true, OmitSide::Both},
           {1, 0, true, OmitSide::Starter},
           {3, 2, true, OmitSide::Reactor}});
  const Trace back = Trace::parse_string(t.to_string("demo"));
  EXPECT_EQ(back, t);
  EXPECT_EQ(back.omission_count(), 3u);
}

TEST(Trace, ParsesCommentsAndBlankLines) {
  const Trace t = Trace::parse_string("# header\n\n0 1\n  # indented comment\n1 0 o\n");
  ASSERT_EQ(t.size(), 2u);
  EXPECT_FALSE(t.interactions()[0].omissive);
  EXPECT_TRUE(t.interactions()[1].omissive);
}

TEST(Trace, RejectsGarbage) {
  EXPECT_THROW(Trace::parse_string("zero one\n"), std::invalid_argument);
  EXPECT_THROW(Trace::parse_string("0 1 xx\n"), std::invalid_argument);
}

TEST(Trace, ReplayDrivesASystem) {
  Trace t({{0, 1, false}, {1, 2, false}});
  InteractionSystem sys(RuleMatrix::compile(make_or_protocol(), Model::TW),
                        {1, 0, 0});
  t.replay(sys);
  EXPECT_EQ(sys.consensus_output(), 1);
}

TEST(Trace, EmptyTrace) {
  Trace t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(Trace::parse_string("# nothing\n").size(), 0u);
}

TEST(Trace, SaveEmitsComment) {
  Trace t({{0, 1, false}});
  const std::string s = t.to_string("lemma-1 artifact");
  EXPECT_NE(s.find("# lemma-1 artifact"), std::string::npos);
}

TEST(RecordingScheduler, IsTransparentAndCapturesEveryInteraction) {
  constexpr std::size_t kN = 16;
  constexpr std::size_t kSteps = 200;

  // Reference run: the bare scheduler from a fixed seed.
  std::vector<Interaction> expect;
  {
    UniformScheduler bare(kN);
    Rng rng(42);
    for (std::size_t s = 0; s < kSteps; ++s) expect.push_back(bare.next(rng, s));
  }

  // Wrapped run: identical seed must yield the identical schedule (the
  // decorator adds no Rng draws), and the sink must hold all of it.
  Trace sink;
  RecordingScheduler rec(std::make_unique<UniformScheduler>(kN), &sink);
  Rng rng(42);
  for (std::size_t s = 0; s < kSteps; ++s) {
    const Interaction ia = rec.next(rng, s);
    EXPECT_EQ(ia, expect[s]);
  }
  EXPECT_EQ(rec.recorded(), kSteps);
  ASSERT_EQ(sink.size(), kSteps);
  EXPECT_EQ(sink.interactions(), expect);
}

TEST(RecordingScheduler, CapturedTraceReplaysToSameConfiguration) {
  // Record a live run, then replay the captured trace into a fresh copy
  // of the system — the flight-recorder use case: a schedule captured
  // once reproduces the run exactly.
  constexpr std::size_t kN = 8;
  constexpr std::size_t kSteps = 64;
  const std::vector<State> init = {1, 1, 1, 0, 0, 0, 0, 0};

  const RuleMatrix rules = RuleMatrix::compile(make_or_protocol(), Model::TW);
  InteractionSystem live(rules, init);
  Trace sink;
  RecordingScheduler rec(std::make_unique<UniformScheduler>(kN), &sink);
  Rng rng(7);
  for (std::size_t s = 0; s < kSteps; ++s) live.interact(rec.next(rng, s));

  InteractionSystem replayed(rules, init);
  sink.replay(replayed);
  EXPECT_EQ(replayed.population().counts(), live.population().counts());
}

TEST(RecordingScheduler, NullSinkPassesThroughWithoutRecording) {
  RecordingScheduler rec(std::make_unique<UniformScheduler>(4), nullptr);
  Rng rng(1);
  (void)rec.next(rng, 0);
  (void)rec.next(rng, 1);
  EXPECT_EQ(rec.recorded(), 0u);
}

TEST(RecordingScheduler, RejectsNullInner) {
  Trace sink;
  EXPECT_THROW(RecordingScheduler(nullptr, &sink), std::invalid_argument);
}

}  // namespace
}  // namespace ppfs
