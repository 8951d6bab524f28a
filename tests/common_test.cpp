#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "common/backoff.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/spsc_ring.h"
#include "common/strings.h"

namespace vids::common {
namespace {

// ---------------------------------------------------------------- logging

/// Restores the global logger to its defaults when a test ends.
class ScopedLogConfig {
 public:
  ScopedLogConfig() = default;
  ~ScopedLogConfig() {
    Log::SetLevel(LogLevel::kWarn);
    Log::SetSink(nullptr);
    Log::SetClock(nullptr);
  }
};

TEST(Log, SinkReceivesClockAndComponentPrefixes) {
  ScopedLogConfig scoped;
  Log::SetLevel(LogLevel::kInfo);
  std::vector<std::string> lines;
  Log::SetSink([&lines](LogLevel, const std::string& msg) {
    lines.push_back(msg);
  });
  Log::SetClock([] { return int64_t{1500000000}; });  // t = 1.5 s
  VIDS_INFO_C("sip") << "hello";
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "[t=1.500000s] [sip] hello");

  // Untagged lines still get the clock prefix; clearing the clock drops it.
  VIDS_INFO() << "plain";
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[1], "[t=1.500000s] plain");
  Log::SetClock(nullptr);
  VIDS_INFO_C("rtp") << "later";
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[2], "[rtp] later");
}

TEST(Log, LevelFilterSuppressesBelowThreshold) {
  ScopedLogConfig scoped;
  Log::SetLevel(LogLevel::kWarn);
  int calls = 0;
  Log::SetSink([&calls](LogLevel, const std::string&) { ++calls; });
  VIDS_DEBUG_C("sip") << "dropped";
  VIDS_INFO() << "dropped";
  VIDS_WARN() << "kept";
  EXPECT_EQ(calls, 1);
}

TEST(Log, SinkMayRemoveItselfMidInvocation) {
  // Regression: a sink resetting the sink from inside its own invocation
  // used to destroy the std::function it was executing.
  ScopedLogConfig scoped;
  Log::SetLevel(LogLevel::kInfo);
  int calls = 0;
  Log::SetSink([&calls](LogLevel, const std::string&) {
    ++calls;
    Log::SetSink(nullptr);  // one-shot sink
  });
  VIDS_INFO() << "first";   // delivered, then the sink removes itself
  EXPECT_EQ(calls, 1);
}

TEST(Log, SinkMayReplaceItselfMidInvocation) {
  ScopedLogConfig scoped;
  Log::SetLevel(LogLevel::kInfo);
  std::vector<std::string> second_lines;
  Log::SetSink([&second_lines](LogLevel, const std::string&) {
    Log::SetSink([&second_lines](LogLevel, const std::string& msg) {
      second_lines.push_back(msg);
    });
  });
  VIDS_INFO() << "handover";
  VIDS_INFO() << "to-second";
  ASSERT_EQ(second_lines.size(), 1u);
  EXPECT_EQ(second_lines[0], "to-second");
}

// ---------------------------------------------------------------- strings

TEST(Strings, TrimRemovesLinearWhitespace) {
  EXPECT_EQ(Trim("  hello  "), "hello");
  EXPECT_EQ(Trim("\r\nhello\t"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("a"), "a");
}

TEST(Strings, SplitKeepsEmptyPieces) {
  const auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Strings, SplitTrimsEachPiece) {
  const auto parts = Split(" x ; y ; z ", ';');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "x");
  EXPECT_EQ(parts[1], "y");
  EXPECT_EQ(parts[2], "z");
}

TEST(Strings, SplitOnceFindsFirstSeparatorOnly) {
  const auto split = SplitOnce("CSeq: 1 INVITE: x", ':');
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->first, "CSeq");
  EXPECT_EQ(split->second, "1 INVITE: x");
  EXPECT_FALSE(SplitOnce("no-separator", ':').has_value());
}

TEST(Strings, IEqualsIsCaseInsensitive) {
  EXPECT_TRUE(IEquals("Call-ID", "CALL-id"));
  EXPECT_TRUE(IEquals("", ""));
  EXPECT_FALSE(IEquals("From", "Fro"));
  EXPECT_FALSE(IEquals("From", "To"));
}

TEST(Strings, IStartsWith) {
  EXPECT_TRUE(IStartsWith("SIP/2.0 200 OK", "sip/2.0"));
  EXPECT_FALSE(IStartsWith("SI", "SIP"));
}

TEST(Strings, ParseIntAcceptsWholeTokenOnly) {
  EXPECT_EQ(ParseInt<int>("42"), 42);
  EXPECT_EQ(ParseInt<int>(" 42 "), 42);
  EXPECT_EQ(ParseInt<uint16_t>("65535"), 65535);
  EXPECT_FALSE(ParseInt<uint16_t>("65536").has_value());  // overflow
  EXPECT_FALSE(ParseInt<int>("42x").has_value());
  EXPECT_FALSE(ParseInt<int>("").has_value());
  EXPECT_FALSE(ParseInt<int>("x").has_value());
}

TEST(Strings, ToLowerIsAsciiOnly) {
  EXPECT_EQ(ToLower("SIP/2.0-Invite"), "sip/2.0-invite");
}

TEST(Strings, JoinInvertsSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

// -------------------------------------------------------------------- rng

TEST(Strings, Fnv1a64IsPinned) {
  // Shard assignment and behavior keys are functions of these values.
  EXPECT_EQ(Fnv1a64(""), 0x14650fb0739d0383ULL);
  EXPECT_EQ(Fnv1a64("a"), 0x44bd8ad473cd9906ULL);
  EXPECT_EQ(Fnv1a64("call-1@10.1.0.1"), 0x556760ba5f2297fcULL);
}

TEST(Rng, SameSeedAndNameReproduces) {
  Stream a(7, "calls");
  Stream b(7, "calls");
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentNamesDecorrelate) {
  Stream a(7, "calls");
  Stream b(7, "media");
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkIsDeterministic) {
  Stream parent1(7, "x");
  Stream parent2(7, "x");
  Stream child1 = parent1.Fork("c");
  Stream child2 = parent2.Fork("c");
  EXPECT_EQ(child1.Next(), child2.Next());
}

TEST(Rng, DoubleInUnitInterval) {
  Stream s(1, "d");
  for (int i = 0; i < 10000; ++i) {
    const double v = s.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, RangeIsInclusive) {
  Stream s(1, "r");
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(s.NextInRange(3, 5));
  EXPECT_EQ(seen, (std::set<uint64_t>{3, 4, 5}));
}

TEST(Rng, ExponentialHasRoughlyRightMean) {
  Stream s(1, "e");
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += s.NextExponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(Rng, BernoulliRespectsProbability) {
  Stream s(1, "b");
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += s.NextBernoulli(0.25) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(Rng, NormalHasRoughlyRightMoments) {
  Stream s(1, "n");
  double sum = 0, sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = s.NextNormal(10.0, 3.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double stddev = std::sqrt(sum_sq / n - mean * mean);
  EXPECT_NEAR(mean, 10.0, 0.15);
  EXPECT_NEAR(stddev, 3.0, 0.15);
}

// ---------------------------------------------------------------- backoff

TEST(SpinBackoff, SleepsOnlyAfterSpinBudgetAndResetRestartsIt) {
  // sleep_micros = 0 keeps the test fast: the sleep path still counts via
  // sleeps() but degrades to a yield.
  SpinBackoff backoff(/*spins=*/4, /*sleep_micros=*/0);
  for (int i = 0; i < 3; ++i) backoff.Pause();
  EXPECT_EQ(backoff.sleeps(), 0u);  // still inside the spin budget
  for (int i = 0; i < 5; ++i) backoff.Pause();
  EXPECT_EQ(backoff.sleeps(), 5u);  // every pause past the budget sleeps
  backoff.Reset();                  // useful work: spin again
  for (int i = 0; i < 3; ++i) backoff.Pause();
  EXPECT_EQ(backoff.sleeps(), 5u);
}

TEST(SpinBackoff, DefaultsComeFromNamedConstants) {
  SpinBackoff backoff;
  for (int i = 0; i < kSpinsBeforeSleep - 1; ++i) backoff.Pause();
  EXPECT_EQ(backoff.sleeps(), 0u);
}

// ------------------------------------------- producer-side occupancy gauge

TEST(SpscRing, SizeFromProducerTracksDepthAcrossLaps) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.SizeFromProducer(), 0u);
  // An open (uncommitted) batch counts: the gauge reports bytes-at-risk in
  // the lane, not just what the consumer can already see.
  *ring.BeginPushN() = 1;
  *ring.BeginPushN() = 2;
  EXPECT_EQ(ring.SizeFromProducer(), 2u);
  ring.CommitPushN();
  EXPECT_EQ(ring.SizeFromProducer(), 2u);
  // Drive many laps with a consumer that always drains. The gauge may
  // overestimate (the head cache refreshes lazily — the right bias for a
  // high-water mark), but it must never under-report the true occupancy
  // and never exceed capacity. Without the bounded-staleness refresh a
  // producer that never hits backpressure would report tail-minus-ancient-
  // head: a many-lap phantom depth growing without bound.
  for (int lap = 0; lap < 5; ++lap) {
    ASSERT_EQ(ring.FrontN(4), 2u);
    ring.PopN(2);
    for (int i = 0; i < 2; ++i) {
      int* slot = ring.BeginPushN();
      ASSERT_NE(slot, nullptr);
      *slot = lap * 10 + i;
      ring.CommitPushN();
    }
    EXPECT_GE(ring.SizeFromProducer(), 2u);               // never under
    EXPECT_LE(ring.SizeFromProducer(), ring.capacity());  // never phantom
  }
}

TEST(SpscRing, SizeFromProducerSaturatesAtCapacityWhenFull) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) {
    int* slot = ring.BeginPushN();
    ASSERT_NE(slot, nullptr);
    *slot = i;
    ring.CommitPushN();
  }
  EXPECT_EQ(ring.BeginPushN(), nullptr);  // full is backpressure, not growth
  EXPECT_EQ(ring.SizeFromProducer(), ring.capacity());
  ring.FrontN(1);
  ring.PopN(1);
  // The pop may not be visible yet (overestimate is allowed) but the gauge
  // stays within [true occupancy, capacity].
  EXPECT_GE(ring.SizeFromProducer(), ring.capacity() - 1);
  EXPECT_LE(ring.SizeFromProducer(), ring.capacity());
  // A successful push refreshes the cache: exact again, at capacity.
  int* slot = ring.BeginPushN();
  ASSERT_NE(slot, nullptr);
  *slot = 99;
  ring.CommitPushN();
  EXPECT_EQ(ring.SizeFromProducer(), ring.capacity());
}

}  // namespace
}  // namespace vids::common
