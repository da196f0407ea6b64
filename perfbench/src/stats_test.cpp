// Tests for the benchmark's own measurement rules (stats.h).
#include "stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

std::size_t beyond(const std::vector<double>& v, double x) {
  std::size_t n = 0;
  for (const double s : v) n += s > x ? 1 : 0;
  return n;
}

TEST(TailPercentile, IsP90WhenTenSamplesLieBeyondIt) {
  EXPECT_DOUBLE_EQ(tail_quantile(100), 0.90);
  EXPECT_DOUBLE_EQ(tail_quantile(1000), 0.90);
  const std::vector<double> v = ramp(100);
  EXPECT_DOUBLE_EQ(tail(v), 90.0);
  EXPECT_EQ(beyond(v, tail(v)), 10u);
}

TEST(TailPercentile, IsTheHighestWithTenSamplesBeyondItOnSmallPopulations) {
  for (std::size_t n = 20; n < 100; ++n) {
    const std::vector<double> v = ramp(n);
    const double t = tail(v);
    EXPECT_EQ(beyond(v, t), 10u) << "n=" << n;
    // The next rank up would leave only nine beyond it.
    EXPECT_LT(beyond(v, t + 1.0), 10u) << "n=" << n;
  }
}

TEST(TailPercentile, FallsBackToTheMedianWithoutTwentySamples) {
  EXPECT_DOUBLE_EQ(tail_quantile(19), 0.5);
  EXPECT_DOUBLE_EQ(tail(ramp(9)), median(ramp(9)));
}

TEST(Quantile, UsesNearestRank) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(quantile({}, 0.9), 0.0);
  EXPECT_DOUBLE_EQ(quantile({5.0}, 0.9), 5.0);
}

TEST(DueTimeLatency, CountsTheWaitOfAStalledGenerator) {
  // Period 50 ms; the generator stalled and fed frame 2 at 400 ms instead
  // of 100 ms.  Its latency starts at the due time, not the late feed.
  FrameRecord f;
  f.due_ms = due_ms(0.0, 50.0, 2);
  f.fed_ms = 400.0;
  f.delivered_ms = 420.0;
  f.service_ms = 20.0;
  EXPECT_DOUBLE_EQ(f.due_ms, 100.0);
  EXPECT_DOUBLE_EQ(latency_ms(f), 320.0);
  EXPECT_DOUBLE_EQ(queue_wait_ms(f), 300.0);
}

TEST(DueTimeLatency, DueTimesDoNotDependOnEarlierFrames) {
  EXPECT_DOUBLE_EQ(due_ms(10.0, 33.5, 0), 10.0);
  EXPECT_DOUBLE_EQ(due_ms(10.0, 33.5, 4), 144.0);
}

TEST(QueueWait, IsNeverNegative) {
  FrameRecord f;
  f.due_ms = 100.0;
  f.delivered_ms = 110.0;
  f.service_ms = 12.5;  // engine clock slightly ahead of the generator's
  EXPECT_DOUBLE_EQ(queue_wait_ms(f), 0.0);
  f.service_ms = 10.0;
  EXPECT_DOUBLE_EQ(queue_wait_ms(f), 0.0);
  f.service_ms = 4.0;
  EXPECT_DOUBLE_EQ(queue_wait_ms(f), 6.0);
}

TEST(DeadlineMiss, CountsLostFramesAsMisses) {
  std::vector<FrameRecord> frames(4);
  for (FrameRecord& f : frames) {
    f.delivered = true;
    f.due_ms = 0.0;
    f.delivered_ms = 10.0;
    f.deadline_ms = 66.0;
  }
  EXPECT_DOUBLE_EQ(deadline_miss_frac(frames), 0.0);
  frames[0].lost = true;  // on time, but lost: still a miss
  EXPECT_DOUBLE_EQ(deadline_miss_frac(frames), 0.25);
  frames[1].delivered_ms = 70.0;  // late
  EXPECT_DOUBLE_EQ(deadline_miss_frac(frames), 0.5);
  frames[2].delivered = false;  // never answered
  EXPECT_DOUBLE_EQ(deadline_miss_frac(frames), 0.75);
}

}  // namespace
}  // namespace perfbench
