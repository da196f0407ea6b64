// Measurement arithmetic shared by every workload: quantiles with a
// sample-supported tail, open-loop due-time latency, queue wait and the
// deadline-miss share.  Pure functions over recorded numbers, so
// stats_test.cpp can pin each rule down without running the engine.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace perfbench {

// Samples that must lie strictly beyond a reported tail percentile.
inline constexpr std::size_t kTailBeyond = 10;
// The tail the metrics name (p90) when the sample supports it.
inline constexpr double kTailCap = 0.90;

// Nearest-rank quantile: the value at 1-based rank ceil(q * n) of the
// sorted samples (q = 0.5 is the lower median for even n).  0 when empty.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

// The highest quantile, capped at p90, that leaves at least kTailBeyond
// samples above its rank: (n - 10) / n.  With n >= 100 that is p90; a
// smaller population reports a lower percentile rather than a tail that
// rests on fewer than ten samples.  Below 20 samples no tail beyond the
// median is supported and the median is returned.
inline double tail_quantile(std::size_t n) {
  if (n < 2 * kTailBeyond) return 0.5;
  const double q = static_cast<double>(n - kTailBeyond) / static_cast<double>(n);
  return std::min(kTailCap, q);
}

inline double tail(const std::vector<double>& values) {
  return quantile(values, tail_quantile(values.size()));
}

inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// Due time of frame `index` of an open-loop stream: fixed by the schedule
// alone, never by when earlier frames were fed or answered.
inline double due_ms(double start_ms, double period_ms, std::size_t index) {
  return start_ms + period_ms * static_cast<double>(index);
}

// One fed frame as the generator saw it.  All times are on one clock (ms).
struct FrameRecord {
  double due_ms = 0;        // when the schedule wanted it sent
  double fed_ms = 0;        // when try_feed() accepted it
  double delivered_ms = 0;  // when poll() returned its result
  double service_ms = 0;    // engine-reported stage time of the frame
  double deadline_ms = 0;   // allowed due -> delivered latency
  bool delivered = false;
  bool lost = false;        // tracking lost on this frame
};

// Latency is timed from the due time, so a generator that stalled (fed
// late) or a refused feed that had to be retried still counts its wait.
inline double latency_ms(const FrameRecord& f) {
  return f.delivered_ms - f.due_ms;
}

// Time a frame spent waiting rather than being served: latency minus the
// engine-reported service time.  Clamped at zero, since the two come from
// different clocks and a frame cannot wait a negative time.
inline double queue_wait_ms(const FrameRecord& f) {
  return std::max(0.0, latency_ms(f) - f.service_ms);
}

// Share of fed frames that missed: lost, never delivered, or delivered
// later than their deadline after their due time.
inline double deadline_miss_frac(std::span<const FrameRecord> frames) {
  if (frames.empty()) return 0.0;
  std::size_t missed = 0;
  for (const FrameRecord& f : frames)
    if (!f.delivered || f.lost || latency_ms(f) > f.deadline_ms) ++missed;
  return static_cast<double>(missed) / static_cast<double>(frames.size());
}

}  // namespace perfbench
