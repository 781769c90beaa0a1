// Streaming statistics and fixed-bucket histograms used by benches and the
// controller's SLA tracker.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"

namespace flexnet {

// Welford-style running mean/variance plus min/max.
class RunningStats {
 public:
  void Add(double x) noexcept;
  void Merge(const RunningStats& other) noexcept;

  std::int64_t count() const noexcept { return count_; }
  double mean() const noexcept { return count_ > 0 ? mean_ : 0.0; }
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return count_ > 0 ? min_ : 0.0; }
  double max() const noexcept { return count_ > 0 ? max_ : 0.0; }
  double sum() const noexcept { return mean_ * static_cast<double>(count_); }

 private:
  std::int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Percentile accumulator with bounded memory.  Exact (sample-stored,
// interpolated) up to `max_samples`; past the cap it switches to uniform
// reservoir sampling (Vitter's Algorithm R), so a long-running bench holds
// a fixed-size unbiased sample instead of growing without bound.  The
// reservoir index stream is deterministic (fixed-seed splitmix64) so runs
// stay reproducible.
class PercentileTracker {
 public:
  static constexpr std::size_t kDefaultMaxSamples = 1 << 16;

  PercentileTracker() : PercentileTracker(kDefaultMaxSamples) {}
  explicit PercentileTracker(std::size_t max_samples);

  void Add(double x);
  // Samples held (<= max cap); total() is every Add() ever seen.
  std::size_t count() const noexcept { return samples_.size(); }
  std::uint64_t total() const noexcept { return total_; }
  std::size_t max_samples() const noexcept { return max_samples_; }
  bool exact() const noexcept { return total_ <= max_samples_; }

  // p in [0, 100].  Returns 0 when empty.
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }

 private:
  std::size_t max_samples_;
  std::uint64_t total_ = 0;
  Rng rng_;  // fixed seed: reservoir choices are reproducible
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

// Log-scale latency histogram (power-of-two buckets over nanoseconds).
class LatencyHistogram {
 public:
  void Add(std::int64_t nanos) noexcept;
  std::int64_t count() const noexcept { return total_; }

  // Upper bound of the bucket containing the given quantile (0..1].
  std::int64_t QuantileUpperBound(double q) const noexcept;

  std::string ToText() const;

 private:
  static constexpr int kBuckets = 64;
  std::int64_t buckets_[kBuckets] = {};
  std::int64_t total_ = 0;
};

}  // namespace flexnet
