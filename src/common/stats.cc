#include "common/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

namespace flexnet {

void RunningStats::Add(double x) noexcept {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::Merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

PercentileTracker::PercentileTracker(std::size_t max_samples)
    : max_samples_(std::max<std::size_t>(1, max_samples)) {}

void PercentileTracker::Add(double x) {
  ++total_;
  if (samples_.size() < max_samples_) {
    samples_.push_back(x);
    sorted_ = false;  // a sorted vector with one value appended is not sorted
    return;
  }
  // Reservoir step (Algorithm R): keep the new sample with probability
  // cap/total, replacing a uniformly random resident.
  const std::uint64_t slot = rng_.NextBounded(total_);
  if (slot < max_samples_) {
    samples_[static_cast<std::size_t>(slot)] = x;
    sorted_ = false;
  }
}

double PercentileTracker::Percentile(double p) const {
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

void LatencyHistogram::Add(std::int64_t nanos) noexcept {
  if (nanos < 0) nanos = 0;
  const int bucket =
      nanos == 0
          ? 0
          : std::min(kBuckets - 1,
                     64 - std::countl_zero(static_cast<std::uint64_t>(nanos)));
  ++buckets_[bucket];
  ++total_;
}

std::int64_t LatencyHistogram::QuantileUpperBound(double q) const noexcept {
  if (total_ == 0) return 0;
  const auto target = static_cast<std::int64_t>(
      q * static_cast<double>(total_) + 0.5);
  std::int64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= target) {
      return i == 0 ? 0 : (std::int64_t{1} << i) - 1;
    }
  }
  return std::int64_t{1} << (kBuckets - 1);
}

std::string LatencyHistogram::ToText() const {
  std::ostringstream out;
  out << "count=" << total_ << " p50<=" << QuantileUpperBound(0.5)
      << "ns p99<=" << QuantileUpperBound(0.99) << "ns";
  return out.str();
}

}  // namespace flexnet
