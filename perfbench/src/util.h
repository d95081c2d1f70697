// Small helpers shared by gsbench: clocks, a seeded RNG, a
// Zipf sampler and percentile summaries.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <time.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time of the calling thread (`CLOCK_THREAD_CPUTIME_ID`) or of the
/// whole process (`CLOCK_PROCESS_CPUTIME_ID`), in nanoseconds.
inline std::uint64_t CpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Sleeps until the steady-clock instant `deadline_ns` (absolute;
/// steady_clock is CLOCK_MONOTONIC on Linux).
inline void SleepUntilNs(std::uint64_t deadline_ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(deadline_ns / 1'000'000'000ull);
  ts.tv_nsec = static_cast<long>(deadline_ns % 1'000'000'000ull);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

/// splitmix64: a small, fast, seedable generator. Every input the
/// benchmark sends derives from one of these, seeded from --seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t Below(std::uint64_t n) { return n == 0 ? 0 : Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Zipf(theta) over ranks [0, n): rank 0 is the hottest. The caller maps
/// ranks to keys through a seeded permutation so the hot set moves with
/// the seed.
class Zipf {
 public:
  Zipf(std::size_t n, double theta) : cdf_(n) {
    double sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t Sample(Rng& rng) const {
    const double u = rng.Unit();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// A latency (or any sample) summary: the median and the highest
/// percentile with at least ten samples beyond it (capped at p99).
struct Summary {
  std::size_t count = 0;
  double p50 = 0;
  double tail = 0;
  double tail_pct = 0;  // which percentile `tail` is
};

/// Percentile of an ascending-sorted vector, p in [0, 100], linearly
/// interpolated between the two nearest ranks.
inline double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

inline Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = PercentileSorted(samples, 50);
  const double n = static_cast<double>(samples.size());
  s.tail_pct = std::clamp(100.0 * (1.0 - 10.0 / n), 50.0, 99.0);
  s.tail = PercentileSorted(samples, s.tail_pct);
  return s;
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return PercentileSorted(v, 50);
}

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
