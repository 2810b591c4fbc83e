// Statistics and span arithmetic for the benchmark's reports.
//
// Every end-to-end figure is a median or an aggregate over many samples;
// tail figures use the highest percentile of a fixed ladder that still has
// at least ten samples beyond it, so a tail is never read off a handful of
// outliers. Span helpers turn recorded intervals into self times (a span's
// duration minus the part its children cover) and fold the per-rank spans
// of one job into a single figure.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Linear-interpolated percentile (p in [0, 100]) of unsorted samples;
/// 0 for an empty sample set.
double percentile(std::vector<double> samples, double p);

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

/// Samples strictly above the p-th percentile of n samples, in whole
/// samples: floor(n * (1 - p/100)).
std::int64_t samples_beyond(std::int64_t n, double p);

/// The highest percentile of {99, 98, 95, 90, 80, 75} that has at least
/// `min_beyond` of `n` samples beyond it, capped at `cap`; 50 when none
/// qualifies.
double tail_percentile(std::int64_t n, double cap, std::int64_t min_beyond = 10);

/// Half-open time interval in seconds.
struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// Total length covered by the union of the intervals.
double union_length(std::vector<Interval> intervals);

/// Length of `outer` not covered by any of `inner` (inner intervals are
/// clipped to outer first).
double uncovered_length(const Interval& outer, std::vector<Interval> inner);

/// One recorded span: a call into a layer, on one thread, inside one job.
struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the tracer's epoch
  double end = 0.0;
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< id of the enclosing span; -1 for a root
  std::int64_t job = -1;     ///< job or request the span belongs to
  int thread = 0;

  double duration() const noexcept { return end - start; }
};

/// Self time of every span, indexed like `spans`: duration minus the union
/// of its children's intervals (children may run on other threads, as the
/// rank threads inside one simulated-machine region do).
std::vector<double> self_times(const std::vector<Span>& spans);

/// Folds the per-rank spans named `name` of one job into the job's figure
/// for that layer: the slowest rank's span, which the job waits for. 0 when
/// the job has no such span.
double slowest_rank_s(const std::vector<Span>& spans, std::int64_t job,
                      const std::string& name);

}  // namespace perfbench
