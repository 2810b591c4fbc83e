#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <map>

namespace perfbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double pos =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

std::int64_t samples_beyond(std::int64_t n, double p) {
  // Rounded before flooring so that e.g. 100 * (1 - 0.9) counts as 10.
  const double beyond = static_cast<double>(n) * (1.0 - p / 100.0);
  return static_cast<std::int64_t>(std::floor(beyond + 1e-9));
}

double tail_percentile(std::int64_t n, double cap, std::int64_t min_beyond) {
  for (const double p : {99.0, 98.0, 95.0, 90.0, 80.0, 75.0}) {
    if (p <= cap && samples_beyond(n, p) >= min_beyond) {
      return p;
    }
  }
  return 50.0;
}

double union_length(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  double total = 0.0;
  double cur_start = 0.0;
  double cur_end = 0.0;
  bool open = false;
  for (const Interval& iv : intervals) {
    if (iv.end <= iv.start) {
      continue;
    }
    if (!open || iv.start > cur_end) {
      if (open) {
        total += cur_end - cur_start;
      }
      cur_start = iv.start;
      cur_end = iv.end;
      open = true;
    } else {
      cur_end = std::max(cur_end, iv.end);
    }
  }
  if (open) {
    total += cur_end - cur_start;
  }
  return total;
}

double uncovered_length(const Interval& outer, std::vector<Interval> inner) {
  for (Interval& iv : inner) {
    iv.start = std::max(iv.start, outer.start);
    iv.end = std::min(iv.end, outer.end);
  }
  return std::max(0.0, (outer.end - outer.start) - union_length(std::move(inner)));
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::map<std::int64_t, std::vector<Interval>> children;
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[s.parent].push_back({s.start, s.end});
    }
  }
  std::vector<double> out;
  out.reserve(spans.size());
  for (const Span& s : spans) {
    const auto it = children.find(s.id);
    out.push_back(it == children.end()
                      ? s.duration()
                      : uncovered_length({s.start, s.end}, it->second));
  }
  return out;
}

double slowest_rank_s(const std::vector<Span>& spans, std::int64_t job,
                      const std::string& name) {
  double out = 0.0;
  for (const Span& s : spans) {
    if (s.job == job && s.name == name) {
      out = std::max(out, s.duration());
    }
  }
  return out;
}

}  // namespace perfbench
