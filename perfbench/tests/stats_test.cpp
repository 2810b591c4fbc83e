#include "stats.hpp"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(Percentile, InterpolatesBetweenOrderedSamples) {
  EXPECT_DOUBLE_EQ(percentile({5, 1, 4, 2, 3}, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile({5, 1, 4, 2, 3}, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({5, 1, 4, 2, 3}, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4}, 25), 1.75);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(TailPercentile, KeepsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(100, 90), 10);
  EXPECT_EQ(samples_beyond(99, 90), 9);
  EXPECT_EQ(samples_beyond(1000, 99), 10);
  // p99 leaves 1, p98 2, p95 5 and p90 exactly 10 samples beyond.
  EXPECT_DOUBLE_EQ(tail_percentile(100, 99), 90.0);
  EXPECT_DOUBLE_EQ(tail_percentile(99, 99), 80.0);
  EXPECT_DOUBLE_EQ(tail_percentile(1000, 99), 99.0);
  EXPECT_DOUBLE_EQ(tail_percentile(1000, 95), 95.0);
  // Too few samples for any tail: fall back to the median.
  EXPECT_DOUBLE_EQ(tail_percentile(20, 99), 50.0);
}

TEST(Intervals, UnionMergesOverlaps) {
  EXPECT_DOUBLE_EQ(union_length({{0, 2}, {1, 3}, {5, 6}}), 4.0);
  EXPECT_DOUBLE_EQ(union_length({{5, 6}, {0, 10}}), 10.0);
  EXPECT_DOUBLE_EQ(union_length({}), 0.0);
  EXPECT_DOUBLE_EQ(uncovered_length({0, 10}, {{-5, 1}, {9, 20}}), 8.0);
}

Span span(std::string name, double start, double end, std::int64_t id,
          std::int64_t parent, std::int64_t job, int thread = 0) {
  Span s;
  s.name = std::move(name);
  s.start = start;
  s.end = end;
  s.id = id;
  s.parent = parent;
  s.job = job;
  s.thread = thread;
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfChildrenAcrossThreads) {
  const std::vector<Span> spans = {
      span("region", 0, 10, 0, -1, 1),
      span("rank", 1, 4, 1, 0, 1, 1),   // two ranks overlap in [3, 4)
      span("rank", 3, 6, 2, 0, 1, 2),
      span("tail", 8, 12, 3, 0, 1),     // clipped to the parent's end
      span("leaf", 1.5, 2, 4, 1, 1, 1),
  };
  const std::vector<double> self = self_times(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 5.0 - 2.0);
  EXPECT_DOUBLE_EQ(self[1], 2.5);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 4.0);
  EXPECT_DOUBLE_EQ(self[4], 0.5);
}

TEST(SlowestRank, FoldsPerRankSpansOfOneJob) {
  const std::vector<Span> spans = {
      span("exec", 0, 2, 0, -1, 7, 1),
      span("exec", 1, 4, 1, -1, 7, 2),
      span("exec", 0, 9, 2, -1, 8, 1),  // another job
      span("gather", 4, 10, 3, -1, 7, 1),
  };
  EXPECT_DOUBLE_EQ(slowest_rank_s(spans, 7, "exec"), 3.0);
  EXPECT_DOUBLE_EQ(slowest_rank_s(spans, 8, "exec"), 9.0);
  EXPECT_DOUBLE_EQ(slowest_rank_s(spans, 9, "exec"), 0.0);
}

}  // namespace
}  // namespace perfbench
