// Unit tests of the benchmark harness: the tail-percentile rule, metric
// name and unit validation, the result-line schema, and span self time.

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness.h"
#include "spans.h"

namespace fjbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // descending, so Tail has to sort
}

TEST(TailTest, PicksHighestLadderPercentileWithTenBeyond) {
  struct Case {
    size_t n;
    double percentile;
    double value;
  } cases[] = {
      {20, 50.0, 10.0},       // rank 10, 10 beyond
      {39, 50.0, 20.0},       // p75 rank 30 leaves 9
      {40, 75.0, 30.0},
      {100, 90.0, 90.0},
      {199, 90.0, 180.0},     // p95 rank 190 leaves 9
      {200, 95.0, 190.0},
      {1000, 99.0, 990.0},
      {40000, 99.0, 39600.0},  // the ladder stops at p99
  };
  for (const Case& c : cases) {
    TailStat tail = Tail(OneTo(c.n));
    EXPECT_EQ(tail.percentile, c.percentile) << "n=" << c.n;
    EXPECT_EQ(tail.value, c.value) << "n=" << c.n;
    EXPECT_GE(tail.beyond, 10u) << "n=" << c.n;
    EXPECT_EQ(tail.count, c.n);
  }
}

TEST(TailTest, FewerThanTwentySamplesFallBackToTheMedian) {
  TailStat tail = Tail({3.0, 1.0, 2.0, 9.0});
  EXPECT_EQ(tail.percentile, 50.0);
  EXPECT_EQ(tail.value, 2.0);
  EXPECT_EQ(tail.beyond, 2u);
  TailStat nineteen = Tail(OneTo(19));
  EXPECT_EQ(nineteen.percentile, 50.0);
  EXPECT_EQ(nineteen.value, 10.0);
  EXPECT_EQ(nineteen.beyond, 9u);
  TailStat none = Tail({});
  EXPECT_EQ(none.count, 0u);
  EXPECT_EQ(none.value, 0.0);
}

TEST(MedianTest, OddEvenAndEmpty) {
  EXPECT_EQ(Median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(GeoMeanTest, EqualWeightInLogSpace) {
  EXPECT_DOUBLE_EQ(GeoMean({1.0, 100.0}), 10.0);
  EXPECT_DOUBLE_EQ(GeoMean({2.0}), 2.0);
  EXPECT_DOUBLE_EQ(GeoMean({4.0, 4.0, 4.0}), 4.0);
  EXPECT_GT(GeoMean({0.0, 1.0}), 0.0) << "a zero reading is floored";
  EXPECT_EQ(GeoMean({}), 0.0);
}

TEST(GeoMeanTest, CloseAnswersTakesOnlyTheIterationsOwnAnswers) {
  WorkloadResult r;
  r.answer_ms = {1000.0};  // an earlier iteration's answer
  r.answer_ms.push_back(1.0);
  r.answer_ms.push_back(100.0);
  r.CloseAnswers(1);
  ASSERT_EQ(r.answer_gmean_ms.size(), 1u);
  EXPECT_DOUBLE_EQ(r.answer_gmean_ms[0], 10.0);
}

TEST(MetricNameTest, Charset) {
  EXPECT_TRUE(IsValidMetricName("setup_s"));
  EXPECT_TRUE(IsValidMetricName("core.build_ms.market-emd"));
  EXPECT_TRUE(IsValidMetricName("9lives"));
  EXPECT_FALSE(IsValidMetricName(""));
  EXPECT_FALSE(IsValidMetricName(".hidden"));
  EXPECT_FALSE(IsValidMetricName("_x"));
  EXPECT_FALSE(IsValidMetricName("has space"));
  EXPECT_FALSE(IsValidMetricName("slash/no"));
  EXPECT_FALSE(IsValidMetricName("quote\""));
  EXPECT_FALSE(IsValidMetricName(std::string(65, 'a')));
  EXPECT_TRUE(IsValidMetricName(std::string(64, 'a')));
}

TEST(MetricNameTest, Units) {
  EXPECT_TRUE(IsValidUnit("ms"));
  EXPECT_TRUE(IsValidUnit("1/s"));
  EXPECT_TRUE(IsValidUnit("%"));
  EXPECT_FALSE(IsValidUnit(""));
  EXPECT_FALSE(IsValidUnit("m s"));
  EXPECT_FALSE(IsValidUnit(std::string(17, 'm')));
}

TEST(SchemaTest, EveryListedMetricIsValidAndUnique) {
  std::set<std::string> seen;
  for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& spec : *list) {
      EXPECT_TRUE(IsValidMetricName(spec.name)) << spec.name;
      EXPECT_TRUE(IsValidUnit(spec.unit)) << spec.name;
      EXPECT_TRUE(seen.insert(spec.name).second) << "duplicate " << spec.name;
    }
  }
  ASSERT_FALSE(EndToEndMetrics().empty());
  EXPECT_STREQ(EndToEndMetrics()[0].name, "setup_s");
  EXPECT_STREQ(EndToEndMetrics()[0].unit, "s");
}

TEST(SchemaTest, ResultLineHasExactlyTheSchemaKeys) {
  std::vector<MetricSpec> schema = {{"a_ms", "ms"}, {"b.count", "count"}};
  MetricSet set(&schema);
  ASSERT_TRUE(set.Set("a_ms", 1.25).ok());
  EXPECT_FALSE(set.ResultLine(true, 3, 0, false).ok()) << "b.count unset";
  ASSERT_TRUE(set.Set("b.count", 7).ok());
  auto line = set.ResultLine(true, 3, 1, false);
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(*line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, "
            "\"metrics\": {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, "
            "\"b.count\": {\"value\": 7, \"unit\": \"count\"}}}");
}

TEST(SchemaTest, ValuesKeepAllTheirDigits) {
  std::vector<MetricSpec> schema = {{"x", "s"}};
  MetricSet set(&schema);
  ASSERT_TRUE(set.Set("x", 0.1 + 0.2).ok());
  auto line = set.ResultLine(false, 1, 0, false);
  ASSERT_TRUE(line.ok());
  EXPECT_NE(line->find("0.30000000000000004"), std::string::npos) << *line;
  EXPECT_NE(line->find("\"correct\": false"), std::string::npos);
}

TEST(SchemaTest, RejectsUnknownInvalidAndNonFinite) {
  std::vector<MetricSpec> schema = {{"x", "s"}};
  MetricSet set(&schema);
  EXPECT_FALSE(set.Set("y", 1.0).ok());
  EXPECT_FALSE(set.Set("bad name", 1.0).ok());
  EXPECT_FALSE(set.Set("x", 1.0 / 0.0).ok());
  auto filled = set.ResultLine(true, 1, 0, /*fill_missing=*/true);
  ASSERT_TRUE(filled.ok());
  EXPECT_NE(filled->find("\"x\": {\"value\": 0,"), std::string::npos);
}

TEST(SpanTest, SelfTimeSubtractsChildren) {
  SpanRecorder recorder;
  SpanBuffer* buffer = recorder.NewBuffer();
  auto spin = [&](double us) {
    double until = recorder.NowUs() + us;
    while (recorder.NowUs() < until) {
    }
  };
  {
    ScopedSpan root(buffer, "bench", 7);
    spin(2000);
    {
      ScopedSpan child(buffer, "crawl");
      spin(3000);
      ScopedSpan grandchild(buffer, "core.build");
      spin(1000);
    }
  }
  auto layers = recorder.SelfTimes();
  ASSERT_EQ(layers.size(), 3u);
  const LayerTime& bench = layers["bench"];
  const LayerTime& crawl = layers["crawl"];
  const LayerTime& build = layers["core.build"];
  EXPECT_GE(bench.self_ms, 2.0);
  EXPECT_GE(crawl.self_ms, 3.0);
  EXPECT_GE(build.self_ms, 1.0);
  // Self times partition the root span; a leaf's self time is its total.
  EXPECT_NEAR(bench.self_ms + crawl.self_ms + build.self_ms, bench.total_ms,
              1e-6);
  EXPECT_NEAR(crawl.total_ms, crawl.self_ms + build.total_ms, 1e-6);
  EXPECT_EQ(build.self_ms, build.total_ms);
  // Children inherit the request id of their parent.
  for (const SpanRecord& s : buffer->spans()) EXPECT_EQ(s.request_id, 7u);
  EXPECT_EQ(buffer->spans()[1].parent, 0);
  EXPECT_EQ(buffer->spans()[2].parent, 1);
  EXPECT_EQ(recorder.num_spans(), 3u);
}

TEST(SpanTest, NullBufferRecordsNothing) {
  ScopedSpan span(nullptr, "crawl");
  SUCCEED();
}

}  // namespace
}  // namespace fjbench
