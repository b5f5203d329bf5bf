#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/common/trace_json.h"
#include "src/common/units.h"

namespace zeppelin {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.NextU64() == b.NextU64();
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // All values hit over 1000 draws.
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, WeightedRespectsZeroWeights) {
  Rng rng(13);
  const std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rng.NextWeighted(weights), 1);
  }
}

TEST(RngTest, WeightedApproximatesProportions) {
  Rng rng(17);
  const std::vector<double> weights = {1.0, 3.0};
  int count1 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    count1 += rng.NextWeighted(weights) == 1;
  }
  EXPECT_NEAR(static_cast<double>(count1) / n, 0.75, 0.02);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.Fork();
  EXPECT_NE(parent.NextU64(), child.NextU64());
}

TEST(StatsTest, RunningStatsBasics) {
  RunningStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    s.Add(v);
  }
  EXPECT_EQ(s.count(), 4);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 2.5);
}

TEST(StatsTest, GeometricMean) {
  EXPECT_NEAR(GeometricMean({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_NEAR(GeometricMean({5.0}), 5.0, 1e-12);
}

TEST(StatsTest, ImbalanceRatioZeroWhenUniform) {
  EXPECT_DOUBLE_EQ(ImbalanceRatio({3.0, 3.0, 3.0}), 0.0);
  EXPECT_NEAR(ImbalanceRatio({1.0, 3.0}), 0.5, 1e-12);
}

TEST(TableTest, RendersHeaderAndRows) {
  Table t({"name", "value"});
  t.AddRow({"alpha", "1.00"});
  t.AddRow({"b", "23.50"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("23.50"), std::string::npos);
}

TEST(TableTest, CsvOutput) {
  Table t({"a", "b"});
  t.AddRow({"1", "2"});
  EXPECT_EQ(t.ToCsv(), "a,b\n1,2\n");
}

TEST(TraceJsonTest, EscapesAndSerializes) {
  ChromeTraceWriter w;
  w.Add({.name = "task \"x\"", .category = "compute", .start_us = 1.5, .duration_us = 2.0,
         .pid = 0, .tid = 3});
  const std::string json = w.ToJson();
  EXPECT_NE(json.find("\\\"x\\\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_EQ(w.event_count(), 1u);
}

// Spans stamped a day after boot, 71.5 µs apart, must stay distinct: the
// timestamps print in fixed-point µs, not 6 significant digits.
TEST(TraceJsonTest, KeepsMicrosecondPrecisionOnLargeTimestamps) {
  ChromeTraceWriter w;
  w.Add({.name = "a", .category = "plan", .start_us = 86400000123.25, .duration_us = 0.125});
  w.Add({.name = "b", .category = "plan", .start_us = 86400000194.75, .duration_us = 12.5});
  const std::string json = w.ToJson();
  EXPECT_NE(json.find("\"ts\":86400000123.250,\"dur\":0.125"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ts\":86400000194.750,\"dur\":12.500"), std::string::npos) << json;
  EXPECT_EQ(json.find("e+"), std::string::npos) << json;
}

TEST(UnitsTest, Conversions) {
  EXPECT_DOUBLE_EQ(MsToUs(2.0), 2000.0);
  EXPECT_DOUBLE_EQ(GBpsToBytesPerUs(1.0), 1000.0);
  EXPECT_DOUBLE_EQ(GbpsToBytesPerUs(200.0), 25000.0);
  EXPECT_DOUBLE_EQ(TflopsToFlopsPerUs(1.0), 1e6);
  EXPECT_DOUBLE_EQ(UsToSeconds(2.5e6), 2.5);
}

}  // namespace
}  // namespace zeppelin
