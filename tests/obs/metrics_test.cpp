#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace rfidsim::obs {
namespace {

TEST(CounterTest, StartsAtZeroAddsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, SetAddReset) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(2.5);
  EXPECT_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_EQ(g.value(), 1.5);
  g.reset();
  EXPECT_EQ(g.value(), 0.0);
}

TEST(GaugeTest, ConcurrentAddsAllLand) {
  Gauge g;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < 1000; ++i) g.add(1.0);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(g.value(), 4000.0);
}

TEST(HistogramTest, BucketAssignmentUsesInclusiveUpperBounds) {
  // Edges: 1, 2, 4, 8 (+Inf overflow at index 4).
  const Histogram h({.first_upper_bound = 1.0, .growth = 2.0, .buckets = 4});
  ASSERT_EQ(h.edges().size(), 4u);
  Histogram hist({.first_upper_bound = 1.0, .growth = 2.0, .buckets = 4});
  hist.observe(0.5);   // <= 1 -> bucket 0.
  hist.observe(1.0);   // Edge values are inclusive -> bucket 0.
  hist.observe(1.001); // -> bucket 1.
  hist.observe(8.0);   // Last finite edge -> bucket 3.
  hist.observe(9.0);   // Overflow -> +Inf bucket.
  EXPECT_EQ(hist.bucket_count(0), 2u);
  EXPECT_EQ(hist.bucket_count(1), 1u);
  EXPECT_EQ(hist.bucket_count(2), 0u);
  EXPECT_EQ(hist.bucket_count(3), 1u);
  EXPECT_EQ(hist.bucket_count(4), 1u);  // +Inf.
  EXPECT_EQ(hist.count(), 5u);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.5 + 1.0 + 1.001 + 8.0 + 9.0);
}

// Golden for the bulk-add API the gen2 tally publishes through: counts
// pre-bucketed with bucket_index() and merged in one add_bucketed() call
// must leave exactly the bucket counts and count() that observing the same
// values one by one leaves. The sum goes through a different association
// (the caller's partial sum, then one add), so it may differ in the last
// bits for general values; dyadic values sum exactly either way.
TEST(HistogramTest, BulkAddMatchesObservingValueByValue) {
  const HistogramSpec spec{.first_upper_bound = 1e-3, .growth = 2.0, .buckets = 12};
  const std::vector<double> values = {0.0,    1e-4,  1e-3,   0.0011, 0.002, 0.0035, 0.004,
                                      0.0041, 0.031, 0.0625, 0.5,    1.0,   2.049,
                                      7.5,    0.004, 0.004,  1e-3,   0.013, 0.26};
  Histogram one_by_one(spec);
  Histogram bulk(spec);
  std::vector<std::uint64_t> counts(bulk.edges().size() + 1, 0);
  double sum = 0.0;
  for (const double v : values) {
    one_by_one.observe(v);
    ++counts[bulk.bucket_index(v)];
    sum += v;
  }
  bulk.add_bucketed(counts, sum);
  for (std::size_t i = 0; i <= spec.buckets; ++i) {
    EXPECT_EQ(bulk.bucket_count(i), one_by_one.bucket_count(i)) << "bucket " << i;
  }
  EXPECT_EQ(bulk.bucket_count(spec.buckets), 2u);  // 2.049 and 7.5 overflow.
  EXPECT_EQ(bulk.count(), values.size());
  EXPECT_EQ(bulk.count(), one_by_one.count());
  EXPECT_DOUBLE_EQ(bulk.sum(), one_by_one.sum());

  // A second merge accumulates; dyadic values sum exactly in any order.
  Histogram twice(spec);
  Histogram observed(spec);
  std::vector<std::uint64_t> dyadic(twice.edges().size() + 1, 0);
  for (const double v : {0.25, 0.5, 0.125, 4.0}) {
    observed.observe(v);
    observed.observe(v);
    ++dyadic[twice.bucket_index(v)];
  }
  twice.add_bucketed(dyadic, 4.875);
  twice.add_bucketed(dyadic, 4.875);
  for (std::size_t i = 0; i <= spec.buckets; ++i) {
    EXPECT_EQ(twice.bucket_count(i), observed.bucket_count(i)) << "bucket " << i;
  }
  EXPECT_EQ(twice.count(), 8u);
  EXPECT_EQ(twice.sum(), observed.sum());
}

TEST(HistogramTest, BulkAddRejectsAMismatchedLayoutAndIgnoresEmptyMerges) {
  Histogram h({.first_upper_bound = 1.0, .growth = 2.0, .buckets = 4});
  const std::vector<std::uint64_t> too_short(4, 1);
  EXPECT_THROW(h.add_bucketed(too_short, 1.0), ConfigError);
  const std::vector<std::uint64_t> empty(5, 0);
  h.add_bucketed(empty, 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
}

TEST(HistogramTest, EmptyHistogramIsAllZero) {
  const Histogram h({.first_upper_bound = 1.0, .growth = 2.0, .buckets = 3});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  for (std::size_t i = 0; i <= h.edges().size(); ++i) EXPECT_EQ(h.bucket_count(i), 0u);
}

TEST(HistogramTest, SingleObservationLandsInExactlyOneBucket) {
  Histogram h({.first_upper_bound = 1.0, .growth = 10.0, .buckets = 3});
  h.observe(5.0);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i <= h.edges().size(); ++i) total += h.bucket_count(i);
  EXPECT_EQ(total, 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);  // (1, 10].
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 5.0);
}

TEST(HistogramTest, AllEqualObservationsStackInOneBucket) {
  Histogram h({.first_upper_bound = 0.001, .growth = 2.0, .buckets = 8});
  for (int i = 0; i < 100; ++i) h.observe(0.01);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.bucket_count(4), 100u);  // 0.008 < 0.01 <= 0.016.
  EXPECT_DOUBLE_EQ(h.sum(), 100 * 0.01);
}

TEST(HistogramTest, ResetZeroesCountsButKeepsEdges) {
  Histogram h({.first_upper_bound = 1.0, .growth = 2.0, .buckets = 4});
  h.observe(3.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.edges().size(), 4u);
}

// The edges must be exactly the result of repeated IEEE-754 double
// multiplication — the golden values below pin that down so any change
// (powers, long double, reassociation) shows up as a bucket-boundary
// break instead of silent drift between platforms or builds.
TEST(HistogramTest, DefaultSpecEdgesAreBitExact) {
  const Histogram h({});  // first 1e-6, growth 4, 16 buckets.
  ASSERT_EQ(h.edges().size(), 16u);
  // 4x growth shifts the exponent: mantissa is constant.
  EXPECT_EQ(h.edges()[0], 0x1.0c6f7a0b5ed8dp-20);   // 1e-6.
  EXPECT_EQ(h.edges()[5], 0x1.0c6f7a0b5ed8dp-10);   // 1.024e-3.
  EXPECT_EQ(h.edges()[10], 0x1.0c6f7a0b5ed8dp+0);   // 1.048576.
  EXPECT_EQ(h.edges()[15], 0x1.0c6f7a0b5ed8dp+10);  // 1073.741824.
}

TEST(HistogramTest, NonDyadicGrowthEdgesAreBitExact) {
  const Histogram h({.first_upper_bound = 0.001, .growth = 2.5, .buckets = 6});
  EXPECT_EQ(h.edges()[0], 0x1.0624dd2f1a9fcp-10);
  EXPECT_EQ(h.edges()[1], 0x1.47ae147ae147bp-9);
  EXPECT_EQ(h.edges()[2], 0x1.999999999999ap-8);
  EXPECT_EQ(h.edges()[3], 0x1p-6);  // 0.001 * 2.5^3 rounds to exactly 1/64.
  EXPECT_EQ(h.edges()[5], 0x1.9p-4);
}

TEST(HistogramTest, InvalidSpecsThrow) {
  EXPECT_THROW(Histogram({.first_upper_bound = 0.0}), ConfigError);
  EXPECT_THROW(Histogram({.first_upper_bound = -1.0}), ConfigError);
  EXPECT_THROW(Histogram({.growth = 1.0}), ConfigError);
  EXPECT_THROW(Histogram({.buckets = 0}), ConfigError);
}

TEST(MetricsRegistryTest, SameNameReturnsSameHandle) {
  MetricsRegistry reg;
  Counter& a = reg.counter("layer.signal");
  Counter& b = reg.counter("layer.signal");
  EXPECT_EQ(&a, &b);
  Gauge& g1 = reg.gauge("layer.level");
  Gauge& g2 = reg.gauge("layer.level");
  EXPECT_EQ(&g1, &g2);
  Histogram& h1 = reg.histogram("layer.durations");
  Histogram& h2 = reg.histogram("layer.durations");
  EXPECT_EQ(&h1, &h2);
}

TEST(MetricsRegistryTest, KindConflictThrows) {
  MetricsRegistry reg;
  reg.counter("layer.signal");
  EXPECT_THROW(reg.gauge("layer.signal"), ConfigError);
  EXPECT_THROW(reg.histogram("layer.signal"), ConfigError);
  reg.histogram("layer.durations");
  EXPECT_THROW(reg.counter("layer.durations"), ConfigError);
}

TEST(MetricsRegistryTest, HistogramSpecAppliesOnFirstCreationOnly) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h", {.first_upper_bound = 1.0, .growth = 2.0, .buckets = 3});
  Histogram& again = reg.histogram("h", {.first_upper_bound = 9.0, .growth = 9.0, .buckets = 9});
  EXPECT_EQ(&h, &again);
  EXPECT_EQ(again.edges().size(), 3u);
  EXPECT_EQ(again.edges()[0], 1.0);
}

TEST(MetricsRegistryTest, ResetZeroesValuesButKeepsRegistrations) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  c.add(7);
  Gauge& g = reg.gauge("g");
  g.set(1.5);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(&reg.counter("c"), &c);  // Same handle survives the reset.
}

TEST(MetricsRegistryTest, ConcurrentRegistrationOfOneNameIsSafe) {
  MetricsRegistry reg;
  std::vector<std::thread> threads;
  std::vector<Counter*> handles(8, nullptr);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&reg, &handles, t] {
      Counter& c = reg.counter("contended.name");
      c.add(100);
      handles[static_cast<std::size_t>(t)] = &c;
    });
  }
  for (auto& th : threads) th.join();
  for (Counter* h : handles) EXPECT_EQ(h, handles[0]);
  EXPECT_EQ(reg.counter("contended.name").value(), 800u);
}

// Golden exposition dump: pins name mangling, TYPE lines, sort order,
// cumulative histogram buckets, the +Inf terminator and number formatting
// all at once. Update deliberately or not at all.
TEST(MetricsRegistryTest, ExpositionGolden) {
  MetricsRegistry reg;
  reg.counter("gen2.rounds").add(3);
  reg.gauge("sweep.pool.queue_depth").set(2.5);
  Histogram& h =
      reg.histogram("gen2.round_duration_seconds",
                    {.first_upper_bound = 0.001, .growth = 10.0, .buckets = 3});
  h.observe(0.0005);
  h.observe(0.02);
  h.observe(0.02);
  h.observe(5.0);  // Overflows into +Inf.
  const std::string expected =
      "# TYPE rfidsim_gen2_round_duration_seconds histogram\n"
      "rfidsim_gen2_round_duration_seconds_bucket{le=\"0.001\"} 1\n"
      "rfidsim_gen2_round_duration_seconds_bucket{le=\"0.01\"} 1\n"
      "rfidsim_gen2_round_duration_seconds_bucket{le=\"0.1\"} 3\n"
      "rfidsim_gen2_round_duration_seconds_bucket{le=\"+Inf\"} 4\n"
      "rfidsim_gen2_round_duration_seconds_sum 5.0405\n"
      "rfidsim_gen2_round_duration_seconds_count 4\n"
      "# rfidsim_gen2_round_duration_seconds{quantile=\"0.5\"} 0.0316227766\n"
      "# rfidsim_gen2_round_duration_seconds{quantile=\"0.95\"} 0.1\n"
      "# rfidsim_gen2_round_duration_seconds{quantile=\"0.99\"} 0.1\n"
      "# TYPE rfidsim_gen2_rounds counter\n"
      "rfidsim_gen2_rounds 3\n"
      "# TYPE rfidsim_sweep_pool_queue_depth gauge\n"
      "rfidsim_sweep_pool_queue_depth 2.5\n";
  EXPECT_EQ(reg.exposition(), expected);
  std::ostringstream out;
  reg.write_exposition(out);
  EXPECT_EQ(out.str(), expected);
}

// Golden hexfloat pins for the log-bucket quantile interpolation: a rank
// fraction f inside a bucket maps to lo * (hi/lo)^f. The chosen loads
// make the interpolants mathematically exact powers of 2 and 4^(3/4), so
// any change to the interpolation (linear instead of geometric, different
// lower edge for bucket 0, off-by-one ranks) breaks bit-exactly.
TEST(HistogramQuantileTest, LogBucketInterpolationGolden) {
  Histogram h({.first_upper_bound = 1e-3, .growth = 4.0, .buckets = 8});
  // 20 obs in (0.001, 0.004], 60 in (0.004, 0.016], 20 in (0.016, 0.064].
  for (int i = 0; i < 100; ++i) h.observe(0.002 * (1 + i % 10));
  EXPECT_EQ(h.quantile(0.5), 0x1.0624dd2f1a9fcp-7);    // 0.004 * 4^0.5 = 0.008.
  EXPECT_EQ(h.quantile(0.95), 0x1.72ba43fff3718p-5);   // 0.016 * 4^0.75.
  EXPECT_EQ(h.quantile(0.99), 0x1.e92d917a58c5cp-5);   // 0.016 * 4^0.9.
}

TEST(HistogramQuantileTest, BracketBucketEdgesAndEmpty) {
  Histogram one({.first_upper_bound = 1.0, .growth = 4.0, .buckets = 4});
  one.observe(2.0);
  one.observe(3.0);
  // Both obs sit in bucket 1 (1, 4]: rank fraction 0.25 -> 1 * 4^0.25.
  EXPECT_EQ(one.quantile(0.25), 0x1.6a09e667f3bcdp+0);  // sqrt(2).
  EXPECT_EQ(one.quantile(0.0), 1.0);   // Lower edge of the bracketing bucket.
  EXPECT_EQ(one.quantile(1.0), 4.0);   // Upper edge.

  const Histogram empty({.first_upper_bound = 1.0, .growth = 2.0, .buckets = 3});
  EXPECT_EQ(empty.quantile(0.5), 0.0);
  EXPECT_THROW(one.quantile(-0.01), ConfigError);
  EXPECT_THROW(one.quantile(1.01), ConfigError);
}

TEST(HistogramQuantileTest, OverflowMassClampsToLastFiniteEdge) {
  Histogram h({.first_upper_bound = 1.0, .growth = 2.0, .buckets = 3});  // 1, 2, 4.
  h.observe(100.0);
  h.observe(200.0);
  EXPECT_EQ(h.quantile(0.5), 4.0);
  EXPECT_EQ(h.quantile(0.99), 4.0);
}

TEST(LabelTest, EscapeLabelValueHandlesBackslashQuoteNewline) {
  EXPECT_EQ(escape_label_value("plain"), "plain");
  EXPECT_EQ(escape_label_value("a\"b"), "a\\\"b");
  EXPECT_EQ(escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(escape_label_value("a\nb"), "a\\nb");
  EXPECT_EQ(escape_label_value("\\\"\n"), "\\\\\\\"\\n");
}

TEST(LabelTest, SameLabelsReturnSameHandleRegardlessOfOrder) {
  MetricsRegistry reg;
  Counter& a = reg.counter("portal.reader_rounds", {{"reader", "0"}, {"site", "x"}});
  Counter& b = reg.counter("portal.reader_rounds", {{"site", "x"}, {"reader", "0"}});
  EXPECT_EQ(&a, &b);
  Counter& other = reg.counter("portal.reader_rounds", {{"reader", "1"}, {"site", "x"}});
  EXPECT_NE(&a, &other);
  // The plain (unlabelled) metric of the family is yet another child.
  Counter& plain = reg.counter("portal.reader_rounds");
  EXPECT_NE(&plain, &a);
  EXPECT_EQ(&plain, &reg.counter("portal.reader_rounds"));
}

TEST(LabelTest, KindMustAgreeAcrossTheWholeFamily) {
  MetricsRegistry reg;
  reg.counter("layer.signal", {{"reader", "0"}});
  EXPECT_THROW(reg.gauge("layer.signal"), ConfigError);
  EXPECT_THROW(reg.gauge("layer.signal", {{"reader", "1"}}), ConfigError);
  EXPECT_THROW(reg.histogram("layer.signal", {{"reader", "0"}}), ConfigError);
  // A *different* family whose name shares a prefix is unaffected.
  reg.gauge("layer.signal_level");
  reg.gauge("layer.sig");
}

TEST(LabelTest, DuplicateLabelKeysThrow) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.counter("x", {{"k", "1"}, {"k", "2"}}), ConfigError);
  EXPECT_THROW(reg.counter("x", {{"", "1"}}), ConfigError);
}

// Labelled exposition golden: one # TYPE line per family, children
// sorted by label set right after the plain sample, escaped values, and
// histogram children splicing `le` after their labels.
TEST(LabelTest, ExpositionGroupsFamiliesAndEscapesValues) {
  MetricsRegistry reg;
  reg.counter("sys.portal.reader_rounds", {{"reader", "0"}}).add(10);
  reg.counter("sys.portal.reader_rounds", {{"reader", "1"}}).add(20);
  reg.counter("sys.portal.rounds").add(30);
  reg.gauge("obs.rate", {{"stream", "a\"b\\c\nd"}}).set(0.5);
  Histogram& h = reg.histogram("obs.lat", {{"reader", "0"}},
                               {.first_upper_bound = 1.0, .growth = 2.0, .buckets = 2});
  h.observe(1.5);
  const std::string expected =
      "# TYPE rfidsim_obs_lat histogram\n"
      "rfidsim_obs_lat_bucket{reader=\"0\",le=\"1\"} 0\n"
      "rfidsim_obs_lat_bucket{reader=\"0\",le=\"2\"} 1\n"
      "rfidsim_obs_lat_bucket{reader=\"0\",le=\"+Inf\"} 1\n"
      "rfidsim_obs_lat_sum{reader=\"0\"} 1.5\n"
      "rfidsim_obs_lat_count{reader=\"0\"} 1\n"
      "# rfidsim_obs_lat{reader=\"0\",quantile=\"0.5\"} 1.41421356\n"
      "# rfidsim_obs_lat{reader=\"0\",quantile=\"0.95\"} 1.93187266\n"
      "# rfidsim_obs_lat{reader=\"0\",quantile=\"0.99\"} 1.98618499\n"
      "# TYPE rfidsim_obs_rate gauge\n"
      "rfidsim_obs_rate{stream=\"a\\\"b\\\\c\\nd\"} 0.5\n"
      "# TYPE rfidsim_sys_portal_reader_rounds counter\n"
      "rfidsim_sys_portal_reader_rounds{reader=\"0\"} 10\n"
      "rfidsim_sys_portal_reader_rounds{reader=\"1\"} 20\n"
      "# TYPE rfidsim_sys_portal_rounds counter\n"
      "rfidsim_sys_portal_rounds 30\n";
  EXPECT_EQ(reg.exposition(), expected);
}

// The registry primitives are plain data structures, deliberately outside
// the hooks_enabled() gate: a standalone registry must render the exact
// same labelled-histogram exposition (buckets, sum/count, quantile comment
// lines) with the master switch off — and under the -DRFIDSIM_OBS=OFF
// cross-build, where hooks_enabled() is constant false. The OBS=OFF CI job
// runs this very test to pin that.
TEST(LabelTest, LabelledHistogramExpositionSurvivesDisabledHooks) {
  const bool saved = enabled();
  set_enabled(false);
#ifdef RFIDSIM_OBS_DISABLED
  EXPECT_FALSE(hooks_enabled());
#endif
  MetricsRegistry reg;
  Histogram& h = reg.histogram(
      "fleet.feed.visibility_lag_seconds", {{"facility", "3"}},
      {.first_upper_bound = 1.0, .growth = 2.0, .buckets = 2});
  h.observe(1.5);
  const std::string text = reg.exposition();
  set_enabled(saved);
  const std::string expected =
      "# TYPE rfidsim_fleet_feed_visibility_lag_seconds histogram\n"
      "rfidsim_fleet_feed_visibility_lag_seconds_bucket{facility=\"3\",le=\"1\"} 0\n"
      "rfidsim_fleet_feed_visibility_lag_seconds_bucket{facility=\"3\",le=\"2\"} 1\n"
      "rfidsim_fleet_feed_visibility_lag_seconds_bucket{facility=\"3\",le=\"+Inf\"} 1\n"
      "rfidsim_fleet_feed_visibility_lag_seconds_sum{facility=\"3\"} 1.5\n"
      "rfidsim_fleet_feed_visibility_lag_seconds_count{facility=\"3\"} 1\n"
      "# rfidsim_fleet_feed_visibility_lag_seconds{facility=\"3\",quantile=\"0.5\"} 1.41421356\n"
      "# rfidsim_fleet_feed_visibility_lag_seconds{facility=\"3\",quantile=\"0.95\"} 1.93187266\n"
      "# rfidsim_fleet_feed_visibility_lag_seconds{facility=\"3\",quantile=\"0.99\"} 1.98618499\n";
  EXPECT_EQ(text, expected);
}

TEST(LabelTest, GlobalShorthandsResolveLabelledChildren) {
  Counter& c = counter("obs_test.labelled", {{"k", "v"}});
  EXPECT_EQ(&c, &registry().counter("obs_test.labelled", {{"k", "v"}}));
  Gauge& g = gauge("obs_test.labelled_gauge", {{"k", "v"}});
  EXPECT_EQ(&g, &registry().gauge("obs_test.labelled_gauge", {{"k", "v"}}));
}

TEST(EnvModeTest, ParsesTheDocumentedValues) {
  EXPECT_TRUE(env_mode(nullptr).metrics);
  EXPECT_FALSE(env_mode(nullptr).trace);
  for (const char* off : {"off", "0", "false", "OFF"}) {
    EXPECT_FALSE(env_mode(off).metrics) << off;
    EXPECT_FALSE(env_mode(off).trace) << off;
  }
  EXPECT_TRUE(env_mode("trace").metrics);
  EXPECT_TRUE(env_mode("trace").trace);
  EXPECT_TRUE(env_mode("anything-else").metrics);
  EXPECT_FALSE(env_mode("anything-else").trace);
}

TEST(GlobalRegistryTest, ShorthandsHitTheProcessWideInstance) {
  Counter& c = counter("obs_test.shorthand");
  EXPECT_EQ(&c, &registry().counter("obs_test.shorthand"));
}

}  // namespace
}  // namespace rfidsim::obs
