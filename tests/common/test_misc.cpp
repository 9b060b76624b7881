// Strings, histograms, IDs, RNG and clocks.
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "common/clock.hpp"
#include "common/histogram.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"

namespace qcenv::common {
namespace {

TEST(Strings, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x y \t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, CaseHelpers) {
  EXPECT_TRUE(iequals("Content-Length", "content-length"));
  EXPECT_FALSE(iequals("abc", "abd"));
  EXPECT_EQ(to_lower("QPU-Node"), "qpu-node");
  EXPECT_TRUE(starts_with("qpu-fresnel", "qpu-"));
  EXPECT_FALSE(starts_with("qpu", "qpu-"));
}

TEST(Strings, FormatAndJoin) {
  EXPECT_EQ(format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, FormatDuration) {
  EXPECT_EQ(format_duration_ns(500), "500 ns");
  EXPECT_EQ(format_duration_ns(1500), "1.50 us");
  EXPECT_EQ(format_duration_ns(2500000), "2.50 ms");
  EXPECT_EQ(format_duration_ns(3500000000LL), "3.500 s");
}

TEST(Strings, RandomTokenFormat) {
  const std::string token = random_token(16);
  EXPECT_EQ(token.size(), 32u);
  for (const char c : token) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'));
  }
  EXPECT_NE(random_token(16), random_token(16));
}

TEST(Strings, ParseDecimalIsStrict) {
  EXPECT_EQ(parse_decimal("0", "n").value(), 0u);
  EXPECT_EQ(parse_decimal("007", "n").value(), 7u);
  EXPECT_EQ(parse_decimal("18446744073709551615", "n").value(),
            18446744073709551615ull);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1e3", "1.0", "12abc",
                          "0x10"}) {
    const auto parsed = parse_decimal(bad, "since");
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.error().code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(parsed.error().message(),
              std::string("since must be a non-negative integer, got '") +
                  bad + "'");
  }
  const auto overflow = parse_decimal("18446744073709551616", "since");
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.error().message(), "since is out of range");
}

TEST(BucketHistogramTest, CumulativeCounts) {
  BucketHistogram h({1.0, 10.0, 100.0});
  h.observe(0.5);
  h.observe(5);
  h.observe(50);
  h.observe(500);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 555.5);
  EXPECT_EQ(h.cumulative(0), 1u);   // <= 1
  EXPECT_EQ(h.cumulative(1), 2u);   // <= 10
  EXPECT_EQ(h.cumulative(2), 3u);   // <= 100
  EXPECT_EQ(h.bucket_counts()[3], 1u);  // +Inf bucket
}

TEST(BucketHistogramTest, ExponentialBoundaries) {
  const auto h = BucketHistogram::exponential(1.0, 10.0, 3);
  ASSERT_EQ(h.boundaries().size(), 3u);
  EXPECT_DOUBLE_EQ(h.boundaries()[2], 100.0);
}

TEST(QuantileRecorderTest, Quantiles) {
  QuantileRecorder r;
  for (int i = 1; i <= 100; ++i) r.record(i);
  EXPECT_DOUBLE_EQ(r.mean(), 50.5);
  EXPECT_NEAR(r.quantile(0.5), 50.5, 0.01);
  EXPECT_NEAR(r.quantile(0.95), 95.05, 0.01);
  EXPECT_DOUBLE_EQ(r.min(), 1);
  EXPECT_DOUBLE_EQ(r.max(), 100);
  EXPECT_NEAR(r.stddev(), 29.0115, 0.001);
}

TEST(QuantileRecorderTest, EmptyIsSafe) {
  QuantileRecorder r;
  EXPECT_DOUBLE_EQ(r.mean(), 0);
  EXPECT_DOUBLE_EQ(r.quantile(0.5), 0);
}

TEST(Ids, StrongTypesAreDistinctAndOrdered) {
  IdGenerator<JobTag> jobs;
  const JobId a = jobs.next();
  const JobId b = jobs.next();
  EXPECT_LT(a, b);
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(JobId{}.valid());
  static_assert(!std::is_convertible_v<JobId, SessionId>);
}

TEST(Ids, GeneratorIsThreadSafe) {
  IdGenerator<TaskTag> gen;
  std::set<std::uint64_t> seen;
  std::mutex mutex;
  std::vector<std::jthread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        const TaskId id = gen.next();
        std::scoped_lock lock(mutex);
        EXPECT_TRUE(seen.insert(id.value).second);
      }
    });
  }
  threads.clear();
  EXPECT_EQ(seen.size(), 2000u);
}

TEST(RngTest, DeterministicUnderSeed) {
  Rng a(11), b(11), c(12);
  EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  EXPECT_NE(a.uniform(), c.uniform());
}

TEST(RngTest, UniformBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
    const auto n = rng.uniform_int(-2, 2);
    EXPECT_GE(n, -2);
    EXPECT_LE(n, 2);
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(7);
  double acc = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) acc += rng.exponential_mean(3.0);
  EXPECT_NEAR(acc / n, 3.0, 0.1);
}

TEST(RngTest, ForkStreamsDiffer) {
  Rng parent(9);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  EXPECT_NE(a.uniform(), b.uniform());
}

TEST(ClockTest, ManualClockAdvances) {
  ManualClock clock(100);
  EXPECT_EQ(clock.now(), 100);
  clock.advance(50);
  EXPECT_EQ(clock.now(), 150);
  clock.set(1000);
  EXPECT_EQ(clock.now(), 1000);
}

TEST(ClockTest, AutoAdvanceSleep) {
  ManualClock clock(0, /*auto_advance=*/true);
  clock.sleep_for(5 * kSecond);
  EXPECT_EQ(clock.now(), 5 * kSecond);
}

TEST(ClockTest, BlockingSleepWokenByAdvance) {
  ManualClock clock(0, /*auto_advance=*/false);
  std::atomic<bool> woke{false};
  std::jthread sleeper([&] {
    clock.sleep_for(kSecond);
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(woke.load());
  clock.advance(kSecond);
  sleeper.join();
  EXPECT_TRUE(woke.load());
}

TEST(ClockTest, WallClockMonotonic) {
  WallClock clock;
  const TimeNs a = clock.now();
  const TimeNs b = clock.now();
  EXPECT_LE(a, b);
}

TEST(ClockTest, Conversions) {
  EXPECT_DOUBLE_EQ(to_seconds(1'500'000'000), 1.5);
  EXPECT_EQ(from_seconds(2.5), 2'500'000'000);
  EXPECT_EQ(from_millis(1.5), 1'500'000);
}

}  // namespace
}  // namespace qcenv::common
