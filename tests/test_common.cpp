#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include <string>
#include <utility>

#include "common/args.hpp"
#include "common/histogram.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace delta {
namespace {

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b());
  EXPECT_LT(equal, 4);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(r.below(17), 17u);
  }
  EXPECT_EQ(r.below(0), 0u);
  EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng r(99);
  constexpr int kBuckets = 8;
  int counts[kBuckets] = {};
  constexpr int kSamples = 80'000;
  for (int i = 0; i < kSamples; ++i) ++counts[r.below(kBuckets)];
  for (int b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], kSamples / kBuckets, kSamples / kBuckets * 0.1);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(5);
  double sum = 0.0;
  for (int i = 0; i < 10'000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10'000.0, 0.5, 0.02);
}

TEST(Splitmix, StableSequence) {
  std::uint64_t s = 42;
  const std::uint64_t first = splitmix64(s);
  std::uint64_t s2 = 42;
  EXPECT_EQ(first, splitmix64(s2));
  EXPECT_NE(splitmix64(s), first);
}

TEST(Stats, MeanGeomeanStd) {
  const std::vector<double> xs{1.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 7.0 / 3.0);
  EXPECT_NEAR(geomean(xs), 2.0, 1e-12);
  // Sample stddev of {1,2,4}: mean 7/3, squared devs (16/9, 1/9, 25/9).
  EXPECT_NEAR(stddev(xs), std::sqrt((16.0 / 9 + 1.0 / 9 + 25.0 / 9) / 2.0), 1e-12);
}

TEST(Stats, GeomeanOfEqualValues) {
  const std::vector<double> xs{3.0, 3.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(geomean(xs), 3.0);
}

TEST(Stats, EmptyInputsAreZero) {
  EXPECT_EQ(mean({}), 0.0);
  EXPECT_EQ(geomean({}), 0.0);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Stats, Median) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Stats, HarmonicMean) {
  EXPECT_NEAR(harmonic_mean(std::vector<double>{1.0, 2.0, 4.0}), 3.0 / 1.75, 1e-12);
}

TEST(RunningStat, MatchesBatch) {
  RunningStat rs;
  const std::vector<double> xs{1.5, 2.5, 0.5, 4.0, 3.0};
  for (double x : xs) rs.add(x);
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-12);
  EXPECT_NEAR(rs.stddev(), stddev(xs), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 0.5);
  EXPECT_DOUBLE_EQ(rs.max(), 4.0);
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"a", "bbbb"});
  t.add_row({"xx", "y"});
  const std::string s = t.str();
  EXPECT_NE(s.find("a   bbbb"), std::string::npos);
  EXPECT_NE(s.find("xx  y"), std::string::npos);
}

TEST(Histogram, BasicCountsAndQuantiles) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  EXPECT_EQ(h.total(), 10u);
  EXPECT_NEAR(h.mean(), 5.0, 1e-9);
  EXPECT_EQ(h.count(3), 1u);
  h.add(-5.0);
  h.add(99.0);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(9), 2u);
}

TEST(ParallelFor, CoversRangeOnce) {
  std::vector<int> hits(1000, 0);
  parallel_for(0, hits.size(), [&](std::size_t i) { hits[i]++; }, 4);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  parallel_for(5, 5, [](std::size_t) { FAIL(); });
}

TEST(ParallelFor, PropagatesWorkerException) {
  // A throw on a worker thread must surface on the calling thread, not
  // std::terminate the process (regression: exceptions used to escape the
  // worker's thread entry point).
  EXPECT_THROW(
      parallel_for(
          0, 64,
          [](std::size_t i) {
            if (i == 13) throw std::runtime_error("boom");
          },
          4),
      std::runtime_error);
}

TEST(ParallelFor, PropagatesExceptionMessage) {
  try {
    parallel_for(
        0, 8, [](std::size_t) { throw std::runtime_error("worker died"); }, 3);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "worker died");
  }
}

TEST(ParallelFor, PropagatesExceptionFromSerialPath) {
  // threads <= 1 runs inline; the throw must pass through unchanged.
  EXPECT_THROW(
      parallel_for(
          0, 4, [](std::size_t) { throw std::logic_error("serial"); }, 1),
      std::logic_error);
}

TEST(ParallelFor, StopsSchedulingAfterFailure) {
  // After one worker throws, remaining iterations are skipped (best-effort
  // early stop) and every thread is still joined before the rethrow.
  std::atomic<int> ran{0};
  try {
    parallel_for(
        0, 100'000,
        [&](std::size_t i) {
          if (i == 0) throw std::runtime_error("first");
          ran.fetch_add(1, std::memory_order_relaxed);
        },
        4);
  } catch (const std::runtime_error&) {
  }
  EXPECT_LT(ran.load(), 100'000);
}

TEST(ParallelFor, NonExceptionalRunsAreUnaffectedByGuard) {
  // The failure guard must not drop iterations on the happy path.
  std::atomic<std::uint64_t> sum{0};
  parallel_for(1, 101, [&](std::size_t i) { sum.fetch_add(i); }, 4);
  EXPECT_EQ(sum.load(), 5050u);
}

TEST(Types, BlockAndPageHelpers) {
  EXPECT_EQ(block_of(0), 0u);
  EXPECT_EQ(block_of(63), 0u);
  EXPECT_EQ(block_of(64), 1u);
  EXPECT_EQ(addr_of_block(3), 192u);
  EXPECT_EQ(page_of(4095), 0u);
  EXPECT_EQ(page_of(4096), 1u);
  EXPECT_EQ(lines_in(kMiB), 16384u);
}

TEST(Args, ParseIntInRangeTable) {
  constexpr std::int64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
  struct Case {
    const char* text;
    std::int64_t lo, hi;
    std::optional<std::int64_t> want;
  };
  const Case cases[] = {
      {"300", 1, 1'000'000, 300},
      {"1", 1, 1'000'000, 1},
      {"0", 0, 10, 0},
      {"-3", -5, 5, -3},
      {"abc", 1, 1'000'000, std::nullopt},    // Not a number.
      {"", 1, 1'000'000, std::nullopt},       // Flag given without a value.
      {"12x", 1, 1'000'000, std::nullopt},    // Trailing garbage.
      {" 12", 1, 1'000'000, std::nullopt},    // Leading space.
      {"1.5", 1, 1'000'000, std::nullopt},    // Not an integer.
      {"-5", 1, 1'000'000, std::nullopt},     // Below the range.
      {"0", 1, 1'000'000, std::nullopt},
      {"32", 16, 16, std::nullopt},           // Above the range.
      {"4294967295", 0, kU32Max, kU32Max},    // Exactly at the top.
      {"99999999999", 0, kU32Max, std::nullopt},
      {"99999999999999999999", 0, std::numeric_limits<std::int64_t>::max(),
       std::nullopt},                         // Overflows int64.
  };
  for (const Case& c : cases)
    EXPECT_EQ(parse_int_in(c.text, c.lo, c.hi), c.want)
        << "'" << c.text << "' in [" << c.lo << ", " << c.hi << "]";
}

TEST(Args, ParseDoubleInRangeTable) {
  struct Case {
    const char* text;
    double lo, hi;
    std::optional<double> want;
  };
  const Case cases[] = {
      {"1", 0.1, 1e5, 1.0},
      {"0.5", 0.1, 1e5, 0.5},
      {"0.1", 0.1, 1e5, 0.1},                 // Exactly at the bottom.
      {"100000", 0.1, 1e5, 1e5},              // Exactly at the top.
      {"2.5e1", 0.1, 1e5, 25.0},
      {"abc", 0.1, 1e5, std::nullopt},        // Not a number.
      {"", 0.1, 1e5, std::nullopt},           // Flag given without a value.
      {"1.5ms", 0.1, 1e5, std::nullopt},      // Trailing garbage.
      {"0", 0.1, 1e5, std::nullopt},          // Below the range.
      {"-1", 0.1, 1e5, std::nullopt},
      {"0.05", 0.1, 1e5, std::nullopt},
      {"100001", 0.1, 1e5, std::nullopt},     // Above the range.
      {"nan", 0.1, 1e5, std::nullopt},
      {"inf", 0.1, 1e5, std::nullopt},
  };
  for (const Case& c : cases)
    EXPECT_EQ(parse_double_in(c.text, c.lo, c.hi), c.want)
        << "'" << c.text << "' in [" << c.lo << ", " << c.hi << "]";
}

// An ArgParser over `flags`, given after a program name.
ArgParser parse_flags(std::vector<std::string> flags) {
  flags.insert(flags.begin(), "prog");
  std::vector<char*> argv;
  for (auto& f : flags) argv.push_back(f.data());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

std::int64_t get_epochs(std::vector<std::string> flags) {
  return parse_flags(std::move(flags)).get_int_in("epochs", 300, 1, 1'000'000);
}

TEST(Args, GetIntInDefaultsAndAccepts) {
  EXPECT_EQ(get_epochs({}), 300);
  EXPECT_EQ(get_epochs({"--epochs", "10"}), 10);
  EXPECT_EQ(get_epochs({"--epochs=7"}), 7);
}

TEST(ArgsDeathTest, GetIntInExitsWithUsageCode) {
  EXPECT_EXIT(get_epochs({"--epochs", "abc"}), testing::ExitedWithCode(2),
              "--epochs expects an integer in \\[1, 1000000\\], got 'abc'");
  EXPECT_EXIT(get_epochs({"--epochs", "-5"}), testing::ExitedWithCode(2), "got '-5'");
}

double get_central_ms(std::vector<std::string> flags) {
  return parse_flags(std::move(flags)).get_double_in("central-ms", 1.0, 0.1, 1e5);
}

TEST(Args, GetDoubleInDefaultsAndAccepts) {
  EXPECT_EQ(get_central_ms({}), 1.0);
  EXPECT_EQ(get_central_ms({"--central-ms", "0.5"}), 0.5);
  EXPECT_EQ(get_central_ms({"--central-ms=100"}), 100.0);
}

TEST(ArgsDeathTest, GetDoubleInExitsWithUsageCode) {
  EXPECT_EXIT(get_central_ms({"--central-ms", "abc"}), testing::ExitedWithCode(2),
              "--central-ms expects a number in \\[0.1, 100000\\], got 'abc'");
  EXPECT_EXIT(get_central_ms({"--central-ms", "0"}), testing::ExitedWithCode(2),
              "got '0'");
  EXPECT_EXIT(get_central_ms({"--central-ms", "-1"}), testing::ExitedWithCode(2),
              "got '-1'");
}

}  // namespace
}  // namespace delta
