/**
 * @file
 * Unit tests for CostTally, geoMean, and the percentile/summary
 * helpers backing the serving telemetry.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/Random.h"
#include "common/Stats.h"

namespace darth
{
namespace
{

TEST(CostTally, AddAndGet)
{
    CostTally tally;
    tally.add("ace.adc", 10, 2.5);
    tally.add("ace.adc", 5, 1.5);
    const CostEntry e = tally.get("ace.adc");
    EXPECT_EQ(e.events, 2u);
    EXPECT_EQ(e.cycles, 15u);
    EXPECT_DOUBLE_EQ(e.energy, 4.0);
}

TEST(CostTally, MissingCategoryIsZero)
{
    CostTally tally;
    const CostEntry e = tally.get("nope");
    EXPECT_EQ(e.events, 0u);
    EXPECT_EQ(e.cycles, 0u);
    EXPECT_DOUBLE_EQ(e.energy, 0.0);
}

TEST(CostTally, Merge)
{
    CostTally a, b;
    a.add("x", 1, 1.0);
    b.add("x", 2, 2.0);
    b.add("y", 3, 3.0);
    a.merge(b);
    EXPECT_EQ(a.get("x").cycles, 3u);
    EXPECT_EQ(a.get("y").cycles, 3u);
}

TEST(CostTally, MergePrefixed)
{
    CostTally a, b;
    b.add("dce.boolop", 4, 8.0);
    a.mergePrefixed("hct0.", b);
    EXPECT_EQ(a.get("hct0.dce.boolop").cycles, 4u);
}

TEST(CostTally, PrefixSums)
{
    CostTally tally;
    tally.add("dce.boolop", 10, 1.0);
    tally.add("dce.io", 5, 2.0);
    tally.add("ace.adc", 7, 4.0);
    EXPECT_EQ(tally.cyclesWithPrefix("dce."), 15u);
    EXPECT_DOUBLE_EQ(tally.energyWithPrefix("dce."), 3.0);
    EXPECT_DOUBLE_EQ(tally.totalEnergy(), 7.0);
    EXPECT_EQ(tally.totalCycles(), 22u);
}

TEST(CostTally, ClearDropsEverything)
{
    CostTally tally;
    tally.add("x", 1, 1.0);
    tally.clear();
    EXPECT_EQ(tally.totalCycles(), 0u);
    EXPECT_TRUE(tally.entries().empty());
}

/** The sum's bit pattern after n plain adds of x. */
u64
loopBits(double sum, double x, u64 n)
{
    for (u64 i = 0; i < n; ++i)
        sum += x;
    u64 bits = 0;
    std::memcpy(&bits, &sum, sizeof(bits));
    return bits;
}

u64
repeatedBits(double sum, double x, u64 n)
{
    addRepeated(sum, x, n);
    u64 bits = 0;
    std::memcpy(&bits, &sum, sizeof(bits));
    return bits;
}

TEST(AddRepeated, MatchesTheLoopBitForBit)
{
    // Hand-picked edges: zero and subnormal sums, ties (x exactly a
    // half-integer number of ulps), x below half an ulp, sums just
    // under a binade boundary, x larger than the sum, negative x.
    const double tiny = std::numeric_limits<double>::denorm_min();
    const double top = 0x1p40;
    const std::vector<std::pair<double, double>> edges = {
        {0.0, 0.1},
        {tiny, 0.5},
        {1.0, 0x1p-53},
        {1.0, 0x1p-54},
        {1.0, 3 * 0x1p-53},
        {1.0, 0x1p-52 + 0x1p-53},
        {std::nextafter(top, 0.0), 0.8},
        {std::nextafter(top, 0.0), 0x1p-13},
        {top - 1.0, 0.1},
        {3.0, 0.8},
        {0.25, 1e6},
        {1e9, 12.0 * 8.0},
        {5e12, 0.1},
        {100.0, -0.3},
    };
    for (const auto &[sum, x] : edges)
        for (u64 n : {0u, 1u, 2u, 3u, 7u, 64u, 1000u, 70000u})
            ASSERT_EQ(repeatedBits(sum, x, n), loopBits(sum, x, n))
                << "sum " << sum << " x " << x << " n " << n;

    // Random magnitudes over many binades.
    Rng rng(17);
    for (int trial = 0; trial < 20000; ++trial) {
        const double sum =
            trial % 7 == 0
                ? 0.0
                : std::ldexp(rng.uniform(), static_cast<int>(
                                                rng.uniformInt(-20, 60)));
        const double x = std::ldexp(
            rng.uniform() + 0.001,
            static_cast<int>(rng.uniformInt(-30, 30)));
        const u64 n = static_cast<u64>(rng.uniformInt(0, 600));
        ASSERT_EQ(repeatedBits(sum, x, n), loopBits(sum, x, n))
            << "sum " << sum << " x " << x << " n " << n;
    }
}

TEST(GeoMean, MatchesHandComputation)
{
    EXPECT_DOUBLE_EQ(geoMean({4.0, 9.0}), 6.0);
    EXPECT_DOUBLE_EQ(geoMean({2.0, 2.0, 2.0}), 2.0);
}

TEST(GeoMean, EmptyIsOne)
{
    EXPECT_DOUBLE_EQ(geoMean({}), 1.0);
}

TEST(GeoMean, PaperHeadline)
{
    // Paper: 59.4x, 14.8x, 40.8x -> geomean 31.4x (abstract).
    const double g = geoMean({59.4, 14.8, 40.8});
    EXPECT_NEAR(g, 33.0, 2.5);
}

TEST(Percentile, NearestRankDefinition)
{
    const std::vector<double> sample = {5.0, 1.0, 3.0, 2.0, 4.0};
    EXPECT_DOUBLE_EQ(percentile(sample, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(sample, 20.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(sample, 50.0), 3.0);
    EXPECT_DOUBLE_EQ(percentile(sample, 90.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile(sample, 100.0), 5.0);
    // Out-of-range p clamps rather than reading out of bounds.
    EXPECT_DOUBLE_EQ(percentile(sample, 150.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile(sample, -5.0), 1.0);
}

TEST(Percentile, EmptyAndSingleton)
{
    EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
    EXPECT_DOUBLE_EQ(percentile({7.0}, 1.0), 7.0);
    EXPECT_DOUBLE_EQ(percentile({7.0}, 99.0), 7.0);
}

TEST(Percentile, TailIsExactOnLargeSample)
{
    std::vector<double> sample;
    for (int i = 1; i <= 100; ++i)
        sample.push_back(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(percentile(sample, 50.0), 50.0);
    EXPECT_DOUBLE_EQ(percentile(sample, 95.0), 95.0);
    EXPECT_DOUBLE_EQ(percentile(sample, 99.0), 99.0);
}

TEST(SampleSummary, SummarizeMatchesComponents)
{
    std::vector<double> sample;
    for (int i = 10; i >= 1; --i)
        sample.push_back(static_cast<double>(i));
    const SampleSummary s = summarize(sample);
    EXPECT_EQ(s.count, 10u);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 10.0);
    EXPECT_DOUBLE_EQ(s.mean, 5.5);
    EXPECT_DOUBLE_EQ(s.p50, percentile(sample, 50.0));
    EXPECT_DOUBLE_EQ(s.p95, percentile(sample, 95.0));
    EXPECT_DOUBLE_EQ(s.p99, percentile(sample, 99.0));

    const SampleSummary empty = summarize({});
    EXPECT_EQ(empty.count, 0u);
    EXPECT_DOUBLE_EQ(empty.mean, 0.0);
}

} // namespace
} // namespace darth
