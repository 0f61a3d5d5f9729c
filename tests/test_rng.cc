/**
 * @file
 * Unit tests for the PRNG: determinism, range contracts, and first/second
 * moment sanity of the derived distributions.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "util/rng.h"

namespace tpc::util {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, GoldenStreamForFixedSeed)
{
    // Every workload, trace and query generator and every committed
    // simulation figure is defined by these streams: they must never
    // change.
    constexpr std::uint64_t kSeed = 20260418;
    const std::uint64_t expectedNext[] = {
        0xe87fc0b0c73184a8ull, 0x24028d546a17ca5dull, 0x2989e8a2b3829120ull,
        0x9bdf0744c1b0f7bbull, 0x9c71b1785a48a5d0ull, 0xcdba1f1bae7e5212ull,
        0xd244f36ccfccf7d0ull, 0x72c7f256ecf3cd8bull};
    const double expectedNormal[] = {
        0x1.1cfecc911c926p-2,  0x1.5b70ec56b9a7cp-2,  -0x1.7a60d7bfa938bp+0,
        -0x1.3487d0ae15b5fp+0, 0x1.4ff3d930ebd0ap-2,  -0x1.df912caf7537ep-1,
        -0x1.3072e70b49618p-1, 0x1.9993b2aee628p-3};
    Rng raw(kSeed);
    for (const std::uint64_t expected : expectedNext)
        EXPECT_EQ(raw.next(), expected);
    Rng normals(kSeed);
    for (const double expected : expectedNormal)
        EXPECT_EQ(normals.normal(), expected);
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++equal;
    EXPECT_LT(equal, 3);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(7);
    Rng b = a.split();
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++equal;
    EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(42);
    double sum = 0.0;
    for (int i = 0; i < 100000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(42);
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.uniform(-3.0, 5.0);
        ASSERT_GE(v, -3.0);
        ASSERT_LT(v, 5.0);
    }
}

TEST(Rng, UniformIntCoversAllValues)
{
    Rng rng(42);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.uniformInt(10));
    EXPECT_EQ(seen.size(), 10u);
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), 9u);
}

TEST(Rng, UniformIntIsApproximatelyUniform)
{
    Rng rng(99);
    std::vector<int> counts(8, 0);
    const int n = 80000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.uniformInt(8)];
    for (int c : counts)
        EXPECT_NEAR(c, n / 8, n / 8 * 0.1);
}

TEST(Rng, UniformIntInclusiveRange)
{
    Rng rng(5);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformInt(-2, 2);
        ASSERT_GE(v, -2);
        ASSERT_LE(v, 2);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NormalMoments)
{
    Rng rng(42);
    double sum = 0.0;
    double sumSq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double z = rng.normal();
        sum += z;
        sumSq += z * z;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sumSq / n, 1.0, 0.03);
}

TEST(Rng, NormalWithParameters)
{
    Rng rng(42);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.normal(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(42);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.exponential(5.0);
        ASSERT_GT(x, 0.0);
        sum += x;
    }
    EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, LognormalMedian)
{
    Rng rng(42);
    std::vector<double> samples;
    const int n = 100001;
    samples.reserve(n);
    for (int i = 0; i < n; ++i)
        samples.push_back(rng.lognormal(1.0, 0.5));
    std::nth_element(samples.begin(), samples.begin() + n / 2,
                     samples.end());
    EXPECT_NEAR(samples[n / 2], std::exp(1.0), 0.05);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(42);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        if (rng.bernoulli(0.3))
            ++hits;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, PoissonMean)
{
    Rng rng(42);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.poisson(4.0);
    EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, PoissonZeroMean)
{
    Rng rng(42);
    EXPECT_EQ(rng.poisson(0.0), 0);
}

TEST(Rng, SatisfiesUniformRandomBitGenerator)
{
    static_assert(std::uniform_random_bit_generator<Rng>);
    SUCCEED();
}

} // namespace
} // namespace tpc::util
