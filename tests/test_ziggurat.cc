/**
 * @file
 * Distribution tests for the ziggurat normal sampler: goodness of fit
 * over the whole line (Kolmogorov-Smirnov) and the mass of the tail that
 * only the base layer's tail routine produces.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "finance/mc_pricer.h"
#include "util/rng.h"
#include "util/ziggurat.h"

namespace tpc::util {
namespace {

TEST(ZigguratNormal, KolmogorovSmirnovBelowOnePercentCritical)
{
    constexpr int kDraws = 1000000;
    Rng rng(20240601);
    ZigguratNormal normal(rng);
    std::vector<double> draws(kDraws);
    for (double& x : draws)
        x = normal();
    std::sort(draws.begin(), draws.end());

    double distance = 0.0;
    for (int i = 0; i < kDraws; ++i) {
        const double cdf =
            finance::standardNormalCdf(draws[static_cast<std::size_t>(i)]);
        distance = std::max({distance, cdf - static_cast<double>(i) / kDraws,
                             static_cast<double>(i + 1) / kDraws - cdf});
    }
    EXPECT_LT(distance, 1.63 / std::sqrt(static_cast<double>(kDraws)));
}

TEST(ZigguratNormal, TailMassBeyondBaseLayerMatchesNormal)
{
    // Draws beyond kTailStart come only from the tail routine (every
    // rectangle and wedge lies inside it), so this pins that rare path.
    constexpr int kDraws = 4000000;
    Rng rng(77);
    ZigguratNormal normal(rng);
    int beyond = 0;
    int beyondFour = 0;
    for (int i = 0; i < kDraws; ++i) {
        const double x = std::abs(normal());
        if (x > ZigguratNormal::kTailStart)
            ++beyond;
        if (x > 4.0)
            ++beyondFour;
    }
    auto expectBinomial = [&](int hits, double edge) {
        const double p = 2.0 * (1.0 - finance::standardNormalCdf(edge));
        const double mean = kDraws * p;
        const double sigma = std::sqrt(kDraws * p * (1.0 - p));
        EXPECT_NEAR(hits, mean, 5.0 * sigma) << "beyond " << edge;
    };
    expectBinomial(beyond, ZigguratNormal::kTailStart);
    expectBinomial(beyondFour, 4.0);
}

} // namespace
} // namespace tpc::util
