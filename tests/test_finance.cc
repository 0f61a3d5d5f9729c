/**
 * @file
 * Tests for the finance substrate: Monte Carlo pricer correctness
 * (convergence, chunk composition across orders and threads,
 * determinism), the analytic demand
 * estimator, and the workload generator.
 */
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <thread>
#include <utility>
#include <vector>

#include "finance/mc_pricer.h"
#include "finance/workload.h"

namespace tpc::finance {
namespace {

TEST(MonteCarloPricer, DeterministicForSeed)
{
    MonteCarloPricer pricer;
    AsianOptionParams params;
    const PriceResult a = pricer.price(params, 2000, 7);
    const PriceResult b = pricer.price(params, 2000, 7);
    EXPECT_DOUBLE_EQ(a.price, b.price);
    EXPECT_DOUBLE_EQ(a.standardError, b.standardError);
}

TEST(MonteCarloPricer, ChunksComposeToWholeRun)
{
    // Each chunk's sums depend only on its seed, never on which thread
    // ran it or when — the property parallel execution relies on.
    MonteCarloPricer pricer;
    AsianOptionParams params;
    constexpr int kChunks = 4;
    constexpr std::uint64_t kPathsPerChunk = 500;
    using Sums = std::array<std::pair<double, double>, kChunks>;
    auto runChunk = [&](Sums& sums, int c) {
        pricer.priceChunk(params, kPathsPerChunk,
                          100 + static_cast<std::uint64_t>(c),
                          sums[static_cast<std::size_t>(c)].first,
                          sums[static_cast<std::size_t>(c)].second);
    };

    Sums inOrder{};
    for (int c = 0; c < kChunks; ++c)
        runChunk(inOrder, c);
    Sums reversed{};
    for (int c = kChunks - 1; c >= 0; --c)
        runChunk(reversed, c);
    Sums threaded{};
    std::vector<std::thread> workers;
    for (int c = 0; c < kChunks; ++c)
        workers.emplace_back([&, c] { runChunk(threaded, c); });
    for (std::thread& w : workers)
        w.join();

    for (std::size_t c = 0; c < kChunks; ++c) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(reversed[c].first),
                  std::bit_cast<std::uint64_t>(inOrder[c].first));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(reversed[c].second),
                  std::bit_cast<std::uint64_t>(inOrder[c].second));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(threaded[c].first),
                  std::bit_cast<std::uint64_t>(inOrder[c].first));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(threaded[c].second),
                  std::bit_cast<std::uint64_t>(inOrder[c].second));
        EXPECT_GT(inOrder[c].first, 0.0);
    }

    // A whole run is one chunk: price() == combine(priceChunk()).
    double sum = 0.0;
    double sumSq = 0.0;
    pricer.priceChunk(params, 2000, 7, sum, sumSq);
    const PriceResult combined =
        MonteCarloPricer::combine(params, 2000, sum, sumSq);
    const PriceResult whole = pricer.price(params, 2000, 7);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(whole.price),
              std::bit_cast<std::uint64_t>(combined.price));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(whole.standardError),
              std::bit_cast<std::uint64_t>(combined.standardError));
    EXPECT_EQ(whole.paths, 2000u);
}

TEST(MonteCarloPricer, ConvergesNearReferencePrice)
{
    // Reference from a large independent run; the estimate with fewer
    // paths must land within ~4 standard errors.
    MonteCarloPricer pricer;
    AsianOptionParams params;
    const PriceResult reference = pricer.price(params, 200000, 1);
    const PriceResult estimate = pricer.price(params, 20000, 2);
    EXPECT_NEAR(estimate.price, reference.price,
                4.0 * (estimate.standardError + reference.standardError));
}

TEST(MonteCarloPricer, PriceRespectsMoneyness)
{
    MonteCarloPricer pricer;
    AsianOptionParams inTheMoney;
    inTheMoney.strike = 80.0;
    AsianOptionParams outOfTheMoney;
    outOfTheMoney.strike = 130.0;
    const double itm = pricer.price(inTheMoney, 20000, 3).price;
    const double otm = pricer.price(outOfTheMoney, 20000, 3).price;
    EXPECT_GT(itm, otm);
    EXPECT_GT(itm, 15.0); // at least the discounted intrinsic-ish value
    EXPECT_GE(otm, 0.0);
}

TEST(MonteCarloPricer, HigherVolatilityRaisesOptionValue)
{
    MonteCarloPricer pricer;
    AsianOptionParams lowVol;
    lowVol.volatility = 0.1;
    AsianOptionParams highVol;
    highVol.volatility = 0.4;
    EXPECT_GT(pricer.price(highVol, 30000, 4).price,
              pricer.price(lowVol, 30000, 4).price);
}

TEST(DemandEstimator, LinearInPathsAndSteps)
{
    const DemandEstimator estimator(50.0); // 50 ns per path-step
    EXPECT_DOUBLE_EQ(estimator.estimateMs(1000, 64), 1000.0 * 64 * 50 / 1e6);
    EXPECT_DOUBLE_EQ(estimator.estimateMs(9000, 64),
                     9.0 * estimator.estimateMs(1000, 64));
}

TEST(DemandEstimator, CalibrationTracksActualCost)
{
    MonteCarloPricer pricer;
    AsianOptionParams params;
    const DemandEstimator estimator =
        DemandEstimator::calibrate(pricer, params);
    EXPECT_GT(estimator.nsPerStep(), 1.0);
    EXPECT_LT(estimator.nsPerStep(), 10000.0);
}

TEST(FinanceWorkload, MixMatchesSectionFive)
{
    FinanceWorkloadParams params;
    const harness::Trace trace = makeFinanceTrace(20000, params, 9);
    std::size_t longs = 0;
    double maxError = 0.0;
    for (const auto& item : trace) {
        if (item.trueMs > 3.0 * params.shortMs)
            ++longs;
        maxError = std::max(
            maxError, std::abs(item.predictedMs / item.trueMs - 1.0));
    }
    EXPECT_NEAR(static_cast<double>(longs) / 20000.0, 0.10, 0.01);
    // The analytic estimate is accurate (paper: correction never fires).
    EXPECT_LT(maxError, 0.06);
}

TEST(FinanceWorkload, LongFactorIsNineByDefault)
{
    FinanceWorkloadParams params;
    params.demandJitterSigma = 1e-9;
    const harness::Trace trace = makeFinanceTrace(5000, params, 10);
    double shortMs = 1e18;
    double longMs = 0.0;
    for (const auto& item : trace) {
        shortMs = std::min(shortMs, item.trueMs);
        longMs = std::max(longMs, item.trueMs);
    }
    EXPECT_NEAR(longMs / shortMs, 9.0, 0.05);
}

TEST(FinanceWorkload, ServerConfigShape)
{
    const server::ServerConfig config = financeServerConfig();
    EXPECT_GE(config.numWorkers, 8);
    EXPECT_LE(config.coreCapacity, config.numWorkers);
    EXPECT_DOUBLE_EQ(config.longThresholdMs, 30.0);
}


TEST(MonteCarloPricer, EuropeanMatchesBlackScholes)
{
    // The strongest validation of the GBM machinery: the simulated
    // European call must converge to the closed form.
    MonteCarloPricer pricer;
    AsianOptionParams params;
    const double analytic = blackScholesCall(params);
    const PriceResult mc = pricer.priceEuropean(params, 200000, 11);
    EXPECT_NEAR(mc.price, analytic, 4.0 * mc.standardError);
    EXPECT_LT(mc.standardError, 0.1);
}

TEST(MonteCarloPricer, EuropeanMatchesBlackScholesAcrossStrikes)
{
    MonteCarloPricer pricer;
    for (double strike : {70.0, 90.0, 110.0, 140.0}) {
        AsianOptionParams params;
        params.strike = strike;
        const double analytic = blackScholesCall(params);
        const PriceResult mc = pricer.priceEuropean(params, 120000, 13);
        EXPECT_NEAR(mc.price, analytic,
                    4.0 * mc.standardError + 0.02)
            << "strike " << strike;
    }
}

TEST(MonteCarloPricer, AsianBelowEuropean)
{
    // Averaging reduces effective volatility, so the Asian call is worth
    // less than the European call on the same underlying.
    MonteCarloPricer pricer;
    AsianOptionParams params;
    const double asian = pricer.price(params, 60000, 17).price;
    const double european = pricer.priceEuropean(params, 60000, 17).price;
    EXPECT_LT(asian, european);
}

TEST(BlackScholes, KnownReferenceValue)
{
    // Standard textbook case: S=100, K=100, r=5%, vol=20%, T=1
    // -> C ~ 10.4506.
    AsianOptionParams params;
    EXPECT_NEAR(blackScholesCall(params), 10.4506, 0.001);
}

TEST(StandardNormalCdf, KnownValues)
{
    EXPECT_NEAR(standardNormalCdf(0.0), 0.5, 1e-12);
    EXPECT_NEAR(standardNormalCdf(1.96), 0.975, 0.0005);
    EXPECT_NEAR(standardNormalCdf(-1.96), 0.025, 0.0005);
}

} // namespace
} // namespace tpc::finance
