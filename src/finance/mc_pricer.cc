#include "finance/mc_pricer.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>

#include "util/logging.h"
#include "util/ziggurat.h"

namespace tpc::finance {

void
MonteCarloPricer::priceChunk(const AsianOptionParams& params,
                             std::uint64_t paths, std::uint64_t seed,
                             double& sumPayoff, double& sumPayoffSq) const
{
    TPC_CHECK(params.steps >= 1);
    util::Rng rng(seed);
    util::ZigguratNormal normal(rng);
    const double dt = params.maturityYears / params.steps;
    const double drift =
        (params.riskFreeRate - 0.5 * params.volatility * params.volatility) *
        dt;
    const double diffusion = params.volatility * std::sqrt(dt);
    const double logSpot0 = std::log(params.spot);

    double localSum = 0.0;
    double localSumSq = 0.0;
    for (std::uint64_t p = 0; p < paths; ++p) {
        double logSpot = logSpot0;
        double pathSum = 0.0;
        for (int s = 0; s < params.steps; ++s) {
            logSpot += drift + diffusion * normal();
            pathSum += std::exp(logSpot);
        }
        const double average = pathSum / params.steps;
        const double payoff = std::max(average - params.strike, 0.0);
        localSum += payoff;
        localSumSq += payoff * payoff;
    }
    sumPayoff = localSum;
    sumPayoffSq = localSumSq;
}

PriceResult
MonteCarloPricer::combine(const AsianOptionParams& params,
                          std::uint64_t totalPaths, double sumPayoff,
                          double sumPayoffSq)
{
    TPC_CHECK(totalPaths > 0);
    const double n = static_cast<double>(totalPaths);
    const double mean = sumPayoff / n;
    const double variance =
        std::max(0.0, sumPayoffSq / n - mean * mean);
    const double discount =
        std::exp(-params.riskFreeRate * params.maturityYears);

    PriceResult result;
    result.price = discount * mean;
    result.standardError = discount * std::sqrt(variance / n);
    result.paths = totalPaths;
    return result;
}

PriceResult
MonteCarloPricer::price(const AsianOptionParams& params, std::uint64_t paths,
                        std::uint64_t seed) const
{
    double sum = 0.0;
    double sumSq = 0.0;
    priceChunk(params, paths, seed, sum, sumSq);
    return combine(params, paths, sum, sumSq);
}

PriceResult
MonteCarloPricer::priceEuropean(const AsianOptionParams& params,
                                std::uint64_t paths,
                                std::uint64_t seed) const
{
    TPC_CHECK(paths > 0);
    util::Rng rng(seed);
    util::ZigguratNormal normal(rng);
    // Terminal price can be sampled in one step: S_T = S0 exp((r - v^2/2)T
    // + v sqrt(T) Z).
    const double drift = (params.riskFreeRate -
                          0.5 * params.volatility * params.volatility) *
                         params.maturityYears;
    const double diffusion =
        params.volatility * std::sqrt(params.maturityYears);
    double sum = 0.0;
    double sumSq = 0.0;
    for (std::uint64_t p = 0; p < paths; ++p) {
        const double terminal =
            params.spot * std::exp(drift + diffusion * normal());
        const double payoff = std::max(terminal - params.strike, 0.0);
        sum += payoff;
        sumSq += payoff * payoff;
    }
    return combine(params, paths, sum, sumSq);
}

double
standardNormalCdf(double x)
{
    return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

double
blackScholesCall(const AsianOptionParams& params)
{
    TPC_CHECK(params.volatility > 0.0);
    TPC_CHECK(params.maturityYears > 0.0);
    const double sqrtT = std::sqrt(params.maturityYears);
    const double d1 =
        (std::log(params.spot / params.strike) +
         (params.riskFreeRate +
          0.5 * params.volatility * params.volatility) *
             params.maturityYears) /
        (params.volatility * sqrtT);
    const double d2 = d1 - params.volatility * sqrtT;
    const double discount =
        std::exp(-params.riskFreeRate * params.maturityYears);
    return params.spot * standardNormalCdf(d1) -
           params.strike * discount * standardNormalCdf(d2);
}

DemandEstimator::DemandEstimator(double nsPerStep) : nsPerStep_(nsPerStep)
{
    TPC_CHECK(nsPerStep > 0.0);
}

DemandEstimator
DemandEstimator::calibrate(const MonteCarloPricer& pricer,
                           const AsianOptionParams& params)
{
    using Clock = std::chrono::steady_clock;
    constexpr std::uint64_t kCalibrationPaths = 4000;
    constexpr int kTimedRuns = 5;
    // Warm-up run, then the median of several timed runs: one run lasts
    // only a few ms, so a single preemption or frequency step would
    // otherwise set every request's prediction.
    double sum = 0.0;
    double sumSq = 0.0;
    pricer.priceChunk(params, kCalibrationPaths / 4, 1, sum, sumSq);
    std::array<double, kTimedRuns> elapsedNs{};
    for (int run = 0; run < kTimedRuns; ++run) {
        const auto start = Clock::now();
        pricer.priceChunk(params, kCalibrationPaths,
                          2 + static_cast<std::uint64_t>(run), sum, sumSq);
        elapsedNs[static_cast<std::size_t>(run)] =
            std::chrono::duration<double, std::nano>(Clock::now() - start)
                .count();
    }
    std::nth_element(elapsedNs.begin(), elapsedNs.begin() + kTimedRuns / 2,
                     elapsedNs.end());
    const double steps =
        static_cast<double>(kCalibrationPaths) * params.steps;
    return DemandEstimator(elapsedNs[kTimedRuns / 2] / steps);
}

double
DemandEstimator::estimateMs(std::uint64_t paths, int steps) const
{
    return static_cast<double>(paths) * steps * nsPerStep_ / 1e6;
}

} // namespace tpc::finance
