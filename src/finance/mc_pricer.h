/**
 * @file
 * Monte Carlo pricer for path-dependent Asian options (Section 5.1).
 *
 * The paper's finance server values arithmetic-average Asian options by
 * Monte Carlo simulation of geometric Brownian motion paths: CPU-bound,
 * regular structure, parallelizable over paths, with sequential execution
 * time that is an accurate function of (paths x steps) — exactly the
 * workload-property profile TPC targets (Section 5).
 */
#pragma once

#include <cstdint>

#include "util/rng.h"

namespace tpc::finance {

/** Contract parameters of an arithmetic-average Asian call option. */
struct AsianOptionParams
{
    double spot = 100.0;
    double strike = 100.0;
    /** Risk-free rate (annualized). */
    double riskFreeRate = 0.05;
    /** Volatility (annualized). */
    double volatility = 0.2;
    /** Time to maturity in years. */
    double maturityYears = 1.0;
    /** Monitoring points along each path. */
    int steps = 64;
};

/** Result of one pricing request. */
struct PriceResult
{
    double price = 0.0;
    /** Standard error of the Monte Carlo estimate. */
    double standardError = 0.0;
    std::uint64_t paths = 0;
};

/** Prices Asian options by GBM path simulation. */
class MonteCarloPricer
{
  public:
    /**
     * Prices the option over @p paths simulated paths.
     * Deterministic for a given seed.
     */
    PriceResult price(const AsianOptionParams& params, std::uint64_t paths,
                      std::uint64_t seed) const;

    /**
     * Simulates one chunk of paths and returns (sumPayoff, sumPayoffSq).
     * Chunks with distinct seeds are independent, so chunk results add —
     * this is the parallelizable task body.
     */
    void priceChunk(const AsianOptionParams& params, std::uint64_t paths,
                    std::uint64_t seed, double& sumPayoff,
                    double& sumPayoffSq) const;

    /** Combines chunk sums into the discounted price estimate. */
    static PriceResult combine(const AsianOptionParams& params,
                               std::uint64_t totalPaths, double sumPayoff,
                               double sumPayoffSq);

    /**
     * Prices a *European* call (payoff on the terminal price only) by the
     * same GBM simulation. Used to validate the Monte Carlo machinery
     * against the Black-Scholes closed form.
     */
    PriceResult priceEuropean(const AsianOptionParams& params,
                              std::uint64_t paths, std::uint64_t seed) const;
};

/**
 * Black-Scholes closed-form price of the European call with the same
 * contract parameters (steps are irrelevant for the terminal payoff).
 */
double blackScholesCall(const AsianOptionParams& params);

/** Standard normal cumulative distribution function. */
double standardNormalCdf(double x);

/**
 * Analytic service-demand estimator: sequential pricing time is
 * paths x steps x (calibrated per-step cost). The paper notes this
 * estimate is accurate enough that dynamic correction never fires on the
 * finance server.
 */
class DemandEstimator
{
  public:
    /** Calibrates the per-step cost: the median of five timed short
     *  pricing runs. */
    static DemandEstimator calibrate(const MonteCarloPricer& pricer,
                                     const AsianOptionParams& params);

    /** Constructs from a known per-step cost (tests, simulation). */
    explicit DemandEstimator(double nsPerStep);

    /** Estimated sequential pricing time in ms. */
    double estimateMs(std::uint64_t paths, int steps) const;

    double nsPerStep() const { return nsPerStep_; }

  private:
    double nsPerStep_;
};

} // namespace tpc::finance
