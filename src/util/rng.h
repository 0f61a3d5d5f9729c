/**
 * @file
 * Deterministic pseudo-random number generation for the TPC library.
 *
 * Every stochastic component in the library (workload generation, arrival
 * processes, simulation jitter, predictor noise) draws from an explicitly
 * seeded Rng so that experiments are reproducible run-to-run. The generator
 * is xoshiro256** seeded through splitmix64, which is fast, has a 256-bit
 * state, and passes BigCrush.
 */
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

namespace tpc::util {

/** Advances a splitmix64 state and returns the next 64-bit output. */
std::uint64_t splitmix64Next(std::uint64_t& state);

/**
 * A small, fast, explicitly seeded random number generator (xoshiro256**).
 *
 * Satisfies the C++ UniformRandomBitGenerator concept, so it can also be
 * used with <random> distributions when convenient.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Constructs the generator from a 64-bit seed via splitmix64. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max()
    {
        return std::numeric_limits<result_type>::max();
    }

    /** Returns the next 64 raw bits. */
    result_type operator()() { return next(); }

    /** Returns the next 64 raw bits. Inline: hot loops (the Monte Carlo
     *  pricer's normal draws) call it once per sample. */
    std::uint64_t next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Returns a double uniform in [0, 1). */
    double uniform()
    {
        // 53 random mantissa bits -> uniform double in [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Returns a double uniform in [lo, hi). Requires lo <= hi. */
    double uniform(double lo, double hi);

    /** Returns an integer uniform in [0, n) using Lemire's method. n > 0. */
    std::uint64_t uniformInt(std::uint64_t n);

    /** Returns an integer uniform in [lo, hi] inclusive. Requires lo <= hi. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Returns a standard normal deviate (Box-Muller with caching). */
    double normal();

    /** Returns a normal deviate with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Returns an exponential deviate with the given mean. mean > 0. */
    double exponential(double mean);

    /**
     * Returns a lognormal deviate where the underlying normal has parameters
     * (mu, sigma); the median of the result is exp(mu).
     */
    double lognormal(double mu, double sigma);

    /** Returns true with probability p (clamped to [0, 1]). */
    bool bernoulli(double p);

    /** Returns a Poisson deviate with the given mean (mean < ~700). */
    int poisson(double mean);

    /** Creates an independent generator derived from this one's stream. */
    Rng split();

  private:
    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
    double cachedNormal_ = 0.0;
    bool hasCachedNormal_ = false;
};

} // namespace tpc::util
