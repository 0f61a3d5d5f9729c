#include "util/rng.h"

#include <cmath>

#include "util/logging.h"

namespace tpc::util {

std::uint64_t
splitmix64Next(std::uint64_t& state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed)
{
    // Seed the full 256-bit state from splitmix64 as recommended by the
    // xoshiro authors; guards against the all-zero state.
    std::uint64_t sm = seed;
    for (auto& word : s_)
        word = splitmix64Next(sm);
    if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0)
        s_[0] = 0x9e3779b97f4a7c15ull;
}

double
Rng::uniform(double lo, double hi)
{
    TPC_DCHECK(lo <= hi);
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t n)
{
    TPC_DCHECK(n > 0);
    // Lemire's nearly-divisionless unbiased bounded generation.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
        const std::uint64_t threshold = (0 - n) % n;
        while (lo < threshold) {
            x = next();
            m = static_cast<__uint128_t>(x) * n;
            lo = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    TPC_DCHECK(lo <= hi);
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(uniformInt(span));
}

double
Rng::normal()
{
    if (hasCachedNormal_) {
        hasCachedNormal_ = false;
        return cachedNormal_;
    }
    // Box-Muller; u1 must be > 0 for the log.
    double u1 = 0.0;
    while (u1 == 0.0)
        u1 = uniform();
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cachedNormal_ = r * std::sin(theta);
    hasCachedNormal_ = true;
    return r * std::cos(theta);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

double
Rng::exponential(double mean)
{
    TPC_DCHECK(mean > 0.0);
    double u = 0.0;
    while (u == 0.0)
        u = uniform();
    return -mean * std::log(u);
}

double
Rng::lognormal(double mu, double sigma)
{
    return std::exp(normal(mu, sigma));
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

int
Rng::poisson(double mean)
{
    TPC_DCHECK(mean >= 0.0);
    if (mean <= 0.0)
        return 0;
    // Knuth's method is fine for the small means used in this library.
    const double limit = std::exp(-mean);
    double product = uniform();
    int count = 0;
    while (product > limit) {
        product *= uniform();
        ++count;
    }
    return count;
}

Rng
Rng::split()
{
    return Rng(next() ^ 0xd1b54a32d192ed03ull);
}

} // namespace tpc::util
