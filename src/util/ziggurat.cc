#include "util/ziggurat.h"

namespace tpc::util {

namespace {

/** Area of each layer for kLayers = 128 and kTailStart (Doornik 2005). */
constexpr double kLayerArea = 9.91256303526217e-3;

/** Uniform in (0, 1], safe to take the log of. */
double
openUniform(Rng& rng)
{
    return static_cast<double>((rng.next() >> 11) + 1) * 0x1.0p-53;
}

} // namespace

ZigguratNormal::Tables
ZigguratNormal::Tables::build()
{
    Tables t{};
    double f = std::exp(-0.5 * kTailStart * kTailStart);
    t.x[0] = kLayerArea / f;
    t.x[1] = kTailStart;
    t.f[1] = f;
    // Each layer's rectangle has the same area: x[i-1] * (f(x[i]) - f(x[i-1]))
    // = kLayerArea, solved for x[i] going up the density.
    for (int i = 2; i < kLayers; ++i) {
        t.x[i] = std::sqrt(-2.0 * std::log(kLayerArea / t.x[i - 1] + f));
        f = std::exp(-0.5 * t.x[i] * t.x[i]);
        t.f[i] = f;
    }
    t.x[kLayers] = 0.0;
    t.f[kLayers] = 1.0;
    for (int i = 0; i < kLayers; ++i)
        t.ratio[i] = t.x[i + 1] / t.x[i];
    return t;
}

const ZigguratNormal::Tables ZigguratNormal::kTables =
    ZigguratNormal::Tables::build();

double
ZigguratNormal::slowPath(unsigned layer, double u)
{
    if (layer == 0)
        return tail(u < 0.0);
    // Wedge: accept when a uniform height inside the rectangle
    // [0, x[layer]] x [f[layer], f[layer + 1]] falls under the curve.
    const double x = u * kTables.x[layer];
    const double height =
        kTables.f[layer] +
        rng_.uniform() * (kTables.f[layer + 1] - kTables.f[layer]);
    if (height < std::exp(-0.5 * x * x))
        return x;
    // Rejected (about 1.2% of all draws); start over.
    return (*this)();
}

double
ZigguratNormal::tail(bool negative)
{
    // Marsaglia (1964): x = -ln(U1) / r is exponential beyond r; accept
    // it with probability exp(-x^2 / 2) via a second exponential.
    double x;
    double y;
    do {
        x = -std::log(openUniform(rng_)) / kTailStart;
        y = -std::log(openUniform(rng_));
    } while (2.0 * y < x * x);
    return negative ? -(kTailStart + x) : kTailStart + x;
}

} // namespace tpc::util
