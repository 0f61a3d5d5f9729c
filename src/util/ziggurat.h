/**
 * @file
 * Table-driven standard normal sampler (ziggurat).
 *
 * Doornik's ZIGNOR form of Marsaglia and Tsang's ziggurat: the right half
 * of the density is covered by 128 equal-area layers (127 rectangles
 * plus a base strip whose overhang is the tail). One 64-bit draw picks a
 * layer from its low 7 bits and a signed uniform from its top 53 bits, so
 * the two never share bits; when the point falls inside the layer's
 * rectangle (about 97% of draws) it is returned at once. Otherwise the
 * sampler tests the wedge under the density curve, or, in the base
 * layer, draws from the tail beyond kTailStart by Marsaglia's exact
 * method.
 *
 * Several times cheaper per normal than Box-Muller (no log/sqrt/sin/cos
 * on the common path). The stream it produces differs from Rng::normal(),
 * which keeps Box-Muller because every workload and trace generator and
 * every committed simulation figure is defined by that stream.
 */
#pragma once

#include <cmath>
#include <cstdint>

#include "util/rng.h"

namespace tpc::util {

/** Draws standard normal deviates from a caller-owned Rng stream. */
class ZigguratNormal
{
  public:
    /** Number of layers; the low bits of a draw select one. */
    static constexpr int kLayers = 128;
    /** Right edge of the base layer's rectangle, where the tail starts. */
    static constexpr double kTailStart = 3.442619855899;

    explicit ZigguratNormal(Rng& rng) : rng_(rng) {}

    /** Returns the next standard normal deviate. */
    double operator()()
    {
        const std::uint64_t bits = rng_.next();
        const auto layer = static_cast<unsigned>(bits & (kLayers - 1));
        // Top 53 bits -> uniform in [-1, 1).
        const double u = static_cast<double>(bits >> 11) * 0x1.0p-52 - 1.0;
        if (std::abs(u) < kTables.ratio[layer])
            return u * kTables.x[layer];
        return slowPath(layer, u);
    }

  private:
    /** Layer geometry, built once during static initialisation and
     *  read-only afterwards, so concurrent samplers share it freely. Do
     *  not draw from a sampler in another file's static initialiser. */
    struct Tables
    {
        /** x[i]: right edge of layer i's rectangle; x[0] is the base
         *  strip's width (area / f(kTailStart)), x[kLayers] = 0. */
        double x[kLayers + 1];
        /** ratio[i] = x[i + 1] / x[i]: |u| below it lies in the
         *  rectangle wholly under the density. */
        double ratio[kLayers];
        /** f[i] = exp(-x[i]^2 / 2) for i >= 1 (unnormalised density). */
        double f[kLayers + 1];

        static Tables build();
    };

    /** Wedge test or tail draw for a point outside its rectangle;
     *  starts over with a fresh draw when the point is rejected. */
    double slowPath(unsigned layer, double u);

    /** Marsaglia's exact sampler for |x| > kTailStart. */
    double tail(bool negative);

    static const Tables kTables;

    Rng& rng_;
};

} // namespace tpc::util
