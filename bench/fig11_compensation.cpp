/**
 * @file
 * Figure 11 / §4.3 reproduction: the parasitic compensation scheme —
 * binary remapping, compensation factor, and the measured IR-drop
 * error with and without the scheme on real crossbars.
 */

#include <cmath>
#include <cstdio>

#include "BenchUtil.h"
#include "analog/Compensation.h"
#include "analog/Crossbar.h"
#include "apps/aes/MixColumnsGf2.h"
#include "common/Random.h"

namespace
{

using namespace darth;

/** Max |error| in LSB of one stored matrix under IR drop. */
double
maxError(const MatrixI &m, double wire_r, u64 seed, int trials)
{
    reram::NoiseModel noise;
    noise.wireResistance = wire_r;
    analog::Crossbar xb(64, m.cols(), 1, noise, seed);
    xb.programSigned(m);
    Rng rng(seed + 1);
    double worst = 0.0;
    for (int t = 0; t < trials; ++t) {
        std::vector<int> bits(m.rows());
        std::vector<i64> x(m.rows());
        for (std::size_t i = 0; i < m.rows(); ++i) {
            bits[i] = rng.bernoulli(0.5);
            x[i] = bits[i];
        }
        const auto out = xb.mvmBitInput(bits);
        const auto exact = xb.referenceMvm(x);
        for (std::size_t c = 0; c < m.cols(); ++c)
            worst = std::max(worst,
                             std::abs(out[c] - static_cast<double>(
                                                   exact[c])));
    }
    return worst;
}

} // namespace

int
main()
{
    using namespace darth::bench;

    printHeader("Figure 11 / Section 4.3: parasitic compensation");

    // (a) Functional walkthrough on the figure's 3x3 example.
    MatrixI m01(3, 3);
    m01(0, 0) = 1; m01(0, 1) = 0; m01(0, 2) = 1;
    m01(1, 0) = 0; m01(1, 1) = 1; m01(1, 2) = 1;
    m01(2, 0) = 0; m01(2, 1) = 0; m01(2, 2) = 0;
    const std::vector<i64> x = {1, 1, 0};
    const i64 factor = analog::Compensation::compensationFactor(x);
    const MatrixI remapped = analog::Compensation::remapBinary(m01);
    std::printf("\n  input x = (1,1,0), compensation factor P = %lld "
                "(paper: 2 x 0.5 in normalized units)\n",
                static_cast<long long>(factor));
    std::printf("  %-8s %-10s %-10s %-10s\n", "output", "exact y",
                "raw 2y-P", "recovered");
    for (std::size_t c = 0; c < 3; ++c) {
        i64 y = 0, raw = 0;
        for (std::size_t r = 0; r < 3; ++r) {
            y += m01(r, c) * x[r];
            raw += remapped(r, c) * x[r];
        }
        std::printf("  col %zu    %-10lld %-10lld %-10lld\n", c,
                    static_cast<long long>(y),
                    static_cast<long long>(raw),
                    static_cast<long long>(
                        analog::Compensation::recover(raw, factor)));
    }

    // (b) Measured IR-drop error for the AES MixColumns matrix:
    // naive 0/1 storage vs the ±1 remap, and for a sign-balanced
    // dense matrix (where the remap's current cancellation shows).
    const MatrixI mixcols = aes::mixColumnsGf2Matrix();
    const MatrixI mixcols_remap =
        analog::Compensation::remapBinary(mixcols);

    Rng rng(9);
    MatrixI balanced(32, 32);
    for (std::size_t r = 0; r < 32; ++r)
        for (std::size_t c = 0; c < 32; ++c)
            balanced(r, c) = static_cast<i64>((r + c) % 2);
    const MatrixI balanced_remap =
        analog::Compensation::remapBinary(balanced);

    std::printf("\n  max |error| (ADC LSB) vs bitline wire "
                "resistance:\n");
    std::printf("  %-12s %14s %14s %14s %14s\n", "R_wire",
                "MixCols 0/1", "MixCols ±1", "balanced 0/1",
                "balanced ±1");
    for (double wr : {2e-5, 5e-5, 1e-4, 2e-4}) {
        std::printf("  %-12.0e %14.3f %14.3f %14.3f %14.3f\n", wr,
                    maxError(mixcols, wr, 11, 20),
                    maxError(mixcols_remap, wr, 11, 20),
                    maxError(balanced, wr, 12, 20),
                    maxError(balanced_remap, wr, 12, 20));
    }
    std::printf("\n  note: in this first-order IR model the ±1 remap "
                "cancels wire current only when the stored signs are "
                "balanced; the sparse MixColumns matrix relies on the "
                "compensation factor + low wire resistance instead "
                "(see docs/benchmarks.md, Parameter substitutions).\n");
    return 0;
}
