/**
 * @file
 * Section 7.5 reproduction: ResNet-20 end-to-end accuracy under
 * analog noise.
 *
 * Substitution (see DESIGN.md): trained CIFAR-10 weights are not
 * available offline, so the experiment measures top-1 *agreement*
 * between noisy analog inference and exact integer inference on the
 * same deterministic network — the paper's claim ("75.4%, matching
 * the accuracy of Baseline") is exactly the statement that noise
 * does not change the outputs. The per-MVM noise sigma is calibrated
 * from the crossbar model itself: we sample a 64x64 crossbar at each
 * noise corner and transfer the measured output error std.
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "BenchUtil.h"
#include "analog/Crossbar.h"
#include "common/Random.h"

namespace
{

using namespace darth;

/** Measured per-sqrt(K) output error of a crossbar at this corner. */
double
calibrateSigma(const reram::NoiseModel &noise, u64 seed)
{
    analog::Crossbar xb(64, 64, 2, noise, seed);
    Rng rng(seed + 1);
    MatrixI m(32, 64);
    for (std::size_t r = 0; r < 32; ++r)
        for (std::size_t c = 0; c < 64; ++c)
            m(r, c) = rng.uniformInt(i64{-3}, i64{3});
    xb.programSigned(m);
    double sq = 0.0;
    int n = 0;
    for (int t = 0; t < 30; ++t) {
        std::vector<int> bits(32);
        std::vector<i64> x(32);
        for (std::size_t i = 0; i < 32; ++i) {
            bits[i] = rng.bernoulli(0.5);
            x[i] = bits[i];
        }
        const auto out = xb.mvmBitInput(bits);
        const auto exact = xb.referenceMvm(x);
        for (std::size_t c = 0; c < 64; ++c) {
            const double e = out[c] - static_cast<double>(exact[c]);
            sq += e * e;
            ++n;
        }
    }
    const double sigma = std::sqrt(sq / n);
    return sigma / std::sqrt(32.0);   // per sqrt(K) of terms
}

} // namespace

int
main()
{
    using namespace darth::bench;

    printHeader("Section 7.5: ResNet-20 accuracy under analog noise");

    cnn::Resnet20 net(42);
    const int inputs = 12;

    struct Corner
    {
        const char *name;
        double programSigma;
        double readSigma;
        double wireR;
    };
    const Corner corners[] = {
        {"ideal", 0.0, 0.0, 0.0},
        {"mild", 0.01, 0.003, 1e-5},
        {"moderate", 0.03, 0.01, 5e-5},
        {"harsh", 0.10, 0.03, 2e-4},
        {"extreme", 0.30, 0.10, 1e-3},
    };

    // Exact top-1 of each input: computed once, compared against
    // every corner's and every stress sigma's noisy forward.
    std::vector<std::size_t> exact(inputs);
    for (int i = 0; i < inputs; ++i)
        exact[i] = cnn::Resnet20::argmax(
            net.infer(cnn::syntheticInput(2000 + i)));
    const auto agreement = [&](const cnn::MvmNoise &mvm_noise) {
        int agree = 0;
        for (int i = 0; i < inputs; ++i)
            agree += exact[i] == cnn::Resnet20::argmax(net.infer(
                                     cnn::syntheticInput(2000 + i),
                                     mvm_noise));
        return 100.0 * agree / inputs;
    };

    std::printf("\n  %-10s %14s %18s\n", "corner", "sigma/sqrt(K)",
                "top-1 agreement");
    bool ideal_ok = true;
    for (const auto &corner : corners) {
        reram::NoiseModel noise;
        noise.programSigma = corner.programSigma;
        noise.readSigma = corner.readSigma;
        noise.wireResistance = corner.wireR;
        const double sigma =
            noise.ideal() ? 0.0 : calibrateSigma(noise, 77);

        Rng noise_rng(1234);
        cnn::MvmNoise mvm_noise;
        mvm_noise.sigmaPerSqrtK = sigma;
        mvm_noise.rng = &noise_rng;

        const double pct = agreement(mvm_noise);
        std::printf("  %-10s %14.3f %15.1f%%\n", corner.name, sigma,
                    pct);
        // Sigma is zero at the ideal corner, so anything short of
        // full agreement is a bug, not noise.
        if (noise.ideal() && pct < 100.0)
            ideal_ok = false;
    }

    // Stress sweep: amplify the transferred noise beyond the device
    // corners to find the breaking point of the int8 network.
    std::printf("\n  stress sweep (direct sigma/sqrt(K)):\n");
    for (double sigma : {1.0, 3.0, 10.0, 30.0}) {
        Rng noise_rng(4321);
        cnn::MvmNoise mvm_noise;
        mvm_noise.sigmaPerSqrtK = sigma;
        mvm_noise.rng = &noise_rng;
        std::printf("  sigma=%-5.1f %29.1f%%\n", sigma,
                    agreement(mvm_noise));
    }
    std::printf("\n  paper: end-to-end accuracy 75.4%% with noise = "
                "the noiseless Baseline accuracy, i.e. 100%% "
                "agreement at the realistic corner\n");
    if (!ideal_ok) {
        std::fprintf(stderr, "sec75: the ideal corner disagrees with "
                             "exact inference\n");
        return 1;
    }
    return 0;
}
