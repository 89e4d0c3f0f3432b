/**
 * @file
 * noise_accuracy: the Section 7.5 study (the sec75 recipe). Set-up
 * calibrates the per-MVM noise sigma at each device corner from a
 * programmed 64x64 crossbar; the timed window runs cnn::Resnet20::infer
 * exact and noisy over a fixed number of inputs per study, and
 * reports the share of (input, corner) pairs whose noisy top-1
 * equals the exact top-1.
 *
 * Chosen because the apps/cnn software model runs in no other timed
 * window (elsewhere it is only a reference check), and simulator
 * physics is absent from the window: a crossbar change must not move
 * it, a Conv2d::forward change must.
 *
 * Output oracles: the ideal corner must calibrate to a negligible
 * sigma (the ideal crossbar is exact up to rounding) and
 * agree on every input, and the exact-path logits must fold to the
 * checksum pinned below — for a fixed anchor input set on every run,
 * and for the run's own inputs when its seed is in the pin table.
 */

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "Common.h"
#include "analog/Crossbar.h"
#include "apps/cnn/Resnet20.h"
#include "common/Fnv.h"
#include "common/Random.h"

namespace perfbench
{

namespace
{

using namespace darth;

/** Inputs per study; each gets one exact and four noisy forwards. */
constexpr std::size_t kInputs = 4;

struct Corner
{
    const char *name;
    double programSigma;
    double readSigma;
    double wireR;
};

/** The sec75 device corners; index 0 is the ideal corner. */
const Corner kCorners[] = {
    {"ideal", 0.0, 0.0, 0.0},
    {"mild", 0.01, 0.003, 1e-5},
    {"moderate", 0.03, 0.01, 5e-5},
    {"harsh", 0.10, 0.03, 2e-4},
    {"extreme", 0.30, 0.10, 1e-3},
};
constexpr std::size_t kNumCorners = sizeof(kCorners) / sizeof(kCorners[0]);

/**
 * Exact-path logits checksums (word-wise FNV-1a over the logits of
 * inputs 0..kInputs-1, in order) pinned at the commit that added the
 * benchmark. kAnchorChecksum covers syntheticInput(2000..2003), the
 * sec75 inputs; kSeedPins covers inputFor(seed, 0..3) for seeds
 * 0..127.
 */
constexpr u64 kAnchorChecksum = 0xbce0d1c065f42088ULL;
const std::map<u64, u64> kSeedPins = {
    {0, 0x1993665c5721fd56ULL}, {1, 0x9d55fd8e91e20ab4ULL},
    {2, 0x9b8d20fd997f7082ULL}, {3, 0xb14c696542836456ULL},
    {4, 0x8003f47f24c7ed9dULL}, {5, 0x4e95b018428477c5ULL},
    {6, 0x1594b7659378abf9ULL}, {7, 0x99c1b32e3b9be335ULL},
    {8, 0xcf8609dd6116ee71ULL}, {9, 0x6281e9e6813f9e64ULL},
    {10, 0x2947f77cc1f95fddULL}, {11, 0xc5b3d6a583ea80d0ULL},
    {12, 0x00fcbce00bb2b71aULL}, {13, 0x0a2630a38d8ebf28ULL},
    {14, 0x9a3c2959cfa57c47ULL}, {15, 0x3cd8d97eaec2d8abULL},
    {16, 0xb65a6c7c0f18ce5fULL}, {17, 0x6759af3c8a2e3f48ULL},
    {18, 0x00bfa4687e3835e6ULL}, {19, 0x53a2375dcc2ddfacULL},
    {20, 0xb44038511a6ee65fULL}, {21, 0x3cd5e59b24a68695ULL},
    {22, 0xb2b5b790cc1f69aeULL}, {23, 0x2e65f1413a5b1ae4ULL},
    {24, 0xa7a98609870c2b7cULL}, {25, 0x20f4e7f98889dd46ULL},
    {26, 0xb8ba3ff3a6a02e04ULL}, {27, 0xecbc294a41170e98ULL},
    {28, 0x0af7c915cd590fb0ULL}, {29, 0xc7f34265ab8c8598ULL},
    {30, 0x6f956eb1dd2e1abeULL}, {31, 0x749517c58861e77fULL},
    {32, 0x728ff8e383329259ULL}, {33, 0xa9c9c8e2ca3823a9ULL},
    {34, 0x49694727b97f13f6ULL}, {35, 0x605276c2805a2237ULL},
    {36, 0x3ff52a074f7cc975ULL}, {37, 0x56ee3bbadce0880fULL},
    {38, 0x4d8e5bcff1056a0cULL}, {39, 0xf67aef946a0a0d4aULL},
    {40, 0x060dc8c9a075f6deULL}, {41, 0xd7398136a5199036ULL},
    {42, 0xe5fd3a9fcc371049ULL}, {43, 0x130e2ba12c92e8daULL},
    {44, 0x5581b0ce94f6bc2fULL}, {45, 0x11b13b76272659d3ULL},
    {46, 0x78465ae4ff26d14dULL}, {47, 0xf4dcb79122f9b600ULL},
    {48, 0x04dbab8d773e1a9fULL}, {49, 0x5d650780f5002426ULL},
    {50, 0xbe7132701756de89ULL}, {51, 0x74fd259956ce7c64ULL},
    {52, 0xbbf9cabf6eedf6d4ULL}, {53, 0x7af13235f65f8cc3ULL},
    {54, 0x33bebdc0953cdea0ULL}, {55, 0x6cd716b7773a8cd5ULL},
    {56, 0x55710fbcd6fb581dULL}, {57, 0xfd4b45aa18ebfc22ULL},
    {58, 0x6132c1b56588a307ULL}, {59, 0x2e29b82b89b13957ULL},
    {60, 0xc2b49e940e216686ULL}, {61, 0x19fb8fea31d9ab4fULL},
    {62, 0xc9a664ac1cfbbbd3ULL}, {63, 0x3319b1855ccf962aULL},
    {64, 0xf412d38eacc4384bULL}, {65, 0x08d62510f89f5283ULL},
    {66, 0xa390b71927cefd75ULL}, {67, 0xc8e45fbd2e30f8cdULL},
    {68, 0x775b72b1f7fa7a27ULL}, {69, 0x914151e855ef28ebULL},
    {70, 0x50a3335afebaeb37ULL}, {71, 0xb003eb85f36d32c9ULL},
    {72, 0x9107d950bb09e7acULL}, {73, 0x81033aabbda3f978ULL},
    {74, 0x2bf03aaa38dd0ee9ULL}, {75, 0x2eca7a157fe28513ULL},
    {76, 0xf8261edb02457be4ULL}, {77, 0x8a125afddab6ccb6ULL},
    {78, 0x812ef2d681e48d12ULL}, {79, 0xcadfe0e384744834ULL},
    {80, 0xb4b7aa04c021dddbULL}, {81, 0xb8ab1befbcb285c0ULL},
    {82, 0x58ecbe99c036568dULL}, {83, 0x7919fafc252d3727ULL},
    {84, 0x56977f894a59701fULL}, {85, 0xeca8c7bee569f7f1ULL},
    {86, 0xf069e36d10b7cbe5ULL}, {87, 0xf8fdfe21b7725997ULL},
    {88, 0xbb8594a68d5d4219ULL}, {89, 0x1dbd8321f4105655ULL},
    {90, 0x6dd21b3b9d11ee66ULL}, {91, 0x614269e774ae8fc5ULL},
    {92, 0x36f8555c2a4df394ULL}, {93, 0xd3bc95fa00d0c764ULL},
    {94, 0x670b0854c1ab5a3aULL}, {95, 0xc563ae704734dcd6ULL},
    {96, 0xd5b9efc798b8295aULL}, {97, 0xaf11416b25bd2f05ULL},
    {98, 0x2d7caae1643864b5ULL}, {99, 0x54276f8bccc218e9ULL},
    {100, 0x2f71b3c78c8b7c06ULL}, {101, 0xc241a95ae0d74afbULL},
    {102, 0x4369c1ed01744f63ULL}, {103, 0x599db97cb50e415bULL},
    {104, 0x0e69306886bd0c3fULL}, {105, 0x714f2c262143e938ULL},
    {106, 0x461e4574bc6248b1ULL}, {107, 0x677b7f2122bf4594ULL},
    {108, 0x5b3e5deefddbc64eULL}, {109, 0x6b834566c06e4256ULL},
    {110, 0xc3a0c7af18246817ULL}, {111, 0xcf4bf806c80ba254ULL},
    {112, 0xf192384615f73cc3ULL}, {113, 0x92620a0aeb293255ULL},
    {114, 0x1552f7c5ac3344c6ULL}, {115, 0xed5191d45c40483dULL},
    {116, 0x8a19a314c31fdca4ULL}, {117, 0xc459099a66de765dULL},
    {118, 0x974c732fd7f05ccdULL}, {119, 0xeba13b599c23de56ULL},
    {120, 0xc0786d8c75ac300eULL}, {121, 0x2b1b28f962ea6798ULL},
    {122, 0x2ca806cebd55d227ULL}, {123, 0xf731c4b7dc977a0cULL},
    {124, 0x5f7f467ccba77320ULL}, {125, 0xb2924411bec46bcaULL},
    {126, 0x5933b1094408eb90ULL}, {127, 0x56b4acd4137f73b8ULL},
};

/** Measured per-sqrt(K) output error of a crossbar at one corner
 *  (the sec75 calibration, over the public Crossbar API). */
double
calibrateSigma(const Corner &corner, u64 seed)
{
    reram::NoiseModel noise;
    noise.programSigma = corner.programSigma;
    noise.readSigma = corner.readSigma;
    noise.wireResistance = corner.wireR;
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
    return std::sqrt(sq / n) / std::sqrt(32.0);
}

cnn::Tensor
inputFor(u64 seed, std::size_t i)
{
    return cnn::syntheticInput(seed * 1000003ULL + 7 + i);
}

u64
exactChecksum(const cnn::Resnet20 &net, const std::vector<cnn::Tensor> &in)
{
    u64 hash = kFnvOffsetBasis;
    for (const cnn::Tensor &t : in)
        hash = fnv1aWords(net.infer(t), hash);
    return hash;
}

struct Study
{
    double cpu = 0.0;
    std::vector<double> exactCpu;
    std::vector<double> noisyCpu;
    /** Forwards per reference-host CPU second, one per input. */
    std::vector<double> inputRates;
    /** Host probe speed while each input's forwards ran. */
    std::vector<double> hostSpeeds;
    std::map<std::string, double> sim;
    u64 exactHash = 0;
};

/** One study over the seed's inputs at the device corners. */
Study
runStudy(const cnn::Resnet20 &net, u64 seed,
         const std::vector<double> &sigma, Tracer &tracer)
{
    Study s;
    std::vector<Rng> rngs;
    for (std::size_t k = 0; k < kNumCorners; ++k)
        rngs.emplace_back(seed * 31 + 1234 + k);
    std::size_t agree = 0, pairs = 0;
    s.exactHash = kFnvOffsetBasis;
    for (std::size_t i = 0; i < kInputs; ++i) {
        const cnn::Tensor input = inputFor(seed, i);
        meter::Interval group;
        group.start = cpuSeconds();
        double f0 = group.start;
        std::vector<i64> exact;
        {
            ScopedSpan span(tracer, "apps.exact_forward");
            exact = net.infer(input);
        }
        s.exactCpu.push_back(cpuSeconds() - f0);
        s.exactHash = fnv1aWords(exact, s.exactHash);
        const std::size_t top = cnn::Resnet20::argmax(exact);
        for (std::size_t k = 1; k < kNumCorners; ++k) {
            cnn::MvmNoise noise;
            noise.sigmaPerSqrtK = sigma[k];
            noise.rng = &rngs[k];
            f0 = cpuSeconds();
            std::vector<i64> noisy;
            {
                ScopedSpan span(tracer, "apps.noisy_forward");
                noisy = net.infer(input, noise);
            }
            s.noisyCpu.push_back(cpuSeconds() - f0);
            agree += cnn::Resnet20::argmax(noisy) == top;
            ++pairs;
        }
        group.end = cpuSeconds();
        s.cpu += group.end - group.start;
        s.inputRates.push_back(meter::normalizedRate(
            static_cast<double>(kNumCorners), group));
        s.hostSpeeds.push_back(meter::speed(group));
    }
    s.sim["sim_top1_agreement"] =
        static_cast<double>(agree) / static_cast<double>(pairs);
    s.sim["exact_hash_hi"] = static_cast<double>(s.exactHash >> 32);
    s.sim["exact_hash_lo"] =
        static_cast<double>(s.exactHash & 0xffffffffu);
    return s;
}

/** Ideal corner: every input's top-1 must survive unchanged. */
bool
idealCornerAgrees(const cnn::Resnet20 &net, u64 seed, double sigma)
{
    Rng rng(seed);
    cnn::MvmNoise noise;
    noise.sigmaPerSqrtK = sigma;
    noise.rng = &rng;
    for (std::size_t i = 0; i < kInputs; ++i) {
        const cnn::Tensor input = inputFor(seed, i);
        if (cnn::Resnet20::argmax(net.infer(input)) !=
            cnn::Resnet20::argmax(net.infer(input, noise)))
            return false;
    }
    return true;
}

std::string
hex(u64 v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

void
runNoise(const Options &opt, Tracer &tracer, Result &r)
{
    const double t0 = cpuSeconds();
    const cnn::Resnet20 net(42);
    const double c0 = cpuSeconds();
    std::vector<double> sigma;
    for (std::size_t k = 0; k < kNumCorners; ++k)
        sigma.push_back(calibrateSigma(kCorners[k], 77));
    const double calibrate_cpu = cpuSeconds() - c0;
    if (opt.mode == "setup") {
        const double setup = cpuSeconds() - t0;
        r.metrics["setup_s"] = meter::normalizedSeconds(setup);
        r.info["setup_s_raw"] = setup;
        r.attempted = 1;
        return;
    }

    DeterminismCheck det;
    std::vector<double> rates, raw_rates, speeds;
    double window = 0.0;
    double trace_overhead = 0.0;
    Study first;
    const double forwards =
        static_cast<double>(kInputs * kNumCorners);
    if (opt.mode == "trace") {
        // One untraced study, then the traced one; their normalised
        // rates differ by the tracer's cost.
        Tracer off(false);
        const Study plain = runStudy(net, opt.seed, sigma, off);
        det.add(plain.sim);
        first = runStudy(net, opt.seed, sigma, tracer);
        det.add(first.sim);
        trace_overhead =
            median(plain.inputRates) / median(first.inputRates) - 1.0;
    } else {
        meter::start();
        while (det.passes() < 3 || window < opt.seconds) {
            Study s = runStudy(net, opt.seed, sigma, tracer);
            det.add(s.sim);
            window += s.cpu;
            rates.insert(rates.end(), s.inputRates.begin(),
                         s.inputRates.end());
            speeds.insert(speeds.end(), s.hostSpeeds.begin(),
                          s.hostSpeeds.end());
            raw_rates.push_back(forwards / s.cpu);
            if (det.passes() == 1)
                first = std::move(s);
        }
        meter::stop();
    }
    det.report(r, "");

    // Output oracles, outside the window.
    const double ref0 = cpuSeconds();
    r.attempted = kInputs;
    // The ideal crossbar is exact up to floating-point rounding.
    r.check("ideal_corner_sigma_negligible", sigma[0] < 1e-9,
            "calibrated sigma " + std::to_string(sigma[0]));
    const bool ideal_ok = idealCornerAgrees(net, opt.seed, sigma[0]);
    r.check("ideal_corner_agrees", ideal_ok);
    std::vector<cnn::Tensor> anchor;
    for (u64 i = 0; i < kInputs; ++i)
        anchor.push_back(cnn::syntheticInput(2000 + i));
    const u64 anchor_hash = exactChecksum(net, anchor);
    const bool anchor_ok = anchor_hash == kAnchorChecksum;
    r.check("exact_logits_anchor_pin", anchor_ok, hex(anchor_hash));
    const auto pin = kSeedPins.find(opt.seed);
    bool seed_ok = true;
    if (pin != kSeedPins.end()) {
        seed_ok = first.exactHash == pin->second;
        r.check("exact_logits_seed_pin", seed_ok, hex(first.exactHash));
    }
    r.info["seed_pinned"] = pin != kSeedPins.end() ? 1.0 : 0.0;
    if (!ideal_ok || !anchor_ok || !seed_ok)
        r.failed = kInputs;

    // Held-out seed: its ideal corner must agree on every input too.
    const u64 held = opt.seed ^ 0x9E3779B97F4A7C15ULL;
    const bool held_ok = idealCornerAgrees(net, held, sigma[0]);
    r.check("held_out.ideal_corner_agrees", held_ok);
    r.attempted += kInputs;
    r.failed += held_ok ? 0 : kInputs;
    const double reference_cpu = cpuSeconds() - ref0;

    if (opt.mode == "measure") {
        r.metrics["requests_per_cpu_s"] = median(rates);
        r.info["requests_per_cpu_s_raw"] = median(raw_rates);
        r.info["host_speed"] = median(speeds);
    }
    r.metrics["peak_rss_mb"] = peakRssMb();
    r.metrics["sim_top1_agreement"] = first.sim.at("sim_top1_agreement");
    r.info["studies"] = static_cast<double>(det.passes());
    r.info["window_cpu_s"] = window;
    for (std::size_t k = 0; k < kNumCorners; ++k)
        r.info[std::string("sigma.") + kCorners[k].name] = sigma[k];

    if (opt.mode != "trace")
        return;
    u64 macs = 0;
    for (const cnn::LayerStats &l : net.layerStats())
        macs += l.macs;
    r.metrics["apps.exact_forward_cpu_s"] = median(first.exactCpu);
    r.metrics["apps.noisy_forward_cpu_s"] = median(first.noisyCpu);
    r.metrics["apps.calibrate_cpu_s"] = calibrate_cpu;
    r.metrics["apps.macs_per_cpu_s"] =
        static_cast<double>(macs) / median(first.exactCpu);
    r.metrics["apps.reference_cpu_s"] = reference_cpu;
    r.metrics["trace.overhead_frac"] = trace_overhead;
    // The window calls only the software model; its spans cover all
    // but the loop's own bookkeeping.
    double forwards_cpu = 0.0;
    for (double c : first.exactCpu)
        forwards_cpu += c;
    for (double c : first.noisyCpu)
        forwards_cpu += c;
    r.metrics["share.analog_hct"] = 0.0;
    r.metrics["share.serve_journal"] = 0.0;
    r.metrics["share.apps_software"] = forwards_cpu / first.cpu;
    r.metrics["unattributed_frac"] = 1.0 - forwards_cpu / first.cpu;
}

} // namespace perfbench
