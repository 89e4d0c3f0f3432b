/**
 * @file
 * Tests for the CNN substrate: tensors, layers, ResNet-20 topology,
 * noise injection, and the DARTH mapper costs.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "apps/cnn/CnnMapper.h"
#include "apps/cnn/Resnet20.h"
#include "apps/cnn/TinyCnn.h"

namespace darth
{
namespace cnn
{
namespace
{

TEST(Tensor, IndexingRoundTrip)
{
    Tensor t(2, 3, 4);
    t.at(1, 2, 3) = 42;
    EXPECT_EQ(t.at(1, 2, 3), 42);
    EXPECT_EQ(t.size(), 24u);
    EXPECT_DEATH((void)t.at(2, 0, 0), "out of range");
}

TEST(Conv2d, IdentityKernelPassesThrough)
{
    // 1x1 conv, single channel, weight 1, no bias, no shift.
    Conv2d conv("id", 1, 1, 1, 1, 0);
    conv.setRequantShift(0);
    // weightMatrix is 1x1; set it via initRandom replacement:
    // directly exercise forward with the zero weights -> zeros.
    Tensor in(1, 2, 2);
    in.at(0, 0, 0) = 5;
    const Tensor out = conv.forward(in);
    EXPECT_EQ(out.at(0, 0, 0), 0);   // zero weights
}

TEST(Conv2d, StatsMatchShape)
{
    Conv2d conv("c", 16, 32, 3, 2, 1);
    const LayerStats s = conv.stats(32, 32);
    EXPECT_EQ(s.mvmRows, 16u * 9u);
    EXPECT_EQ(s.mvmCols, 32u);
    EXPECT_EQ(s.mvmCount, 16u * 16u);
    EXPECT_EQ(s.macs, 144ull * 32 * 256);
    EXPECT_EQ(s.outputElems, 32ull * 16 * 16);
}

TEST(Conv2d, ForwardMatchesDirectConvolution)
{
    Rng rng(501);
    Conv2d conv("c", 2, 3, 3, 1, 1);
    conv.initRandom(rng);
    conv.setRequantShift(0);
    Tensor in(2, 4, 4);
    for (auto &v : in.data())
        v = static_cast<i32>(rng.uniformInt(i64{-3}, i64{3}));
    const Tensor out = conv.forward(in);
    // Direct dense convolution cross-check at one position.
    const auto &w = conv.weightMatrix();
    for (std::size_t oc = 0; oc < 3; ++oc) {
        i64 acc = 0;
        std::size_t idx = 0;
        for (std::size_t ic = 0; ic < 2; ++ic)
            for (i64 ky = -1; ky <= 1; ++ky)
                for (i64 kx = -1; kx <= 1; ++kx) {
                    const i64 y = 1 + ky, x = 1 + kx;
                    const i64 v =
                        (y < 0 || y >= 4 || x < 0 || x >= 4)
                            ? 0
                            : in.at(ic, static_cast<std::size_t>(y),
                                    static_cast<std::size_t>(x));
                    acc += v * w(idx++, oc);
                }
        // forward adds bias then clamps.
        const i64 expect = acc;
        const i64 got = out.at(oc, 1, 1);
        EXPECT_NEAR(static_cast<double>(got),
                    static_cast<double>(expect), 8.0);
    }
}

TEST(Layers, ReluClampsNegatives)
{
    Tensor t(1, 1, 3);
    t.at(0, 0, 0) = -5;
    t.at(0, 0, 1) = 0;
    t.at(0, 0, 2) = 7;
    relu(t);
    EXPECT_EQ(t.at(0, 0, 0), 0);
    EXPECT_EQ(t.at(0, 0, 1), 0);
    EXPECT_EQ(t.at(0, 0, 2), 7);
}

TEST(Layers, GlobalAvgPool)
{
    Tensor t(2, 2, 2);
    for (std::size_t i = 0; i < 4; ++i)
        t.data()[i] = 4;          // channel 0 average 4
    for (std::size_t i = 4; i < 8; ++i)
        t.data()[i] = static_cast<i32>(i);   // 4,5,6,7 -> 5
    const auto pooled = globalAvgPool(t);
    EXPECT_EQ(pooled[0], 4);
    EXPECT_EQ(pooled[1], 5);
}

TEST(Layers, ResidualAddClamps)
{
    Tensor a(1, 1, 2), b(1, 1, 2);
    a.at(0, 0, 0) = 120;
    b.at(0, 0, 0) = 100;
    a.at(0, 0, 1) = -3;
    b.at(0, 0, 1) = -5;
    addResidual(a, b);
    EXPECT_EQ(a.at(0, 0, 0), 127);
    EXPECT_EQ(a.at(0, 0, 1), -8);
}

TEST(Resnet20, TopologyMatchesFigure15)
{
    Resnet20 net(42);
    const auto stats = net.layerStats();
    // c1 + 3 stages x (3 blocks x 2 convs) + 2 downsamples + fc = 22.
    EXPECT_EQ(stats.size(), 22u);
    EXPECT_EQ(stats.front().name, "c1-Conv1");
    EXPECT_EQ(stats.back().name, "Seq-b4-Seq");
    // Downsample layers exist for stages 2 and 3.
    int ds = 0;
    for (const auto &s : stats)
        ds += s.name.find("-ds") != std::string::npos;
    EXPECT_EQ(ds, 2);
}

TEST(Resnet20, TotalMacsInExpectedRange)
{
    Resnet20 net(42);
    u64 macs = 0;
    for (const auto &s : net.layerStats())
        macs += s.macs;
    // Standard ResNet-20 is ~40.5M MACs.
    EXPECT_GT(macs, 35'000'000ull);
    EXPECT_LT(macs, 46'000'000ull);
}

TEST(Resnet20, InferenceIsDeterministic)
{
    Resnet20 net(42);
    const Tensor input = syntheticInput(1);
    const auto a = net.infer(input);
    const auto b = net.infer(input);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), 10u);
}

TEST(Resnet20, DifferentInputsGiveDifferentLogits)
{
    Resnet20 net(42);
    const auto a = net.infer(syntheticInput(1));
    const auto b = net.infer(syntheticInput(2));
    EXPECT_NE(a, b);
}

TEST(Resnet20, MildNoiseKeepsArgmaxAgreement)
{
    // The §7.5 property: analog noise at realistic levels must not
    // change the classification for most inputs.
    Resnet20 net(42);
    Rng noise_rng(99);
    MvmNoise noise;
    noise.sigmaPerSqrtK = 0.3;
    noise.rng = &noise_rng;
    int agree = 0;
    const int n = 10;
    for (int i = 0; i < n; ++i) {
        const Tensor input = syntheticInput(1000 + i);
        const auto exact = Resnet20::argmax(net.infer(input));
        const auto noisy = Resnet20::argmax(net.infer(input, noise));
        agree += exact == noisy;
    }
    EXPECT_GE(agree, 8);
}

TEST(Resnet20, ExtremeNoiseBreaksAgreement)
{
    // Failure injection: absurd noise must visibly corrupt logits.
    Resnet20 net(42);
    Rng noise_rng(100);
    MvmNoise noise;
    noise.sigmaPerSqrtK = 200.0;
    noise.rng = &noise_rng;
    const Tensor input = syntheticInput(5);
    EXPECT_NE(net.infer(input), net.infer(input, noise));
}

TEST(CnnMapper, LayerCostPositiveAndScales)
{
    const auto cfg = hct::HctConfig::paperDefault(analog::AdcKind::Sar);
    CnnMapper mapper(cfg);
    Resnet20 net(42);
    const auto stats = net.layerStats();
    const auto small = mapper.layerCost(stats.back());    // FC
    const auto large = mapper.layerCost(stats[1]);        // big conv
    EXPECT_GT(small.latency, 0u);
    EXPECT_GT(large.latency, small.latency);
    EXPECT_GT(large.energy, small.energy);
    EXPECT_GE(large.hctsUsed, 1u);
}

TEST(CnnMapper, HybridBeatsDigitalOnlyOnConvLayers)
{
    const auto cfg = hct::HctConfig::paperDefault(analog::AdcKind::Sar);
    CnnMapper mapper(cfg);
    Resnet20 net(42);
    const auto stats = net.layerStats();
    const auto hybrid = mapper.networkCost(stats);
    const auto digital = mapper.digitalNetworkCost(stats);
    EXPECT_LT(hybrid.latency, digital.latency);
    EXPECT_LT(hybrid.energy, digital.energy);
}

/** im2col patches times the weight matrix: the graph path's MVMs. */
std::vector<std::vector<i64>>
im2colAccumulators(const Conv2d &conv, const Tensor &in)
{
    const auto &w = conv.weightMatrix();
    std::vector<std::vector<i64>> accs;
    for (const auto &patch : conv.im2colPatches(in)) {
        EXPECT_EQ(patch.size(), w.rows());
        std::vector<i64> acc(w.cols(), 0);
        for (std::size_t oc = 0; oc < w.cols(); ++oc)
            for (std::size_t i = 0; i < patch.size(); ++i)
                acc[oc] += patch[i] * w(i, oc);
        accs.push_back(std::move(acc));
    }
    return accs;
}

TEST(Conv2d, Im2colAndAssembleReproduceForward)
{
    // forward() convolves directly; the graph path streams im2col
    // patches and runs assembleFromAccs(). Both must agree bit for bit
    // with each other and with an epilogue written out here, exact and
    // under noise (which pins the (oy, ox, oc) draw order), across
    // kernel, stride, padding, ragged shapes, and 1/16 channels.
    struct Case
    {
        std::size_t cin, cout, kernel, stride, pad, h, w;
    };
    const Case cases[] = {
        {2, 3, 3, 1, 1, 4, 4},   {1, 1, 3, 1, 1, 5, 7},
        {1, 16, 3, 2, 1, 8, 8},  {16, 1, 3, 2, 0, 5, 7},
        {16, 16, 3, 1, 0, 8, 8}, {3, 5, 1, 1, 0, 5, 7},
        {16, 4, 1, 2, 0, 8, 8},  {4, 16, 1, 2, 1, 5, 7},
        {5, 7, 3, 2, 1, 7, 5},   {1, 16, 3, 1, 1, 1, 1},
    };
    Rng rng(601);
    for (const Case &c : cases) {
        SCOPED_TRACE(::testing::Message()
                     << "cin=" << c.cin << " cout=" << c.cout
                     << " k=" << c.kernel << " s=" << c.stride
                     << " p=" << c.pad << " in=" << c.h << "x" << c.w);
        Conv2d conv("c", c.cin, c.cout, c.kernel, c.stride, c.pad);
        conv.initRandom(rng);
        Tensor in(c.cin, c.h, c.w);
        for (auto &v : in.data()) {
            const i64 pick = rng.uniformInt(i64{0}, i64{5});
            v = pick == 0   ? 0
                : pick == 1 ? 127
                : pick == 2 ? -127
                            : static_cast<i32>(
                                  rng.uniformInt(i64{-127}, i64{127}));
        }
        const std::size_t out_h = conv.outSize(c.h);
        const std::size_t out_w = conv.outSize(c.w);
        const auto accs = im2colAccumulators(conv, in);
        ASSERT_EQ(accs.size(), out_h * out_w);

        // Bias per channel: a zero input at shift 0 leaves exactly it.
        const int shift = conv.requantShift();
        conv.setRequantShift(0);
        const Tensor bias = conv.forward(Tensor(c.cin, c.h, c.w));
        conv.setRequantShift(shift);

        for (const double sigma : {0.0, 0.7}) {
            SCOPED_TRACE(sigma);
            Rng fwd_rng(99), asm_rng(99), ref_rng(99);
            MvmNoise fwd_noise{sigma, &fwd_rng};
            MvmNoise asm_noise{sigma, &asm_rng};
            MvmNoise ref_noise{sigma, &ref_rng};

            Tensor expected(c.cout, out_h, out_w);
            for (std::size_t oy = 0; oy < out_h; ++oy)
                for (std::size_t ox = 0; ox < out_w; ++ox)
                    for (std::size_t oc = 0; oc < c.cout; ++oc) {
                        i64 v = ref_noise.perturb(
                            accs[oy * out_w + ox][oc],
                            c.cin * c.kernel * c.kernel);
                        v = (v + bias.at(oc, 0, 0)) >> shift;
                        expected.at(oc, oy, ox) = static_cast<i32>(
                            std::clamp<i64>(v, -127, 127));
                    }

            const Tensor direct = conv.forward(in, fwd_noise);
            const Tensor assembled =
                conv.assembleFromAccs(accs, out_h, out_w, asm_noise);
            EXPECT_EQ(direct.data(), expected.data());
            EXPECT_EQ(assembled.data(), expected.data());
            // Every path drew the same number of values.
            const u64 after = ref_rng.next();
            EXPECT_EQ(fwd_rng.next(), after);
            EXPECT_EQ(asm_rng.next(), after);
        }
    }
}

TEST(Conv2d, RejectsInputSmallerThanKernel)
{
    // (in + 2*pad - kernel) would wrap in size_t; both entry points
    // refuse the input before allocating anything.
    Conv2d conv("tiny", 1, 4, 3, 1, 0);
    const Tensor one(1, 1, 1, 5);
    EXPECT_THROW((void)conv.forward(one), std::runtime_error);
    EXPECT_THROW((void)conv.im2colPatches(one), std::runtime_error);
    EXPECT_THROW((void)conv.forward(Tensor(1, 3, 2)),
                 std::runtime_error);
    // Padding can cover the shortfall: 1x1 with pad 1 is a 3x3 window.
    Conv2d padded("padded", 1, 4, 3, 1, 1);
    const Tensor out = padded.forward(one);
    EXPECT_EQ(out.height(), 1u);
    EXPECT_EQ(out.width(), 1u);
}

TEST(TinyCnn, DeterministicInSeed)
{
    TinyCnn a(9), b(9), c(10);
    EXPECT_EQ(a.conv1().weightMatrix(), b.conv1().weightMatrix());
    EXPECT_EQ(a.fc().weightMatrix(), b.fc().weightMatrix());
    EXPECT_NE(a.conv1().weightMatrix(), c.conv1().weightMatrix());
    const Tensor in = a.inputFromFlat(std::vector<i64>(64, 1));
    EXPECT_EQ(a.infer(in), b.infer(in));
}

/** Small chip that fits all three TinyCnn layers. */
runtime::ChipConfig
tinyForwardChip()
{
    runtime::ChipConfig cfg;
    cfg.hct.dce.numPipelines = 2;
    cfg.hct.dce.pipeline.depth = 32;
    cfg.hct.dce.pipeline.width = 32;
    cfg.hct.dce.pipeline.numRegs = 8;
    cfg.hct.ace.numArrays = 16;
    cfg.hct.ace.arrayRows = 64;
    cfg.hct.ace.arrayCols = 32;
    cfg.numHcts = 3;
    return cfg;
}

// Acceptance: the graph-driven whole-network forward is bit-identical
// to the reference inference, and back-to-back inferences through the
// persistent placements pipeline (spacing below the serialized
// single-inference latency).
TEST(TinyCnn, GraphForwardBitIdenticalAndPipelined)
{
    const auto cfg = tinyForwardChip();
    runtime::Chip chip(cfg);
    runtime::Runtime rt(chip);
    runtime::Session session = rt.createSession();

    TinyCnn net(7);
    CnnMapper mapper(cfg.hct);
    TinyCnnForward forward(session, net, mapper);
    EXPECT_EQ(forward.hctsUsed(), 3u);

    Rng rng(11);
    Cycle serialized = 0;
    Cycle prev_done = 0;
    for (int i = 0; i < 3; ++i) {
        Tensor in(1, net.inputHw(), net.inputHw());
        for (auto &v : in.data())
            v = static_cast<i32>(rng.uniformInt(i64{-8}, i64{7}));
        const ForwardResult r = forward.infer(in);
        EXPECT_EQ(r.logits, net.infer(in)) << "inference " << i;
        EXPECT_EQ(r.mvmCount, 81u);
        if (i == 0)
            serialized = r.done - r.start;
        else
            EXPECT_LT(r.done - prev_done, serialized)
                << "inference " << i << " did not pipeline";
        prev_done = r.done;
    }
}

TEST(TinyCnn, GraphForwardHonoursAdmissionEarliest)
{
    const auto cfg = tinyForwardChip();
    runtime::Chip chip(cfg);
    runtime::Runtime rt(chip);
    runtime::Session session = rt.createSession();
    TinyCnn net(7);
    CnnMapper mapper(cfg.hct);
    TinyCnnForward forward(session, net, mapper);
    const Tensor in = net.inputFromFlat(std::vector<i64>(64, 2));
    const ForwardResult r = forward.infer(in, /*earliest=*/40000);
    EXPECT_GE(r.start, 40000u);
    EXPECT_EQ(r.logits, net.infer(in));
}

} // namespace
} // namespace cnn
} // namespace darth
