/**
 * @file
 * End-to-end tests for AES on the DARTH-PUM datapath: ciphertexts
 * match FIPS-197 through the real simulator, kernel breakdowns are
 * populated, and the ADC choice changes MixColumns latency.
 */

#include <gtest/gtest.h>

#include "apps/aes/AesPum.h"
#include "common/Random.h"

namespace darth
{
namespace aes
{
namespace
{

hct::HctConfig
aesHct(analog::AdcKind adc = analog::AdcKind::Sar)
{
    // A trimmed HCT that still satisfies the AES mapping: 16+
    // elements, 24+ registers, a 64x32 analog array.
    hct::HctConfig cfg;
    cfg.dce.numPipelines = 2;
    cfg.dce.pipeline.depth = 16;
    cfg.dce.pipeline.width = 64;
    cfg.dce.pipeline.numRegs = 24;
    cfg.ace.numArrays = 1;
    cfg.ace.arrayRows = 64;
    cfg.ace.arrayCols = 32;
    cfg.ace.adc.kind = adc;
    cfg.ace.numAdcs = adc == analog::AdcKind::Sar ? 8 : 1;
    if (adc == analog::AdcKind::Ramp)
        cfg.ace.rampStates = 4;   // §5.3 early termination
    return cfg;
}

const std::vector<u8> kKey = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                              0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                              0x09, 0xcf, 0x4f, 0x3c};

TEST(AesPum, MatchesFips197Vector)
{
    AesPum engine(aesHct());
    engine.initArrays(kKey);
    const Block plaintext = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30,
                             0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
                             0x07, 0x34};
    const Block expected = {0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09,
                            0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
                            0x0b, 0x32};
    EXPECT_EQ(engine.encrypt(plaintext), expected);
}

TEST(AesPum, MatchesReferenceOnRandomBlocks)
{
    AesPum engine(aesHct());
    engine.initArrays(kKey);
    Rng rng(401);
    for (int trial = 0; trial < 8; ++trial) {
        Block plaintext;
        for (auto &b : plaintext)
            b = static_cast<u8>(rng.uniformInt(u64{256}));
        EXPECT_EQ(engine.encrypt(plaintext),
                  encrypt(plaintext, kKey))
            << "trial " << trial;
    }
}

TEST(AesPum, BreakdownCoversAllKernels)
{
    AesPum engine(aesHct());
    engine.initArrays(kKey);
    engine.encrypt(Block{});
    const auto &bd = engine.breakdown();
    EXPECT_GT(bd.dataMovement, 0u);
    EXPECT_GT(bd.subBytes, 0u);
    EXPECT_GT(bd.shiftRows, 0u);
    EXPECT_GT(bd.mixColumns, 0u);
    EXPECT_GT(bd.addRoundKey, 0u);
    EXPECT_EQ(bd.total(), engine.lastLatency());
}

TEST(AesPum, RampEarlyTerminationReducesAdcOccupancyAndEnergy)
{
    // §7.3: single-block MixColumns latency is bound by the DCE row
    // writes either way, but the early-terminated ramp occupies the
    // shared ADCs for 4 cycles per MVM instead of 4+ (32 lanes / 8
    // SAR ADCs) — which is what lifts multi-stream AES throughput —
    // and costs far less conversion energy.
    AesPum sar(aesHct(analog::AdcKind::Sar));
    sar.initArrays(kKey);
    sar.encrypt(Block{});

    AesPum ramp(aesHct(analog::AdcKind::Ramp));
    ramp.initArrays(kKey);
    ramp.encrypt(Block{});

    EXPECT_LE(ramp.tally().get("ace.adc").cycles,
              sar.tally().get("ace.adc").cycles);
    EXPECT_LT(ramp.tally().get("ace.adc").energy,
              sar.tally().get("ace.adc").energy);
    // Same ciphertext math regardless of ADC choice.
    EXPECT_EQ(ramp.breakdown().subBytes, sar.breakdown().subBytes);
}

TEST(AesPum, SurvivesModerateAnalogNoise)
{
    // §4.3: with the parasitic compensation scheme, moderate noise
    // must not corrupt the ciphertext (the 2y - P sums sit on even
    // integers, a half-LSB of headroom). Note: our first-order IR
    // model shows the ±1 remap only cancels wire current for
    // sign-balanced matrices (see docs/benchmarks.md, "Parameter
    // substitutions"), so the wire
    // resistance corner here is below the paper's implied level.
    hct::HctConfig cfg = aesHct();
    cfg.ace.noise.programSigma = 0.005;
    cfg.ace.noise.readSigma = 0.002;
    cfg.ace.noise.wireResistance = 2e-5;
    AesPum engine(cfg, 77);
    engine.initArrays(kKey);
    const Block plaintext = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30,
                             0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
                             0x07, 0x34};
    EXPECT_EQ(engine.encrypt(plaintext), encrypt(plaintext, kKey));
}

TEST(AesPum, ReKeyingReplacesThePlacement)
{
    // initArrays() twice (re-keying) must release and re-place the
    // MixColumns matrix on the single-tile chip, not run out of HCTs.
    AesPum engine(aesHct());
    engine.initArrays({0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                       0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e,
                       0x0f});
    engine.encrypt(Block{});
    engine.initArrays(kKey);
    const Block plaintext = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30,
                             0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
                             0x07, 0x34};
    EXPECT_EQ(engine.encrypt(plaintext), encrypt(plaintext, kKey));
}

TEST(AesPum, EncryptWithoutInitIsFatal)
{
    AesPum engine(aesHct());
    EXPECT_THROW((void)engine.encrypt(Block{}), std::runtime_error);
}

TEST(AesPum, StreamsPerHctPaperConfig)
{
    const auto cfg = hct::HctConfig::paperDefault(analog::AdcKind::Sar);
    // 64 analog arrays, 63 non-table pipelines.
    EXPECT_EQ(AesPum::streamsPerHct(cfg), 63u);
}

TEST(AesPum, TooSmallConfigIsFatal)
{
    hct::HctConfig cfg = aesHct();
    cfg.ace.arrayRows = 16;
    EXPECT_THROW(AesPum{cfg}, std::runtime_error);
}

} // namespace
} // namespace aes
} // namespace darth
