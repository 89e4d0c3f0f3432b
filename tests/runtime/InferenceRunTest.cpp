/**
 * @file
 * Tests for the incremental InferenceRun handle: planned steps
 * submit one at a time under per-step admission bounds, stages of
 * distinct runs interleave on one chip with bit-identical outputs,
 * and the staged TinyCnn / ResNet-20 / encoder forwards match their
 * reference networks exactly.
 */

#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "apps/cnn/CnnMapper.h"
#include "apps/cnn/Resnet20.h"
#include "apps/cnn/TinyCnn.h"
#include "apps/llm/Encoder.h"
#include "apps/llm/LlmMapper.h"
#include "common/Random.h"
#include "runtime/InferenceGraph.h"
#include "runtime/Runtime.h"

namespace darth
{
namespace runtime
{
namespace
{

ChipConfig
smallChip(std::size_t num_hcts = 2)
{
    ChipConfig cfg;
    cfg.hct.dce.numPipelines = 4;
    cfg.hct.dce.pipeline.depth = 32;
    cfg.hct.dce.pipeline.width = 8;
    cfg.hct.dce.pipeline.numRegs = 8;
    cfg.hct.ace.numArrays = 8;
    cfg.hct.ace.arrayRows = 16;   // 8 signed rows per array
    cfg.hct.ace.arrayCols = 8;
    cfg.numHcts = num_hcts;
    return cfg;
}

/** The infer_bench TinyCnn / serving CnnInfer chip geometry. */
ChipConfig
inferChip(std::size_t num_hcts)
{
    ChipConfig cfg;
    cfg.hct.dce.numPipelines = 2;
    cfg.hct.dce.pipeline.depth = 32;
    cfg.hct.dce.pipeline.width = 32;
    cfg.hct.dce.pipeline.numRegs = 8;
    cfg.hct.ace.numArrays = 16;
    cfg.hct.ace.arrayRows = 64;
    cfg.hct.ace.arrayCols = 32;
    cfg.numHcts = num_hcts;
    return cfg;
}

/** The infer_bench ResNet-20 geometry: one beefy tile per layer. */
ChipConfig
resnetChip()
{
    ChipConfig cfg;
    cfg.hct.dce.numPipelines = 2;
    cfg.hct.dce.pipeline.depth = 64;
    cfg.hct.dce.pipeline.width = 64;
    cfg.hct.dce.pipeline.numRegs = 8;
    cfg.hct.ace.numArrays = 64;
    cfg.hct.ace.arrayRows = 128;
    cfg.hct.ace.arrayCols = 64;
    cfg.numHcts = 22;
    return cfg;
}

MatrixI
randomMatrix(std::size_t rows, std::size_t cols, u64 seed)
{
    Rng rng(seed);
    MatrixI m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            m(r, c) = rng.uniformInt(i64{-2}, i64{2});
    return m;
}

std::vector<i64>
reference(const MatrixI &m, const std::vector<i64> &x)
{
    std::vector<i64> out(m.cols(), 0);
    for (std::size_t c = 0; c < m.cols(); ++c)
        for (std::size_t r = 0; r < m.rows(); ++r)
            out[c] += m(r, c) * x[r];
    return out;
}

TEST(InferenceRun, StepsSubmitIncrementallyUnderAdmissionBounds)
{
    Chip chip(smallChip(2));
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixI a = randomMatrix(8, 8, 701);
    const MatrixI b = randomMatrix(8, 8, 702);
    const MatrixHandle ha = session.setMatrix(a, 2, 0);
    const MatrixHandle hb = session.setMatrix(b, 2, 0);

    // A two-step run: stream against `a`, then feed its output into
    // a stream against `b` — the data dependency a model forward
    // has between layers.
    struct Ctx
    {
        StageId s1 = 0;
        std::vector<i64> mid;
    };
    auto ctx = std::make_shared<Ctx>();
    const std::vector<i64> x(8, 1);

    InferenceRun run(session, /*ready=*/100);
    EXPECT_EQ(run.graph().stageCount(), 1u);   // the root source
    run.addStep("first", 10,
                [&, ctx](InferenceRun &r, StageId admit) {
                    ctx->s1 = r.graph().addMvmStream("a", ha, {x}, 3,
                                                     {admit});
                    ctx->mid = r.graph().outputs(ctx->s1)[0];
                });
    run.addStep("second", 20,
                [&, ctx](InferenceRun &r, StageId admit) {
                    const StageId s2 = r.graph().addMvmStream(
                        "b", hb, {ctx->mid}, 6, {ctx->s1, admit});
                    r.setOutput(r.graph().outputs(s2)[0]);
                });

    EXPECT_EQ(run.stepCount(), 2u);
    EXPECT_EQ(run.stepNominal(0), 10u);
    EXPECT_EQ(run.stepNominal(1), 20u);
    EXPECT_EQ(run.stepName(1), "second");
    EXPECT_FALSE(run.finished());

    // Steps not yet submitted cannot report completion.
    EXPECT_THROW((void)run.stepDone(0), std::invalid_argument);
    EXPECT_THROW((void)run.finish(), std::invalid_argument);

    EXPECT_EQ(run.submitNext(100), 0u);
    const Cycle first_done = run.stepDone(0);
    EXPECT_GT(first_done, 100u);

    // The second step is admitted far later: its admission source
    // must push its stages past the bound.
    const Cycle late = first_done + 5000;
    EXPECT_EQ(run.submitNext(late), 1u);
    EXPECT_TRUE(run.finished());
    EXPECT_GT(run.stepDone(1), late);
    EXPECT_THROW((void)run.submitNext(late), std::invalid_argument);

    const GraphStats stats = run.finish();
    EXPECT_EQ(stats.done, run.stepDone(1));
    EXPECT_EQ(stats.mvmCount, 2u);
    EXPECT_EQ(run.output(), reference(b, reference(a, x)));
}

TEST(InferenceRun, InterleavedTinyCnnRunsStayBitIdentical)
{
    // Two staged forwards against one runner (shared placements)
    // advance alternately — request B's stages submit between
    // request A's — and both logits match the reference network.
    const ChipConfig cfg = inferChip(3);
    Chip chip(cfg);
    Runtime rt(chip);
    Session session = rt.createSession();

    cnn::TinyCnn net(11);
    cnn::CnnMapper mapper(cfg.hct);
    cnn::TinyCnnForward fwd(session, net, mapper);

    Rng rng(77);
    cnn::Tensor in_a(1, 8, 8), in_b(1, 8, 8);
    for (std::size_t i = 0; i < in_a.size(); ++i) {
        in_a.data()[i] =
            static_cast<i32>(rng.uniformInt(i64{-8}, i64{7}));
        in_b.data()[i] =
            static_cast<i32>(rng.uniformInt(i64{-8}, i64{7}));
    }

    auto run_a = fwd.begin(in_a, 0);
    auto run_b = fwd.begin(in_b, 50);
    ASSERT_EQ(run_a->stepCount(), 3u);
    for (std::size_t i = 0; i < run_a->stepCount(); ++i)
        EXPECT_GT(run_a->stepNominal(i), 0u) << "step " << i;

    Cycle at = 0;
    while (!run_a->finished() || !run_b->finished()) {
        if (!run_a->finished())
            run_a->submitNext(at);
        if (!run_b->finished())
            run_b->submitNext(at + 50);
        at += 1000;
    }
    (void)run_a->finish();
    (void)run_b->finish();
    EXPECT_EQ(run_a->output(), net.infer(in_a));
    EXPECT_EQ(run_b->output(), net.infer(in_b));

    // The alternating submission interleaved two same-placement
    // streams on the chip scheduler.
    EXPECT_GT(rt.scheduler().counters().issued, 0u);
}

TEST(InferenceRun, StagedResnetForwardMatchesReference)
{
    const ChipConfig cfg = resnetChip();
    Chip chip(cfg);
    Runtime rt(chip);
    Session session = rt.createSession();
    cnn::Resnet20 net(42);
    cnn::CnnMapper mapper(cfg.hct);
    cnn::ResnetForward fwd(session, net, mapper);

    const cnn::Tensor input = cnn::syntheticInput(9);
    auto run = fwd.begin(input, 0);
    // conv1 + 9 residual blocks + fc.
    ASSERT_EQ(run->stepCount(), 11u);
    Cycle at = 0;
    std::size_t steps = 0;
    while (!run->finished()) {
        // Staggered admission cycles: each stage is admitted later
        // than pure dataflow would allow, as under a busy window.
        run->submitNext(at);
        at = run->stepDone(steps++) + 200;
    }
    (void)run->finish();
    EXPECT_EQ(run->output(), net.infer(input));
}

TEST(InferenceRun, ResnetReductionsTakeTheClosedForm)
{
    // The HCT times an MVM's reduction in closed form whenever its
    // pipes enter affine; a fall back to the per-partial-product walk
    // is exact too, so only this share shows one.
    const ChipConfig cfg = resnetChip();
    Chip chip(cfg);
    Runtime rt(chip);
    Session session = rt.createSession();
    cnn::Resnet20 net(42);
    cnn::CnnMapper mapper(cfg.hct);
    cnn::ResnetForward fwd(session, net, mapper);

    const cnn::Tensor input = cnn::syntheticInput(100);
    EXPECT_EQ(fwd.infer(input).logits, net.infer(input));
    u64 mvms = 0;
    u64 closed = 0;
    for (std::size_t i = 0; i < chip.numHcts(); ++i) {
        mvms += chip.hct(i).mvmCount();
        closed += chip.hct(i).closedFormReductions();
    }
    ASSERT_GE(mvms, 9409u);
    EXPECT_GE(closed * 100, mvms * 99)
        << closed << " of " << mvms << " reductions in closed form";
}

TEST(InferenceRun, StagedEncoderForwardMatchesReference)
{
    // The serving LlmInfer geometry (TrafficGen::llmInferConfig).
    const ChipConfig cfg = inferChip(6);
    Chip chip(cfg);
    Runtime rt(chip);
    Session session = rt.createSession();

    llm::EncoderConfig enc_cfg;
    enc_cfg.seqLen = 4;
    enc_cfg.dModel = 32;
    enc_cfg.numHeads = 2;
    enc_cfg.dFf = 64;
    llm::Encoder enc(enc_cfg, 7);
    llm::LlmMapper mapper(cfg.hct, 8, 2, 12);
    llm::EncoderForward fwd(session, enc, mapper);

    const MatrixI tokens = llm::syntheticTokens(enc_cfg, 5);
    auto run = fwd.begin(tokens, 0);
    ASSERT_EQ(run->stepCount(), 4u);   // qkv, attn-wo, ffn1, ffn2
    Cycle at = 0;
    std::size_t steps = 0;
    while (!run->finished()) {
        run->submitNext(at);
        at = run->stepDone(steps++) + 500;
    }
    (void)run->finish();

    const MatrixI want = enc.forward(tokens);
    const std::vector<i64> &flat = run->output();
    ASSERT_EQ(flat.size(), want.rows() * want.cols());
    for (std::size_t t = 0; t < want.rows(); ++t)
        for (std::size_t c = 0; c < want.cols(); ++c)
            EXPECT_EQ(flat[t * want.cols() + c], want(t, c))
                << "token " << t << " dim " << c;
}

} // namespace
} // namespace runtime
} // namespace darth
