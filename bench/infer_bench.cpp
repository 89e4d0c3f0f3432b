/**
 * @file
 * Whole-model inference benchmark: graph-driven forwards through
 * sessions, bit-identity against the reference networks, and the
 * inter-inference pipelining the InferenceGraph unlocks.
 *
 * Three networks run end-to-end through InferenceGraph forwards:
 *
 *  1. resnet20 — the full functional ResNet-20 (im2col streaming,
 *                conv -> requant -> ReLU -> pool -> residual
 *                chaining, 22 placed layers, ~9.4k MVMs/inference);
 *  2. encoder  — one transformer encoder layer (QKV projections ->
 *                DCE attention/softmax -> FFN, 6 placed matrices);
 *  3. tiny_cnn — the serving cluster's CnnInfer unit.
 *
 * For each network the bench runs one inference on an idle chip (the
 * serialized single-inference latency) and then a back-to-back batch
 * through the same persistent placements. Because each layer keeps
 * its tiles, successive inferences pipeline at the per-layer
 * amortized rate and the steady-state inference spacing approaches
 * the slowest layer's stream span — the maxLayerLatency bound the
 * mapper cost model predicts.
 *
 * Self-checks (fatal on failure, so CI's `infer_bench --smoke`
 * enforces the acceptance criteria):
 *  - every graph forward's outputs are bit-identical to the
 *    reference Resnet20::infer / Encoder::forward / TinyCnn::infer;
 *  - back-to-back inferences pipeline at >= 1.5x the serialized
 *    single-inference rate for every network.
 *
 * Host-side fields (never part of the simulated experiment): every
 * network cell carries informational `wall_ms` host wall-clock and
 * `max_rss_mb` peak-resident-set fields that bench_diff.py never
 * gates on.
 *
 *   $ ./infer_bench [--smoke]
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "BenchUtil.h"
#include "apps/cnn/CnnMapper.h"
#include "apps/llm/LlmMapper.h"
#include "runtime/Runtime.h"

namespace
{

using namespace darth;

struct Check
{
    std::string name;
    double value = 0.0;
    bool ok = false;
};

std::vector<Check> g_checks;

/** Host wall-clock timer for the informational wall_ms fields. */
struct WallTimer
{
    std::chrono::steady_clock::time_point t0 =
        std::chrono::steady_clock::now();
    double
    ms() const
    {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    }
};

/** One network's pipelining measurements. */
struct PipelineOutcome
{
    Cycle serialized = 0;        // single-inference latency
    double spacing = 0.0;        // steady-state inference spacing
    double speedup = 0.0;        // serialized / spacing
    bool exact = true;           // every forward bit-identical
    std::size_t mvmsPerInfer = 0;
    std::size_t hcts = 0;
};

void
printOutcome(const char *name, const PipelineOutcome &o,
             Cycle max_layer_latency,
             const runtime::SchedulerCounters &ctr, double wall_ms,
             bool last)
{
    std::printf("    {\"network\": \"%s\", \"hcts\": %zu, "
                "\"mvms_per_inference\": %zu, "
                "\"serialized_latency\": %llu, "
                "\"pipelined_spacing\": %.0f, "
                "\"pipeline_speedup\": %.2f, "
                "\"max_layer_latency\": %llu, "
                "\"bit_identical\": %s, "
                "\"sched_issued\": %llu, "
                "\"sched_pipeline_hits\": %llu, "
                "\"sched_dependency_stalls\": %llu, "
                "\"wall_ms\": %.3f, \"max_rss_mb\": %.1f}%s\n",
                name, o.hcts, o.mvmsPerInfer,
                static_cast<unsigned long long>(o.serialized),
                o.spacing, o.speedup,
                static_cast<unsigned long long>(max_layer_latency),
                o.exact ? "true" : "false",
                static_cast<unsigned long long>(ctr.issued),
                static_cast<unsigned long long>(ctr.pipelineHits),
                static_cast<unsigned long long>(ctr.dependencyStalls),
                wall_ms, darth::bench::peakRssMb(),
                last ? "" : ",");
}

void
recordChecks(const char *name, const PipelineOutcome &o)
{
    g_checks.push_back({std::string(name) + "_bit_identical",
                        o.exact ? 1.0 : 0.0, o.exact});
    g_checks.push_back({std::string(name) + "_pipeline_speedup",
                        o.speedup, o.speedup >= 1.5});
}

/**
 * Measure one forward runner: the first inference serializes on an
 * idle chip; the following `batch` inferences pipeline through the
 * warm placements. `run` maps an input seed to a ForwardResult-like
 * pair after self-checking bit-identity.
 */
template <typename RunFn>
PipelineOutcome
measure(std::size_t batch, RunFn run)
{
    PipelineOutcome out;
    Cycle first_done = 0;
    for (std::size_t i = 0; i <= batch; ++i) {
        const auto r = run(i, &out.exact);
        out.mvmsPerInfer = r.mvmCount;
        if (i == 0) {
            out.serialized = r.done - r.start;
            first_done = r.done;
        } else if (i == batch) {
            out.spacing = static_cast<double>(r.done - first_done) /
                          static_cast<double>(batch);
        }
    }
    out.speedup = out.spacing > 0.0
                      ? static_cast<double>(out.serialized) /
                            out.spacing
                      : 0.0;
    return out;
}

// ---------------------------------------------------------------------------
// resnet20
// ---------------------------------------------------------------------------

/** One beefy tile per ResNet layer: 64 arrays of 128x64 hold up to
 *  1024x64 weights in one placement part. */
runtime::ChipConfig
resnetChip()
{
    runtime::ChipConfig cfg;
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

void
runResnet(std::size_t batch, bool last)
{
    const WallTimer timer;
    const runtime::ChipConfig cfg = resnetChip();
    runtime::Chip chip(cfg);
    runtime::Runtime rt(chip);
    runtime::Session session = rt.createSession();

    cnn::Resnet20 net(42);
    cnn::CnnMapper mapper(cfg.hct);
    cnn::ResnetForward fwd(session, net, mapper);

    PipelineOutcome outcome = measure(batch, [&](std::size_t i,
                                                 bool *exact) {
        const cnn::Tensor input = cnn::syntheticInput(100 + i);
        const cnn::ForwardResult r = fwd.infer(input);
        *exact = *exact && r.logits == net.infer(input);
        return r;
    });
    outcome.hcts = fwd.hctsUsed();

    const Cycle bound =
        mapper.networkCost(net.layerStats()).maxLayerLatency;
    printOutcome("resnet20", outcome, bound,
                 rt.scheduler().counters(), timer.ms(), last);
    recordChecks("resnet20", outcome);
}

// ---------------------------------------------------------------------------
// encoder
// ---------------------------------------------------------------------------

runtime::ChipConfig
encoderChip()
{
    runtime::ChipConfig cfg;
    cfg.hct.dce.numPipelines = 8;
    cfg.hct.dce.pipeline.depth = 64;
    cfg.hct.dce.pipeline.width = 32;
    cfg.hct.dce.pipeline.numRegs = 8;
    cfg.hct.ace.numArrays = 16;
    cfg.hct.ace.arrayRows = 128;
    cfg.hct.ace.arrayCols = 64;
    cfg.numHcts = 8;
    return cfg;
}

void
runEncoder(std::size_t batch, bool last)
{
    const WallTimer timer;
    const runtime::ChipConfig cfg = encoderChip();
    runtime::Chip chip(cfg);
    runtime::Runtime rt(chip);
    runtime::Session session = rt.createSession();

    llm::EncoderConfig enc_cfg;
    enc_cfg.seqLen = 16;
    enc_cfg.dModel = 64;
    enc_cfg.numHeads = 4;
    enc_cfg.dFf = 256;
    llm::Encoder enc(enc_cfg, 7);
    // 12-bit activations: add-norm outputs exceed int8.
    llm::LlmMapper mapper(cfg.hct, 8, 2, 12);
    llm::EncoderForward fwd(session, enc, mapper);

    PipelineOutcome outcome = measure(batch, [&](std::size_t i,
                                                 bool *exact) {
        const MatrixI tokens = llm::syntheticTokens(enc_cfg, 3 + i);
        const llm::EncoderForwardResult r = fwd.infer(tokens);
        *exact = *exact && r.output == enc.forward(tokens);
        struct
        {
            Cycle start, done;
            std::size_t mvmCount;
        } shim{r.start, r.done, r.mvmCount};
        return shim;
    });
    outcome.hcts = fwd.hctsUsed();

    const Cycle bound = mapper.hybridCost(enc.stats()).latency;
    printOutcome("encoder", outcome, bound, rt.scheduler().counters(),
                 timer.ms(), last);
    recordChecks("encoder", outcome);
}

// ---------------------------------------------------------------------------
// tiny_cnn
// ---------------------------------------------------------------------------

runtime::ChipConfig
tinyChip()
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

void
runTinyCnn(std::size_t batch, bool last)
{
    const WallTimer timer;
    const runtime::ChipConfig cfg = tinyChip();
    runtime::Chip chip(cfg);
    runtime::Runtime rt(chip);
    runtime::Session session = rt.createSession();

    cnn::TinyCnn net(7);
    cnn::CnnMapper mapper(cfg.hct);
    cnn::TinyCnnForward fwd(session, net, mapper);

    Rng rng(11);
    PipelineOutcome outcome = measure(batch, [&](std::size_t,
                                                 bool *exact) {
        cnn::Tensor input(1, net.inputHw(), net.inputHw());
        for (auto &v : input.data())
            v = static_cast<i32>(rng.uniformInt(i64{-8}, i64{7}));
        const cnn::ForwardResult r = fwd.infer(input);
        *exact = *exact && r.logits == net.infer(input);
        return r;
    });
    outcome.hcts = fwd.hctsUsed();

    const Cycle bound =
        mapper.networkCost(net.layerStats()).maxLayerLatency;
    printOutcome("tiny_cnn", outcome, bound, rt.scheduler().counters(),
                 timer.ms(), last);
    recordChecks("tiny_cnn", outcome);
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
    }

    const std::size_t resnet_batch = smoke ? 2 : 4;
    const std::size_t encoder_batch = smoke ? 4 : 8;
    const std::size_t tiny_batch = smoke ? 4 : 8;

    std::printf("{\n");
    std::printf("  \"bench\": \"infer_bench\",\n");
    std::printf("  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
    std::printf("  \"networks\": [\n");
    runTinyCnn(tiny_batch, false);
    runEncoder(encoder_batch, false);
    runResnet(resnet_batch, true);
    std::printf("  ],\n");

    std::printf("  \"checks\": [\n");
    bool all_ok = true;
    for (std::size_t i = 0; i < g_checks.size(); ++i) {
        all_ok = all_ok && g_checks[i].ok;
        std::printf("    {\"name\": \"%s\", \"value\": %.3f, "
                    "\"ok\": %s}%s\n",
                    g_checks[i].name.c_str(), g_checks[i].value,
                    g_checks[i].ok ? "true" : "false",
                    i + 1 == g_checks.size() ? "" : ",");
    }
    std::printf("  ],\n");
    std::printf("  \"ok\": %s\n}\n", all_ok ? "true" : "false");
    return all_ok ? 0 : 1;
}
