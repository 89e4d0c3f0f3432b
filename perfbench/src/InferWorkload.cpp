/**
 * @file
 * infer_resnet20: back-to-back cnn::ResnetForward::infer forwards on
 * a 22-tile ResNet-20 chip (a closed loop on the host: the next
 * forward is issued when the previous call returns; pipelined in
 * simulated time through the persistent placements). No admission,
 * no journal.
 *
 * Chosen because it is bound by the simulator's physics — crossbar
 * solves, bit-serial MVMs, the ACE and the HCT reduction — so a
 * crossbar change must show here while a serve or journal change
 * must not.
 *
 * Each pass builds a fresh chip (set-up: construction plus crossbar
 * programming of all 22 layers, outside the window) and runs a fixed
 * batch of forwards, so every pass's simulated figures repeat
 * exactly. Reference logits (cnn::Resnet20::infer) are computed
 * after the window.
 */

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "Common.h"
#include "analog/Ace.h"
#include "apps/cnn/CnnMapper.h"
#include "apps/cnn/Layers.h"
#include "apps/cnn/Resnet20.h"
#include "hct/Hct.h"
#include "common/Fnv.h"
#include "model/Params.h"
#include "runtime/Runtime.h"

namespace perfbench
{

namespace
{

using namespace darth;

/** Forwards per pass: the first runs on an idle chip, the rest
 *  pipeline behind it. */
constexpr std::size_t kBatch = 3;

/** One beefy tile per ResNet layer (the infer_bench chip): 64 arrays
 *  of 128x64 hold up to 1024x64 weights in one placement part. */
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

/** The simulated machine plus the network placed on it. */
struct Machine
{
    explicit Machine(const cnn::Resnet20 &net)
        : chip(resnetChip()), rt(chip), session(rt.createSession()),
          mapper(resnetChip().hct), fwd(session, net, mapper)
    {
    }

    runtime::Chip chip;
    runtime::Runtime rt;
    runtime::Session session;
    cnn::CnnMapper mapper;
    cnn::ResnetForward fwd;
};

/** Tally categories reported per forward. */
const char *const kCategories[] = {"ace.array", "ace.adc", "ace.dac",
                                   "ace.sh",    "dce.boolop", "dce.io",
                                   "hct.network"};

struct Pass
{
    double setupCpu = 0.0;
    std::vector<double> forwardCpu;
    /** Forwards per reference-host CPU second, one per forward. */
    std::vector<double> forwardRates;
    /** Host probe speed during each forward. */
    std::vector<double> hostSpeeds;
    std::vector<cnn::ForwardResult> results;
    std::map<std::string, double> sim;
    runtime::SchedulerCounters counters;
};

cnn::Tensor
inputFor(u64 seed, std::size_t i)
{
    return cnn::syntheticInput(seed * 1000003ULL + i);
}

Pass
runPass(const cnn::Resnet20 &net, u64 seed, std::size_t batch,
        Tracer &tracer)
{
    Pass p;
    const double t0 = cpuSeconds();
    std::unique_ptr<Machine> m;
    {
        ScopedSpan span(tracer, "runtime.setup");
        m = std::make_unique<Machine>(net);
    }
    p.setupCpu = cpuSeconds() - t0;
    const CostTally before = m->chip.tally();
    for (std::size_t i = 0; i < batch; ++i) {
        const cnn::Tensor input = inputFor(seed, i);
        meter::Interval iv;
        iv.start = cpuSeconds();
        {
            ScopedSpan span(tracer, "runtime.forward");
            p.results.push_back(m->fwd.infer(input));
        }
        iv.end = cpuSeconds();
        p.forwardCpu.push_back(meter::netCpu(iv));
        p.forwardRates.push_back(meter::normalizedRate(1.0, iv));
        p.hostSpeeds.push_back(meter::speed(iv));
    }
    const CostTally &after = m->chip.tally();
    const double n = static_cast<double>(batch);
    for (const char *cat : kCategories) {
        const CostEntry a = after.get(cat);
        const CostEntry b = before.get(cat);
        p.sim[std::string(cat) + ".events"] =
            static_cast<double>(a.events - b.events) / n;
        p.sim[std::string(cat) + ".cycles"] =
            static_cast<double>(a.cycles - b.cycles) / n;
        p.sim[std::string(cat) + ".energy_nj"] =
            (a.energy - b.energy) * 1e-3 / n;
    }
    p.sim["energy_per_forward_nj"] =
        (after.totalEnergy() - before.totalEnergy()) * 1e-3 / n;
    p.sim["program_energy_nj"] =
        before.get("ace.program").energy * 1e-3;

    // Simulated time: cycles at the model clock, in ns.
    const double ns_per_cycle = 1.0 / model::kClockGHz;
    std::vector<double> latency;
    u64 logits_hash = kFnvOffsetBasis;
    for (const cnn::ForwardResult &f : p.results) {
        latency.push_back(static_cast<double>(f.done - f.start) *
                          ns_per_cycle);
        logits_hash = fnv1aWords(f.logits, logits_hash);
    }
    const double spacing_ns =
        batch > 1 ? static_cast<double>(p.results.back().done -
                                        p.results.front().done) *
                        ns_per_cycle / static_cast<double>(batch - 1)
                  : latency.front();
    p.sim["sim_throughput_per_us"] = 1000.0 / spacing_ns;
    p.sim["sim_latency_p50_ns"] = median(latency);
    p.sim["serialized_latency_ns"] = latency.front();
    p.sim["mvms_per_forward"] =
        static_cast<double>(p.results.front().mvmCount);
    p.sim["logits_hash_hi"] = static_cast<double>(logits_hash >> 32);
    p.sim["logits_hash_lo"] =
        static_cast<double>(logits_hash & 0xffffffffu);
    p.counters = m->rt.scheduler().counters();
    p.sim["runtime.issued"] = static_cast<double>(p.counters.issued);
    p.sim["runtime.pipeline_hits"] =
        static_cast<double>(p.counters.pipelineHits);
    p.sim["runtime.dependency_stalls"] =
        static_cast<double>(p.counters.dependencyStalls);
    return p;
}

/** Reference logits for every forward of a pass; returns the number
 *  of mismatching forwards and stores the share whose top-1 agrees
 *  in `top1`. */
std::size_t
checkPass(const cnn::Resnet20 &net, u64 seed, const Pass &p,
          const std::string &tag, Result &r, double &top1)
{
    std::size_t bad = 0, agree = 0;
    for (std::size_t i = 0; i < p.results.size(); ++i) {
        const std::vector<i64> want = net.infer(inputFor(seed, i));
        bad += p.results[i].logits != want;
        agree += cnn::Resnet20::argmax(p.results[i].logits) ==
                 cnn::Resnet20::argmax(want);
    }
    top1 = static_cast<double>(agree) /
           static_cast<double>(p.results.size());
    r.check(tag + "logits_vs_reference", bad == 0,
            std::to_string(bad) + " of " +
                std::to_string(p.results.size()) + " forwards differ");
    return bad;
}

/** Reference-host CPU of the forward's MVMs re-executed on bare
 *  tiles. */
struct PhysicsReplay
{
    double hctCpu = 0.0;
    double aceCpu = 0.0;
    std::size_t mvms = 0;
};

PhysicsReplay
replayPhysics(const cnn::Resnet20 &net, const cnn::Tensor &input)
{
    const hct::HctConfig tile = resnetChip().hct;
    const cnn::CnnMapper mapper(tile);
    const int eb = mapper.elementBits();
    const int bpc = mapper.bitsPerCell();
    const int ib = mapper.inputBits();
    PhysicsReplay out;
    const auto layer = [&](const cnn::Conv2d &conv, const cnn::Tensor &x) {
        const std::vector<std::vector<i64>> patches = conv.im2colPatches(x);
        hct::Hct h(tile, nullptr, 1);
        h.setMatrix(conv.weightMatrix(), eb, bpc);
        Cycle at = 0;
        meter::Interval iv;
        iv.start = cpuSeconds();
        for (const std::vector<i64> &p : patches)
            at = h.execMvm(p, ib, at).done;
        iv.end = cpuSeconds();
        out.hctCpu += meter::normalizedCpu(iv);
        analog::Ace ace(tile.ace, nullptr, 1);
        ace.setMatrix(conv.weightMatrix(), eb, bpc);
        at = 0;
        iv.start = cpuSeconds();
        for (const std::vector<i64> &p : patches)
            at = ace.execMvm(p, ib, at).back().readyAt;
        iv.end = cpuSeconds();
        out.aceCpu += meter::normalizedCpu(iv);
        out.mvms += patches.size();
        return conv.forward(x);
    };
    // Resnet20::infer's topology, one layer at a time (the final
    // 64x10 FC layer is left out: one MVM per forward).
    cnn::Tensor x = layer(net.conv1(), input);
    cnn::relu(x);
    for (const auto &stage : net.stages()) {
        for (const auto &block : stage) {
            const cnn::Tensor identity =
                block.downsample ? layer(*block.downsample, x) : x;
            cnn::Tensor y = layer(*block.conv1, x);
            cnn::relu(y);
            y = layer(*block.conv2, y);
            cnn::addResidual(y, identity);
            cnn::relu(y);
            x = std::move(y);
        }
    }
    return out;
}

} // namespace

void
runInfer(const Options &opt, Tracer &tracer, Result &r)
{
    const double t0 = cpuSeconds();
    const cnn::Resnet20 net(42);
    const double net_cpu = cpuSeconds() - t0;

    if (opt.mode == "setup") {
        const double s0 = cpuSeconds();
        const Machine m(net);
        const double setup = net_cpu + cpuSeconds() - s0;
        r.metrics["setup_s"] = meter::normalizedSeconds(setup);
        r.info["setup_s_raw"] = setup;
        r.attempted = 1;
        return;
    }

    DeterminismCheck det;
    std::vector<double> forward_cpu, forward_rates, speeds;
    double window = 0.0;
    double trace_overhead = 0.0;
    Pass first;
    if (opt.mode == "trace") {
        // One untraced pass, then the traced one; their normalised
        // forward rates differ by the tracer's cost.
        Tracer off(false);
        Pass plain = runPass(net, opt.seed, kBatch, off);
        det.add(plain.sim);
        first = runPass(net, opt.seed, kBatch, tracer);
        det.add(first.sim);
        trace_overhead =
            median(plain.forwardRates) / median(first.forwardRates) - 1.0;
        forward_rates = plain.forwardRates;
    } else {
        meter::start();
        while (det.passes() < 2 || window < opt.seconds) {
            Pass p = runPass(net, opt.seed, kBatch, tracer);
            det.add(p.sim);
            forward_rates.insert(forward_rates.end(),
                                 p.forwardRates.begin(),
                                 p.forwardRates.end());
            speeds.insert(speeds.end(), p.hostSpeeds.begin(),
                          p.hostSpeeds.end());
            for (double c : p.forwardCpu) {
                forward_cpu.push_back(c);
                window += c;
            }
            if (det.passes() == 1)
                first = std::move(p);
        }
        meter::stop();
    }
    det.report(r, "");

    // Reference forwards stay outside every timed window.
    const double ref0 = cpuSeconds();
    r.attempted = kBatch;
    double top1 = 0.0;
    {
        ScopedSpan span(tracer, "apps.reference");
        r.failed = checkPass(net, opt.seed, first, "", r, top1);
    }
    const double reference_cpu = cpuSeconds() - ref0;

    // Held-out seed: one forward on a fresh chip must match too.
    {
        Tracer off(false);
        const u64 held = opt.seed ^ 0x9E3779B97F4A7C15ULL;
        const Pass hp = runPass(net, held, 1, off);
        r.attempted += 1;
        double held_top1 = 0.0;
        r.failed += checkPass(net, held, hp, "held_out.", r, held_top1);
    }

    const std::map<std::string, double> &sim = first.sim;
    if (opt.mode == "measure") {
        r.metrics["requests_per_cpu_s"] = median(forward_rates);
        r.info["requests_per_cpu_s_raw"] = 1.0 / median(forward_cpu);
        r.info["host_speed"] = median(speeds);
    }
    r.metrics["peak_rss_mb"] = peakRssMb();
    r.metrics["sim_throughput_per_us"] = sim.at("sim_throughput_per_us");
    r.metrics["sim_latency_p50_ns"] = sim.at("sim_latency_p50_ns");
    r.metrics["sim_energy_per_request_nj"] =
        sim.at("energy_per_forward_nj");
    // The simulated chip's top-1 against the exact network's.
    r.metrics["sim_top1_agreement"] = top1;
    r.info["passes"] = static_cast<double>(det.passes());
    r.info["forwards"] = static_cast<double>(forward_rates.size());
    r.info["window_cpu_s"] = window;
    r.info["mvms_per_forward"] = sim.at("mvms_per_forward");
    r.info["serialized_latency_ns"] = sim.at("serialized_latency_ns");

    if (opt.mode != "trace")
        return;
    const runtime::SchedulerCounters &c = first.counters;
    r.metrics["runtime.setup_cpu_s"] = first.setupCpu;
    // Reference-host CPU of one untraced forward.
    const double forward = 1.0 / median(forward_rates);
    r.metrics["runtime.forward_cpu_s"] = forward;
    r.metrics["runtime.issued"] = static_cast<double>(c.issued);
    r.metrics["runtime.pipeline_hit_ratio"] =
        c.issued == 0 ? 0.0
                      : static_cast<double>(c.pipelineHits) /
                            static_cast<double>(c.issued);
    r.metrics["runtime.dependency_stalls"] =
        static_cast<double>(c.dependencyStalls);
    r.metrics["hct.network_cycles"] = sim.at("hct.network.cycles");
    r.metrics["hct.network_energy_nj"] = sim.at("hct.network.energy_nj");
    r.metrics["analog.array_events"] = sim.at("ace.array.events");
    r.metrics["analog.adc_cycles"] = sim.at("ace.adc.cycles");
    r.metrics["analog.adc_energy_nj"] = sim.at("ace.adc.energy_nj");
    r.metrics["analog.dac_energy_nj"] = sim.at("ace.dac.energy_nj");
    r.metrics["analog.sh_energy_nj"] = sim.at("ace.sh.energy_nj");
    r.metrics["reram.program_energy_nj"] = sim.at("program_energy_nj");
    r.metrics["digital.boolop_cycles"] = sim.at("dce.boolop.cycles");
    r.metrics["digital.boolop_energy_nj"] = sim.at("dce.boolop.energy_nj");
    r.metrics["digital.io_cycles"] = sim.at("dce.io.cycles");
    r.metrics["apps.reference_cpu_s"] = reference_cpu;
    r.metrics["trace.overhead_frac"] = trace_overhead;

    // Replay the forward's MVM stream on bare tiles: each conv layer
    // on its own Hct, fed the im2col patches the reference network
    // produces for the run's first input. Its CPU is the hct (and,
    // for the ACE alone, analog) part of one forward; the rest of the
    // forward is runtime scheduling, graph and apps glue.
    const PhysicsReplay replay = replayPhysics(net, inputFor(opt.seed, 0));
    r.info["replay.hct_cpu_s"] = replay.hctCpu;
    r.info["replay.ace_cpu_s"] = replay.aceCpu;
    r.info["replay.mvms"] = static_cast<double>(replay.mvms);
    r.metrics["share.analog_hct"] = replay.hctCpu / forward;
    r.metrics["share.serve_journal"] = 0.0;
    r.metrics["share.apps_software"] = 0.0;
    r.metrics["unattributed_frac"] = 1.0 - replay.hctCpu / forward;
}

} // namespace perfbench
