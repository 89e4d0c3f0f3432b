/**
 * @file
 * serve_fleet_stream: an open-loop TraceStream (open loop in
 * simulated time; on the host an offline batch of a fixed request
 * count) streamed into journal::recordServeRunStream on a 64-chip
 * mixed-bin pool (32 SAR @ 1 GHz + 32 ramp @ 2 GHz) with cost-aware
 * placement, weighted-fair QoS, Block backpressure, Stage
 * granularity and the fleet lifecycle (churn, migration,
 * autoscaling) on. A non-retaining Journal feeds a SegmentWriter;
 * after recording, journal::replaySegments re-drives the run from
 * the segments.
 *
 * Chosen because it is the only workload whose host time is carried
 * by admission, the fleet controller, journal writes and reads, and
 * traffic generation; churn reprograms crossbars mid-run, so
 * crossbar writes sit beside MVM reads.
 *
 * The two public extension points are wrapped in timing decorators:
 * TimedSource (serve::RequestSource) marks the end of set-up at the
 * first next() and, traced, spans every pull; TimedSink
 * (journal::JournalSink) spans every record the writer persists.
 */

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "Common.h"
#include "common/Fnv.h"
#include "hct/Hct.h"
#include "journal/Replayer.h"
#include "journal/Segment.h"
#include "serve/ChipConfig.h"
#include "serve/TrafficGen.h"

namespace perfbench
{

namespace
{

using namespace darth;
namespace fs = std::filesystem;

/** Requests per recorded pass (the stated batch size). */
constexpr std::size_t kPassRequests = 40000;
/**
 * Independent request streams per run. Placement, migration and
 * autoscaling react to the exact arrival pattern, so one stream's tail
 * latency and cost per request swing by +-10 % from seed to seed; a run
 * reports figures over kStreams streams drawn from its seed.
 */
constexpr std::size_t kStreams = 4;
/** Requests of the held-out-seed output check. */
constexpr std::size_t kHeldOutRequests = 4000;
/** SAR-baseline tile count of each pool slot (iso-area design). */
constexpr std::size_t kSarHcts = 8;

/**
 * The tenant mix. Micro tenants dominate the request count so that
 * admission, fleet and journal carry a large share of host time;
 * one tenant of each paper shape (AES MixColumns, GF(2) wide bank,
 * CNN im2col, LLM projection) keeps the crossbar physics and its
 * ADC paths in the mix. Churners arrive and depart on staggered
 * windows. Bursty tenants give the autoscaler valleys; their period
 * is fixed (20 us on, 30 us off, ~27 cycles per pass) rather than a
 * share of the horizon, so the latency distribution's shape repeats
 * from seed to seed.
 */
std::vector<serve::TenantSpec>
tenantMix(WallNs horizon)
{
    using serve::TenantSpec;
    using serve::WorkloadKind;
    std::vector<TenantSpec> specs;
    const auto add = [&specs](TenantSpec s) {
        s.name = "t" + std::to_string(specs.size());
        specs.push_back(std::move(s));
    };
    for (std::size_t i = 0; i < 10; ++i) {
        TenantSpec s;
        s.kind = WorkloadKind::Micro;
        s.weight = 1.0 + static_cast<double>(i % 3);
        s.ratePerKns = 1.0;
        add(s);
    }
    for (std::size_t i = 0; i < 4; ++i) {
        TenantSpec s;
        s.kind = WorkloadKind::Micro;
        s.ratePerKns = 3.0;
        s.burst = {20000, 30000};
        add(s);
    }
    for (std::size_t i = 0; i < 6; ++i) {
        TenantSpec s;
        s.kind = WorkloadKind::Micro;
        s.ratePerKns = 1.5;
        s.arriveNs = (i + 1) * horizon / 10;
        s.departNs = s.arriveNs + horizon / 3;
        add(s);
    }
    for (WorkloadKind k : {WorkloadKind::Aes, WorkloadKind::GfWide,
                           WorkloadKind::Cnn, WorkloadKind::Llm}) {
        TenantSpec s;
        s.kind = k;
        s.ratePerKns = 0.4;
        add(s);
    }
    return specs;
}

/**
 * One serve scenario: the deployed models and pool (fixed, from
 * kModelSeed) and the request stream (drawn from the run's seed).
 * Keeping the models fixed keeps placement, and so the simulated
 * latency distribution's shape, comparable across seeds.
 */
struct Scenario
{
    journal::ServeRunSetup setup;
    u64 streamSeed = 0;
    std::size_t requests = 0;
};

/** Weight seed of every tenant's model (serve::TrafficGen). */
constexpr u64 kModelSeed = 9009;

Scenario
makeScenario(u64 seed, std::size_t requests)
{
    Scenario sc;
    sc.streamSeed = seed;
    sc.requests = requests;
    journal::ServeRunSetup &setup = sc.setup;
    setup.uniformPool = false;
    setup.slots.clear();
    for (std::size_t c = 0; c < 32; ++c)
        setup.slots.push_back({journal::SlotKind::Sar, kSarHcts, 1.0});
    for (std::size_t c = 0; c < 32; ++c)
        setup.slots.push_back({journal::SlotKind::Ramp, kSarHcts, 2.0});
    setup.placement = serve::PlacementPolicy::CostAware;
    setup.trafficSeed = kModelSeed;
    // The mix averages ~20 arrivals per 1000 ns; the horizon leaves
    // headroom so the CappedSource, not the horizon, ends the batch.
    setup.horizon = static_cast<WallNs>(requests) * 1000 / 15;
    setup.admission.queueDepth = 2;
    setup.admission.qos = serve::QosPolicy::WeightedFair;
    setup.admission.overflow = serve::OverflowPolicy::Block;
    setup.admission.granularity = serve::Granularity::Stage;
    setup.tenants = tenantMix(setup.horizon);
    setup.fleet = true;
    setup.fleetCfg.checkIntervalNs = 500;
    setup.fleetCfg.backlogHighNs = 3000;
    setup.fleetCfg.backlogLowNs = 300;
    setup.fleetCfg.migrateHighNs = 2000;
    setup.fleetCfg.minActive = 16;
    return sc;
}

/** Seed of stream k of a run. */
u64
streamSeed(u64 seed, std::size_t k)
{
    return seed * kStreams + k;
}

/** The scenario's request stream, capped at its request count. */
struct Stream
{
    explicit Stream(const Scenario &sc)
        : trace(sc.streamSeed, sc.setup.tenants, sc.setup.horizon),
          capped(trace, sc.requests)
    {
    }
    Stream(const Stream &) = delete;
    Stream &operator=(const Stream &) = delete;

    serve::TraceStream trace;
    serve::CappedSource capped;
};

/** RequestSource decorator: set-up ends at the first next(). */
class TimedSource : public serve::RequestSource
{
  public:
    TimedSource(serve::RequestSource &inner, Tracer &tracer,
                bool stopAtFirst)
        : inner_(inner), tracer_(tracer), stopAtFirst_(stopAtFirst)
    {
    }

    bool
    next(serve::ServeRequest &out) override
    {
        if (firstCpu_ < 0.0) {
            firstCpu_ = cpuSeconds();
            if (stopAtFirst_)
                return false;
        }
        ScopedSpan span(tracer_, "serve.source_next");
        return inner_.next(out);
    }

    /** CPU time of the first next() call (-1 before it). */
    double firstCpu() const { return firstCpu_; }

  private:
    serve::RequestSource &inner_;
    Tracer &tracer_;
    bool stopAtFirst_;
    double firstCpu_ = -1.0;
};

/** JournalSink decorator: spans each persisted record. */
class TimedSink : public journal::JournalSink
{
  public:
    TimedSink(journal::JournalSink &inner, Tracer &tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    void
    onRecord(const journal::JournalEvent &event, std::size_t index,
             u64 checksum,
             const std::vector<unsigned char> &encoded) override
    {
        ScopedSpan span(tracer_, "journal.sink");
        inner_.onRecord(event, index, checksum, encoded);
    }

  private:
    journal::JournalSink &inner_;
    Tracer &tracer_;
};

/** One recorded (and optionally replayed) pass. */
struct Pass
{
    serve::ServeReport report;
    double setupCpu = 0.0;
    /** Record phase: first next() to the end of the run. */
    meter::Interval recordIv;
    meter::Interval replayIv;
    double recordCpu = 0.0;
    double replayCpu = 0.0;
    journal::SegmentReplayResult replay;
    u64 chain = 0;
    std::size_t records = 0;
    std::size_t segments = 0;
    std::size_t bytes = 0;
};

std::size_t
dirBytes(const std::string &dir)
{
    std::size_t total = 0;
    for (const auto &entry : fs::directory_iterator(dir))
        total += static_cast<std::size_t>(entry.file_size());
    return total;
}

Pass
runPass(const Scenario &sc, const std::string &dir, Tracer &tracer,
        bool setupOnly, bool replay)
{
    fs::remove_all(dir);
    Pass p;
    const double t0 = cpuSeconds();
    {
        ScopedSpan span(tracer, "serve.record");
        Stream stream(sc);
        TimedSource source(stream.capped, tracer, setupOnly);
        journal::Journal jr;
        journal::SegmentWriter writer(dir);
        TimedSink sink(writer, tracer);
        jr.attachSink(&sink, /*retainEvents*/ false);
        p.report = journal::recordServeRunStream(sc.setup, source, jr);
        writer.finish();
        p.recordIv = {source.firstCpu(), cpuSeconds()};
        p.setupCpu = source.firstCpu() - t0;
        p.recordCpu = meter::netCpu(p.recordIv);
        p.chain = jr.chainChecksum();
        p.records = jr.size();
        p.segments = writer.segments();
    }
    p.bytes = dirBytes(dir);
    if (replay) {
        ScopedSpan span(tracer, "journal.replay");
        p.replayIv.start = cpuSeconds();
        p.replay = journal::replaySegments(dir);
        p.replayIv.end = cpuSeconds();
        p.replayCpu = meter::netCpu(p.replayIv);
    }
    return p;
}

/** Every simulated figure of a pass (compared bit for bit). */
std::map<std::string, double>
simFigures(const Pass &p)
{
    StreamingHistogram lat, queue, service;
    for (const serve::TenantStats &t : p.report.tenants) {
        lat.merge(t.latencyHist);
        queue.merge(t.queueingHist);
        service.merge(t.serviceHist);
    }
    double util_max = 0.0;
    double util_min = 0.0;
    bool any = false;
    for (const serve::ChipStats &c : p.report.chips) {
        if (c.completed == 0)
            continue;
        const double u = c.utilization();
        util_max = any ? std::max(util_max, u) : u;
        util_min = any ? std::min(util_min, u) : u;
        any = true;
    }
    u64 issued = 0, hits = 0, stalls = 0;
    for (const serve::ChipStats &c : p.report.chips) {
        issued += c.issued;
        hits += c.pipelineHits;
        stalls += c.dependencyStalls;
    }
    const serve::FleetStats &f = p.report.fleet;
    const double completed = static_cast<double>(p.report.completed);
    return {
        {"sim_throughput_per_us",
         p.report.makespanNs == 0
             ? 0.0
             : completed * 1000.0 /
                   static_cast<double>(p.report.makespanNs)},
        {"sim_latency_p50_ns", lat.percentile(50.0)},
        {"sim_latency_p99_ns", lat.percentile(99.0)},
        {"sim_latency_samples", static_cast<double>(lat.count())},
        {"serve.queueing_p99_ns", queue.percentile(99.0)},
        {"serve.service_p50_ns", service.percentile(50.0)},
        {"serve.chip_util_max", util_max},
        {"serve.chip_util_min", util_min},
        {"fleet.migrations", static_cast<double>(f.migrations)},
        {"fleet.arrivals", static_cast<double>(f.arrivals)},
        {"fleet.departures", static_cast<double>(f.departures)},
        {"fleet.chip_ups", static_cast<double>(f.chipUps)},
        {"fleet.chip_downs", static_cast<double>(f.chipDowns)},
        {"runtime.issued", static_cast<double>(issued)},
        {"runtime.pipeline_hit_ratio",
         issued == 0 ? 0.0
                     : static_cast<double>(hits) /
                           static_cast<double>(issued)},
        {"runtime.dependency_stalls", static_cast<double>(stalls)},
        {"journal.records", static_cast<double>(p.records)},
        {"journal.segments", static_cast<double>(p.segments)},
        {"journal.bytes", static_cast<double>(p.bytes)},
        {"completed", completed},
        {"rejected", static_cast<double>(p.report.rejected)},
        // Checksums as doubles lose low bits; compare them exactly
        // through their 32-bit halves.
        {"output_checksum_hi",
         static_cast<double>(p.report.outputChecksum >> 32)},
        {"output_checksum_lo",
         static_cast<double>(p.report.outputChecksum & 0xffffffffu)},
        {"journal_chain_hi", static_cast<double>(p.chain >> 32)},
        {"journal_chain_lo", static_cast<double>(p.chain & 0xffffffffu)},
    };
}

/** The reported simulated figures over several streams' passes:
 *  latency percentiles of the merged distributions, throughput as
 *  completions over summed makespans. Folds passes in one at a time,
 *  so no pass has to be kept. */
class MergedFigures
{
  public:
    void
    add(const Pass &p)
    {
        for (const serve::TenantStats &t : p.report.tenants)
            lat_.merge(t.latencyHist);
        completed_ += static_cast<double>(p.report.completed);
        makespan_ += static_cast<double>(p.report.makespanNs);
    }

    std::map<std::string, double>
    figures() const
    {
        return {{"sim_throughput_per_us", completed_ * 1000.0 / makespan_},
                {"sim_latency_p50_ns", lat_.percentile(50.0)},
                {"sim_latency_p99_ns", lat_.percentile(99.0)},
                {"sim_latency_samples", static_cast<double>(lat_.count())}};
    }

  private:
    StreamingHistogram lat_;
    double completed_ = 0.0;
    double makespan_ = 0.0;
};

/**
 * The benchmark's own oracle for the stream: an integer MVM of every
 * request's input against its tenant's weights, folded in request
 * order with the serving checksum's word-wise FNV-1a.
 */
u64
referenceChecksum(const Scenario &sc)
{
    const journal::ServeRunSetup &setup = sc.setup;
    serve::TrafficGen gen(setup.trafficSeed);
    std::vector<MatrixI> weights;
    for (std::size_t t = 0; t < setup.tenants.size(); ++t) {
        const serve::TenantSpec &spec = setup.tenants[t];
        const u64 key = spec.modelKey != 0
                            ? spec.modelKey
                            : serve::TrafficGen::privateModelKey(t);
        weights.push_back(gen.weights(spec.kind, key));
    }
    Stream stream(sc);
    serve::ServeRequest req;
    u64 hash = kFnvOffsetBasis;
    std::vector<i64> want;
    while (stream.capped.next(req)) {
        const MatrixI &w = weights[req.tenant];
        want.assign(w.cols(), 0);
        for (std::size_t r = 0; r < w.rows(); ++r) {
            const i64 x = req.input[r];
            if (x == 0)
                continue;
            for (std::size_t c = 0; c < w.cols(); ++c)
                want[c] += w(r, c) * x;
        }
        hash = fnv1aWords(want, hash);
    }
    return hash;
}

/** Outputs of one pass checked against the benchmark's oracles;
 *  returns the number of failed requests it found. */
u64
checkPass(const Scenario &sc, const Pass &p, const std::string &dir,
          const std::string &tag, Tracer &tracer, Result &r)
{
    const std::size_t requests = sc.requests;
    u64 failed = p.report.rejected;
    r.check(tag + "all_completed",
            p.report.completed == requests && p.report.rejected == 0,
            std::to_string(p.report.completed) + " of " +
                std::to_string(requests));
    if (p.report.completed < requests)
        failed += requests - p.report.completed - p.report.rejected;

    const u64 want = referenceChecksum(sc);
    const bool sum_ok = want == p.report.outputChecksum;
    r.check(tag + "output_checksum_vs_reference_mvm", sum_ok);

    const bool replay_ok =
        p.replay.identical &&
        p.replay.report.outputChecksum == p.report.outputChecksum &&
        p.replay.recordedChain == p.chain;
    r.check(tag + "replay_identical", replay_ok, p.replay.detail);

    // Read the segments back: every Admit must have its Complete.
    std::set<u64> admitted, completed;
    {
        ScopedSpan span(tracer, "journal.read");
        journal::SegmentReader reader(dir);
        journal::JournalEvent e;
        while (reader.next(e)) {
            if (e.kind == journal::EventKind::Admit)
                admitted.insert(e.a);
            else if (e.kind == journal::EventKind::Complete)
                completed.insert(e.a);
        }
    }
    const bool admits_ok =
        admitted == completed && completed.size() == requests;
    r.check(tag + "every_admit_completes", admits_ok,
            std::to_string(admitted.size()) + " admitted, " +
                std::to_string(completed.size()) + " completed");
    // A wrong checksum or a failed replay taints the whole batch.
    if (!sum_ok || !replay_ok || !admits_ok)
        failed = requests;
    return failed;
}

} // namespace

void
runServe(const Options &opt, Tracer &tracer, Result &r)
{
    const std::string dir = opt.workDir + "/serve-segments";
    std::vector<Scenario> streams;
    for (std::size_t k = 0; k < kStreams; ++k)
        streams.push_back(
            makeScenario(streamSeed(opt.seed, k), kPassRequests));
    // The traced run and the set-up processes use the first stream.
    const Scenario &sc = streams.front();

    if (opt.mode == "setup") {
        const Pass p = runPass(sc, dir, tracer, true, false);
        r.metrics["setup_s"] = meter::normalizedSeconds(p.setupCpu);
        r.info["setup_s_raw"] = p.setupCpu;
        r.attempted = 1;
        fs::remove_all(dir);
        return;
    }

    std::vector<DeterminismCheck> det(kStreams);
    std::vector<double> record_rates, replay_rates, raw_rates, speeds;
    double window = 0.0;
    double trace_overhead = 0.0;
    double plain_record = 0.0;
    // Each stream's first pass is checked while its segments are on
    // disk and folded into the reported figures; every later pass of
    // the stream must repeat it bit for bit.
    MergedFigures merged;
    Pass first;
    if (opt.mode == "trace") {
        // One untraced pass, then the traced pass the per-layer
        // numbers come from; their normalised cost difference is the
        // tracer's.
        Tracer off(false);
        const Pass plain = runPass(sc, dir, off, false, true);
        det[0].add(simFigures(plain));
        Pass traced = runPass(sc, dir, tracer, false, true);
        det[0].add(simFigures(traced));
        plain_record = meter::normalizedCpu(plain.recordIv);
        trace_overhead =
            meter::normalizedCpu(traced.recordIv) / plain_record - 1.0;
        r.failed += checkPass(sc, traced, dir, "", tracer, r);
        r.attempted += kPassRequests;
        merged.add(traced);
        first = std::move(traced);
        det[0].report(r, "");
    } else {
        // Every stream runs at least twice, round robin.
        meter::start();
        for (std::size_t i = 0; i < 2 * kStreams || window < opt.seconds;
             ++i) {
            const std::size_t k = i % kStreams;
            Pass p = runPass(streams[k], dir, tracer, false, true);
            det[k].add(simFigures(p));
            window += p.recordCpu + p.replayCpu;
            record_rates.push_back(
                meter::normalizedRate(kPassRequests, p.recordIv));
            replay_rates.push_back(
                meter::normalizedRate(kPassRequests, p.replayIv));
            raw_rates.push_back(kPassRequests / p.recordCpu);
            speeds.push_back(meter::speed(p.recordIv));
            if (i < kStreams) {
                const std::string tag = "stream" + std::to_string(k) + ".";
                r.failed += checkPass(streams[k], p, dir, tag, tracer, r);
                r.attempted += kPassRequests;
                merged.add(p);
            }
        }
        meter::stop();
        for (std::size_t k = 0; k < kStreams; ++k)
            det[k].report(r, "stream" + std::to_string(k) + ".");
    }

    // Held-out seed: a second, smaller stream must pass every check
    // too; its numbers are never reported.
    {
        Tracer off(false);
        const Scenario held =
            makeScenario(opt.seed ^ 0x9E3779B97F4A7C15ULL, kHeldOutRequests);
        const Pass hp = runPass(held, dir, off, false, true);
        r.attempted += kHeldOutRequests;
        r.failed += checkPass(held, hp, dir, "held_out.", off, r);
    }
    fs::remove_all(dir);

    const std::map<std::string, double> figures = merged.figures();
    if (opt.mode == "measure") {
        r.metrics["requests_per_cpu_s"] = median(record_rates);
        r.metrics["replay_requests_per_cpu_s"] = median(replay_rates);
        r.info["requests_per_cpu_s_raw"] = median(raw_rates);
        r.info["host_speed"] = median(speeds);
    }
    r.metrics["peak_rss_mb"] = peakRssMb();
    for (const char *name : {"sim_throughput_per_us", "sim_latency_p50_ns",
                             "sim_latency_p99_ns"})
        r.metrics[name] = figures.at(name);
    r.info["sim_latency_samples"] = figures.at("sim_latency_samples");
    r.info["passes"] = static_cast<double>(record_rates.size());
    r.info["pass_requests"] = static_cast<double>(kPassRequests);
    r.info["window_cpu_s"] = window;

    if (opt.mode != "trace")
        return;
    const journal::ServeRunSetup &setup = sc.setup;
    const std::map<std::string, double> sim = simFigures(first);
    for (const char *name :
         {"serve.queueing_p99_ns", "serve.service_p50_ns",
          "serve.chip_util_max", "serve.chip_util_min",
          "fleet.migrations", "fleet.arrivals", "fleet.departures",
          "fleet.chip_ups", "fleet.chip_downs", "runtime.issued",
          "runtime.pipeline_hit_ratio", "runtime.dependency_stalls",
          "journal.segments"})
        r.metrics[name] = sim.at(name);
    const double requests = static_cast<double>(kPassRequests);
    const double source = tracer.totalSeconds("serve.source_next");
    const double sink = tracer.totalSeconds("journal.sink");
    r.metrics["serve.source_cpu_s"] = source;
    r.metrics["journal.sink_cpu_s"] = sink;
    r.metrics["serve.loop_self_cpu_s"] = first.recordCpu - source - sink;
    r.metrics["serve.record_cpu_s"] = first.recordCpu;
    r.metrics["journal.records_per_request"] =
        static_cast<double>(first.records) / requests;
    r.metrics["journal.bytes_per_request"] =
        static_cast<double>(first.bytes) / requests;
    r.metrics["journal.read_cpu_s"] = tracer.totalSeconds("journal.read");
    r.metrics["journal.replay_cpu_s"] = first.replayCpu;
    r.metrics["trace.overhead_frac"] = trace_overhead;
    r.check("attribution_sums_to_record",
            source + sink <= first.recordCpu,
            "source + sink + loop self = record CPU by construction; "
            "the decorators' spans must nest inside the record phase");

    // Replay the pass's physics on bare tiles: every request's MVM on
    // its tenant's matrix, on a SAR slot's tile (ramp slots convert
    // differently; this prices every request at the SAR design). The
    // requests are drawn first, so only the MVMs are timed.
    const serve::TrafficGen gen(setup.trafficSeed);
    const hct::HctConfig sar_tile =
        serve::heteroChipSpec(analog::AdcKind::Sar, kSarHcts).chip.hct;
    std::vector<std::unique_ptr<hct::Hct>> tiles;
    for (std::size_t t = 0; t < setup.tenants.size(); ++t) {
        const serve::WorkloadKind kind = setup.tenants[t].kind;
        tiles.push_back(std::make_unique<hct::Hct>(sar_tile, nullptr, 1));
        tiles.back()->setMatrix(
            gen.weights(kind, serve::TrafficGen::privateModelKey(t)),
            serve::TrafficGen::elementBits(kind),
            serve::TrafficGen::bitsPerCell(kind));
    }
    std::vector<serve::ServeRequest> requests_in;
    {
        Stream stream(sc);
        serve::ServeRequest req;
        while (stream.capped.next(req))
            requests_in.push_back(std::move(req));
    }
    meter::Interval physics_iv;
    physics_iv.start = cpuSeconds();
    std::vector<Cycle> at(tiles.size(), 0);
    for (const serve::ServeRequest &req : requests_in) {
        const int bits =
            serve::TrafficGen::inputBits(setup.tenants[req.tenant].kind);
        at[req.tenant] =
            tiles[req.tenant]->execMvm(req.input, bits, at[req.tenant]).done;
    }
    physics_iv.end = cpuSeconds();
    const double physics = meter::normalizedCpu(physics_iv);
    // Shares are of the untraced pass's record phase.
    const double record = plain_record;
    r.metrics["share.analog_hct"] = physics / record;
    r.metrics["share.serve_journal"] = 1.0 - physics / record;
    r.metrics["share.apps_software"] = 0.0;
    // serve.source_next_ns: the same stream pulled bare.
    r.metrics["serve.source_next_ns"] = cellNs(
        [&] {
            Stream stream(sc);
            serve::ServeRequest req;
            while (stream.capped.next(req)) {
            }
        },
        kPassRequests);
    // Cell-estimated serve + journal work: ns/op x ops.
    const double cells =
        (r.metrics.at("serve.source_next_ns") * requests +
         (r.metrics.at("journal.append_ns") +
          r.metrics.at("journal.segment_write_ns")) *
             static_cast<double>(first.records)) *
        1e-9;
    r.info["replay.hct_cpu_s"] = physics;
    r.metrics["unattributed_frac"] = 1.0 - (physics + cells) / record;
}

} // namespace perfbench
