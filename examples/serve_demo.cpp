/**
 * @file
 * Serving-cluster demo: mixed AES + LLM tenants on a 4-chip pool,
 * recorded to a journal, replayed bit-identically, and audited
 * against per-tenant SLOs.
 *
 * Four tenants — two AES encryption services sharing one MixColumns
 * model (matrix-affinity placement puts them on the same tiles) and
 * two LLM projection services with private weights — send seeded
 * open-loop traffic through the QoS-aware admission controller
 * (weighted-fair, AES classes weighted 4:1 over LLM), each carrying
 * a latency/availability SLO. The whole run is recorded to an
 * append-only journal (journal/Replayer.h recordServeRun); the demo
 * prints the placement decisions straight from the journal, the
 * per-tenant latency percentiles and SLO burn rates, round-trips
 * the journal through its durable binary format, replays the run
 * from the journal alone, and verifies a sample of outputs against
 * the reference integer MVM.
 *
 *   $ ./serve_demo
 */

#include <cstdio>
#include <sstream>
#include <variant>
#include <vector>

#include "journal/Journal.h"
#include "journal/Replayer.h"
#include "serve/Admission.h"
#include "serve/TrafficGen.h"

int
main()
{
    using namespace darth;
    using namespace darth::serve;

    journal::ServeRunSetup setup;
    // The uniform serving chip at 2 tiles per chip, 4 chips.
    setup.slots.assign(
        4, journal::PoolSlotSetup{journal::SlotKind::Uniform, 2, 1.0});
    setup.uniformPool = true;
    setup.placement = PlacementPolicy::MatrixAffinity;
    setup.trafficSeed = 7;
    setup.horizon = 200000;

    setup.admission.queueDepth = 4;
    setup.admission.qos = QosPolicy::WeightedFair;
    setup.admission.overflow = OverflowPolicy::Block;
    setup.admission.collectOutputs = true;

    setup.tenants.resize(4);
    TenantSpec &payments = setup.tenants[0];
    payments.name = "aes-payments";
    payments.kind = WorkloadKind::Aes;
    payments.weight = 4.0;
    payments.ratePerKns = 3.0;
    payments.modelKey = 0xAE5;
    payments.slo = {5000, 0.999};
    TenantSpec &logging = setup.tenants[1];
    logging = payments;
    logging.name = "aes-logging";
    logging.slo = {10000, 0.99};
    TenantSpec &chat = setup.tenants[2];
    chat.name = "llm-chat";
    chat.kind = WorkloadKind::Llm;
    chat.weight = 1.0;
    chat.ratePerKns = 0.6;
    chat.slo = {50000, 0.99};
    TenantSpec &search = setup.tenants[3];
    search = chat;
    search.name = "llm-search";
    search.slo = {100000, 0.95};

    const journal::ServeRunRecord rec =
        journal::recordServeRun(setup);
    const ServeReport &report = rec.report;

    std::printf("pool: %zu chips x 2 tiles (%s placement)\n",
                setup.slots.size(),
                placementPolicyName(setup.placement));

    // The placement map, read back from the journal itself.
    for (const journal::JournalEvent &e : rec.journal.events()) {
        if (e.kind != journal::EventKind::Placement)
            continue;
        std::printf("  model %llu (%s, key %llx) -> chip %llu%s\n",
                    static_cast<unsigned long long>(e.a),
                    e.note.c_str(),
                    static_cast<unsigned long long>(e.b),
                    static_cast<unsigned long long>(e.c),
                    e.values[0] != 0 ? " (shared placement)" : "");
    }

    std::printf("\ntrace: %zu requests over %llu kcycles -> "
                "%llu served, %llu rejected, makespan %llu kcycles\n",
                rec.trace.size(),
                static_cast<unsigned long long>(setup.horizon / 1000),
                static_cast<unsigned long long>(report.completed),
                static_cast<unsigned long long>(report.rejected),
                static_cast<unsigned long long>(report.makespanNs /
                                                1000));

    std::printf("\n%-14s %7s %8s %8s %8s %7s | %9s %6s %8s\n",
                "tenant", "served", "p50", "p95", "p99", "share",
                "slo", "miss", "burn");
    for (std::size_t t = 0; t < report.tenants.size(); ++t) {
        const TenantStats &stats = report.tenants[t];
        const SampleSummary lat = stats.latencySummary();
        std::printf(
            "%-14s %7llu %8.0f %8.0f %8.0f %6.1f%% | %9llu %6llu "
            "%7.2fx\n",
            stats.name.c_str(),
            static_cast<unsigned long long>(stats.completed), lat.p50,
            lat.p95, lat.p99, 100.0 * report.serviceShare(t),
            static_cast<unsigned long long>(
                stats.slo.spec.latencyTargetNs),
            static_cast<unsigned long long>(stats.slo.violations),
            stats.slo.burnRate());
    }

    // Durable-format round trip: the binary journal parses back into
    // the identical history (chained checksums and all).
    std::stringstream file;
    rec.journal.writeBinary(file);
    const journal::Journal reread =
        journal::Journal::readBinary(file);
    const bool roundtrip = reread == rec.journal;

    // Replay the run from the journal alone and compare every event.
    journal::Replayer replayer(reread);
    const journal::Replayer::Result res = replayer.replay();
    std::printf("\njournal: %zu events, chain %llx; binary "
                "round-trip %s; replay %s\n",
                rec.journal.size(),
                static_cast<unsigned long long>(
                    rec.journal.chainChecksum()),
                roundtrip ? "ok" : "MISMATCH",
                res.identical ? "bit-identical" : "DIVERGED");
    if (!res.identical)
        std::printf("  first mismatch: %s\n", res.detail.c_str());

    // Verify every 97th output against the reference integer MVM,
    // using the trace as the *replayer* reconstructed it.
    TrafficGen gen(setup.trafficSeed);
    const std::vector<ServeRequest> &trace = replayer.trace();
    std::size_t checked = 0;
    bool ok = roundtrip && res.identical &&
              report.completed == trace.size();
    for (std::size_t i = 0; i < trace.size(); i += 97) {
        const ServeRequest &req = trace[i];
        const MatrixI w =
            std::get<MatrixModel>(
                tenantModel(gen, setup.tenants[req.tenant], req.tenant))
                .weights;
        std::vector<i64> want(w.cols(), 0);
        for (std::size_t c = 0; c < w.cols(); ++c)
            for (std::size_t r = 0; r < w.rows(); ++r)
                want[c] += w(r, c) * req.input[r];
        ok = ok && report.outputs[i] == want;
        ++checked;
    }
    std::printf("verified %zu sampled outputs against the "
                "reference MVM: %s\n", checked, ok ? "yes" : "NO");
    return ok ? 0 : 1;
}
