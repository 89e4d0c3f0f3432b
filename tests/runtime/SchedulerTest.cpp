/**
 * @file
 * Tests for the asynchronous session API: the submission queue,
 * cross-HCT packing, per-session isolation, RAII handle lifetime,
 * and bit-identity between interleaved and sequential execution.
 */

#include <array>
#include <map>
#include <stdexcept>
#include <utility>

#include <gtest/gtest.h>

#include "common/Fnv.h"
#include "common/Random.h"
#include "runtime/Runtime.h"

namespace darth
{
namespace runtime
{
namespace
{

ChipConfig
smallChip(std::size_t num_hcts = 4)
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

MatrixI
randomMatrix(std::size_t rows, std::size_t cols, i64 lo, i64 hi,
             u64 seed)
{
    Rng rng(seed);
    MatrixI m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            m(r, c) = rng.uniformInt(lo, hi);
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

std::vector<std::vector<i64>>
randomInputs(std::size_t count, std::size_t len, u64 seed)
{
    Rng rng(seed);
    std::vector<std::vector<i64>> inputs(count,
                                         std::vector<i64>(len, 0));
    for (auto &x : inputs)
        for (auto &v : x)
            v = rng.uniformInt(i64{-4}, i64{3});
    return inputs;
}

// Acceptance: two sessions interleaving submissions on one chip get
// isolated handles and results bit-identical to running the same
// work sequentially, one blocking MVM at a time, on a fresh chip.
TEST(Scheduler, InterleavedSessionsMatchSequentialExecution)
{
    const MatrixI m_a = randomMatrix(8, 8, -2, 2, 501);
    const MatrixI m_b = randomMatrix(8, 8, -3, 3, 502);
    const auto inputs_a = randomInputs(6, 8, 503);
    const auto inputs_b = randomInputs(6, 8, 504);

    // Interleaved: both sessions submit everything before waiting.
    Chip chip(smallChip(4));
    Runtime rt(chip);
    Session tenant_a = rt.createSession();
    Session tenant_b = rt.createSession();
    const MatrixHandle handle_a = tenant_a.setMatrix(m_a, 2, 0);
    const MatrixHandle handle_b = tenant_b.setMatrix(m_b, 2, 0);
    EXPECT_NE(handle_a.plan().parts[0].hctIndex,
              handle_b.plan().parts[0].hctIndex);

    std::vector<MvmFuture> futures_a, futures_b;
    for (std::size_t i = 0; i < inputs_a.size(); ++i) {
        futures_a.push_back(tenant_a.submit(handle_a, inputs_a[i], 3));
        futures_b.push_back(tenant_b.submit(handle_b, inputs_b[i], 3));
    }
    EXPECT_EQ(rt.scheduler().pendingCount(),
              inputs_a.size() + inputs_b.size());

    // Sequential: one fresh chip per tenant, strictly blocking.
    Chip seq_chip_a(smallChip(4));
    Runtime seq_rt_a(seq_chip_a);
    Session seq_a = seq_rt_a.createSession();
    const MatrixHandle seq_handle_a = seq_a.setMatrix(m_a, 2, 0);
    Chip seq_chip_b(smallChip(4));
    Runtime seq_rt_b(seq_chip_b);
    Session seq_b = seq_rt_b.createSession();
    const MatrixHandle seq_handle_b = seq_b.setMatrix(m_b, 2, 0);

    for (std::size_t i = 0; i < inputs_a.size(); ++i) {
        const auto got_a = tenant_a.wait(futures_a[i]);
        const auto got_b = tenant_b.wait(futures_b[i]);
        const auto want_a = seq_a.execMVM(seq_handle_a, inputs_a[i], 3);
        const auto want_b = seq_b.execMVM(seq_handle_b, inputs_b[i], 3);
        EXPECT_EQ(got_a.values, want_a.values) << "tenant A, MVM " << i;
        EXPECT_EQ(got_b.values, want_b.values) << "tenant B, MVM " << i;
        EXPECT_EQ(got_a.values, reference(m_a, inputs_a[i]));
        EXPECT_EQ(got_b.values, reference(m_b, inputs_b[i]));
    }
    EXPECT_EQ(rt.scheduler().pendingCount(), 0u);
}

TEST(Scheduler, SessionsCannotUseForeignHandles)
{
    Chip chip(smallChip(4));
    Runtime rt(chip);
    Session tenant_a = rt.createSession();
    Session tenant_b = rt.createSession();
    const MatrixHandle handle_a =
        tenant_a.setMatrix(randomMatrix(8, 8, 0, 1, 505), 1, 0);
    EXPECT_THROW(tenant_b.submit(handle_a, std::vector<i64>(8, 1), 1),
                 std::invalid_argument);
    // The rightful owner is unaffected.
    EXPECT_EQ(tenant_a.execMVM(handle_a, std::vector<i64>(8, 1), 1)
                  .values,
              reference(handle_a.matrix(), std::vector<i64>(8, 1)));
}

TEST(Scheduler, HandleMoveTransfersOwnership)
{
    Chip chip(smallChip(2));
    Runtime rt(chip);
    Session session = rt.createSession();
    MatrixHandle a =
        session.setMatrix(randomMatrix(8, 8, 0, 1, 506), 1, 0);
    const MatrixI m = a.matrix();
    MatrixHandle b = std::move(a);
    EXPECT_FALSE(a.valid());
    EXPECT_TRUE(b.valid());
    EXPECT_THROW(session.submit(a, std::vector<i64>(8, 1), 1),
                 std::invalid_argument);
    EXPECT_EQ(session.execMVM(b, std::vector<i64>(8, 1), 1).values,
              reference(m, std::vector<i64>(8, 1)));
    // release() is idempotent and frees the tile.
    b.release();
    b.release();
    EXPECT_EQ(rt.freeHcts(), 2u);
}

TEST(Scheduler, PendingWorkSurvivesHandleRelease)
{
    // Releasing a handle drains its in-flight MVMs; the futures stay
    // resolvable afterwards.
    Chip chip(smallChip(2));
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixI m = randomMatrix(8, 8, -1, 1, 507);
    MatrixHandle handle = session.setMatrix(m, 1, 0);
    const std::vector<i64> x(8, 1);
    const MvmFuture future = session.submit(handle, x, 1);
    handle.release();
    EXPECT_EQ(rt.freeHcts(), 2u);
    EXPECT_EQ(session.wait(future).values, reference(m, x));
}

TEST(Scheduler, DisjointPlacementsOverlapInTime)
{
    // Two matrices on different tiles: a batch against each overlaps
    // in simulated time, so the makespan is far below the serialized
    // sum.
    Chip chip(smallChip(2));
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixHandle a =
        session.setMatrix(randomMatrix(8, 8, -1, 1, 508), 1, 0);
    const MatrixHandle b =
        session.setMatrix(randomMatrix(8, 8, -1, 1, 509), 1, 0);
    const std::vector<i64> x(8, 1);
    const MvmFuture fa = session.submit(a, x, 2);
    const MvmFuture fb = session.submit(b, x, 2);
    const auto ra = session.wait(fa);
    const auto rb = session.wait(fb);
    // Both start at cycle 0 on their own tile.
    EXPECT_EQ(ra.start, 0u);
    EXPECT_EQ(rb.start, 0u);
    EXPECT_EQ(rt.scheduler().makespan(),
              std::max(ra.done, rb.done));
}

TEST(Scheduler, SameMatrixStreamIssuesAtAmortizedRate)
{
    // Back-to-back MVMs against one placement pipeline at the
    // KernelModel amortized rate (the throughput the mappers and
    // fig13 assume), not at the full serialized latency.
    const auto cfg = smallChip(1);
    Chip chip(cfg);
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixHandle handle =
        session.setMatrix(randomMatrix(8, 8, -1, 1, 510), 1, 0);

    constexpr std::size_t kBatch = 5;
    std::vector<MvmFuture> futures;
    for (std::size_t i = 0; i < kBatch; ++i)
        futures.push_back(
            session.submit(handle, std::vector<i64>(8, 1), 2));

    KernelModel km(cfg.hct);
    const auto oracle = km.mvm(MvmShape{8, 8, 1, 1, 2});
    Cycle prev_done = 0;
    for (std::size_t i = 0; i < kBatch; ++i) {
        const auto result = session.wait(futures[i]);
        if (i == 0) {
            EXPECT_EQ(result.done, oracle.latency);
        } else {
            EXPECT_EQ(result.done - prev_done, oracle.amortized)
                << "MVM " << i << " did not pipeline";
        }
        prev_done = result.done;
    }
}

TEST(Scheduler, WaitAllDrainsEverything)
{
    Chip chip(smallChip(2));
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixHandle handle =
        session.setMatrix(randomMatrix(8, 8, 0, 1, 511), 1, 0);
    for (int i = 0; i < 4; ++i)
        (void)session.submit(handle, std::vector<i64>(8, 1), 1);
    EXPECT_EQ(rt.scheduler().pendingCount(), 4u);
    session.waitAll();
    EXPECT_EQ(rt.scheduler().pendingCount(), 0u);
    EXPECT_EQ(rt.scheduler().completedCount(), 4u);
    EXPECT_GT(rt.scheduler().makespan(), 0u);
}

TEST(Scheduler, SessionWaitAllLeavesOtherSessionsQueued)
{
    Chip chip(smallChip(2));
    Runtime rt(chip);
    Session tenant_a = rt.createSession();
    Session tenant_b = rt.createSession();
    const MatrixHandle handle_a =
        tenant_a.setMatrix(randomMatrix(8, 8, 0, 1, 512), 1, 0);
    const MatrixHandle handle_b =
        tenant_b.setMatrix(randomMatrix(8, 8, 0, 1, 513), 1, 0);
    (void)tenant_a.submit(handle_a, std::vector<i64>(8, 1), 1);
    const MvmFuture fb =
        tenant_b.submit(handle_b, std::vector<i64>(8, 1), 1);
    tenant_a.waitAll();
    EXPECT_EQ(rt.scheduler().pendingCount(), 1u);
    EXPECT_EQ(tenant_b.wait(fb).values,
              reference(handle_b.matrix(), std::vector<i64>(8, 1)));
}

TEST(Scheduler, CrossSessionWaitIsRejected)
{
    // Result isolation: a session cannot resolve (and consume)
    // another session's future, before or after execution.
    Chip chip(smallChip(2));
    Runtime rt(chip);
    Session tenant_a = rt.createSession();
    Session tenant_b = rt.createSession();
    const MatrixI m = randomMatrix(8, 8, -1, 1, 516);
    const MatrixHandle handle_a = tenant_a.setMatrix(m, 1, 0);
    const std::vector<i64> x(8, 1);
    const MvmFuture pending = tenant_a.submit(handle_a, x, 1);
    EXPECT_THROW((void)tenant_b.wait(pending), std::invalid_argument);
    const MvmFuture executed = tenant_a.submit(handle_a, x, 1);
    tenant_a.waitAll();
    EXPECT_THROW((void)tenant_b.wait(executed),
                 std::invalid_argument);
    // The owner still collects both.
    EXPECT_EQ(tenant_a.wait(pending).values, reference(m, x));
    EXPECT_EQ(tenant_a.wait(executed).values, reference(m, x));
}

TEST(Scheduler, MidStreamEarliestStillPaysFullLatency)
{
    // A request whose `earliest` lands inside a running same-matrix
    // stream pipelines, but can never complete sooner than one full
    // MVM after its own issue cycle.
    const auto cfg = smallChip(1);
    Chip chip(cfg);
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixHandle handle =
        session.setMatrix(randomMatrix(8, 8, -1, 1, 517), 1, 0);
    KernelModel km(cfg.hct);
    const auto oracle = km.mvm(MvmShape{8, 8, 1, 1, 2});

    const MvmFuture first =
        session.submit(handle, std::vector<i64>(8, 1), 2);
    // Issue just before the first MVM completes.
    const Cycle mid = oracle.latency - 1;
    const MvmFuture second =
        session.submit(handle, std::vector<i64>(8, 1), 2, mid);
    (void)session.wait(first);
    const auto result = session.wait(second);
    EXPECT_GE(result.start, mid);
    EXPECT_GE(result.done, result.start + oracle.latency);
}

TEST(Scheduler, FuturesResolveExactlyOnce)
{
    Chip chip(smallChip(1));
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixHandle handle =
        session.setMatrix(randomMatrix(8, 8, 0, 1, 514), 1, 0);
    const MvmFuture future =
        session.submit(handle, std::vector<i64>(8, 1), 1);
    (void)session.wait(future);
    EXPECT_THROW((void)session.wait(future), std::invalid_argument);
    EXPECT_THROW((void)session.wait(MvmFuture{}),
                 std::invalid_argument);
}

TEST(Scheduler, SessionTeardownDrainsAndDiscards)
{
    // A session that dies with queued work executes it (handles may
    // outlive the session object) but its uncollected results are
    // dropped rather than retained forever.
    Chip chip(smallChip(2));
    Runtime rt(chip);
    {
        Session session = rt.createSession();
        const MatrixHandle handle =
            session.setMatrix(randomMatrix(8, 8, 0, 1, 518), 1, 0);
        for (int i = 0; i < 3; ++i)
            (void)session.submit(handle, std::vector<i64>(8, 1), 1);
        EXPECT_EQ(rt.scheduler().pendingCount(), 3u);
    }
    EXPECT_EQ(rt.scheduler().pendingCount(), 0u);
    EXPECT_EQ(rt.scheduler().completedCount(), 3u);
    EXPECT_EQ(rt.scheduler().uncollectedCount(), 0u);
    // The chip is fully reusable by the next tenant.
    EXPECT_EQ(rt.freeHcts(), 2u);
    Session next = rt.createSession();
    const MatrixI m = randomMatrix(8, 8, -1, 1, 519);
    const MatrixHandle handle = next.setMatrix(m, 1, 0);
    EXPECT_EQ(next.execMVM(handle, std::vector<i64>(8, 1), 1).values,
              reference(m, std::vector<i64>(8, 1)));
}

TEST(Scheduler, PipelinedStreamDoesNotInflateLaterIdleIssue)
{
    // The functional Hct executes pipelined same-matrix streams
    // serially, so its internal clock would drift ahead of the
    // modeled amortized timeline; the scheduler rebases it after
    // every issue. A request issued after the stream drains must pay
    // one MVM latency from its own start, not the phantom serial
    // time.
    const auto cfg = smallChip(1);
    Chip chip(cfg);
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixHandle handle =
        session.setMatrix(randomMatrix(8, 8, 0, 1, 526), 1, 0);
    KernelModel km(cfg.hct);
    const auto oracle = km.mvm(MvmShape{8, 8, 1, 1, 2});

    for (int i = 0; i < 10; ++i)
        (void)session.submit(handle, std::vector<i64>(8, 1), 2);
    session.waitAll();
    const Cycle drained = rt.scheduler().makespan();
    // Well past the drained schedule, but far less than the serial
    // sum the tile would have accumulated without the rebase.
    const Cycle late = drained + 2 * oracle.latency;
    ASSERT_LT(late, 10 * oracle.latency);
    const auto result = session.execMVM(
        handle, std::vector<i64>(8, 1), 2, late);
    EXPECT_EQ(result.start, late);
    EXPECT_EQ(result.done, late + oracle.latency);
}

TEST(Scheduler, QueueDepthAndPendingRequestsTrackSessions)
{
    Chip chip(smallChip(3));
    Runtime rt(chip);
    Session tenant_a = rt.createSession();
    Session tenant_b = rt.createSession();
    // Two distinct matrices for tenant A so draining its session
    // cannot opportunistically pipeline into tenant B's tile.
    const MatrixHandle handle_a1 =
        tenant_a.setMatrix(randomMatrix(8, 8, 0, 1, 520), 1, 0);
    const MatrixHandle handle_a2 =
        tenant_a.setMatrix(randomMatrix(8, 8, 0, 1, 525), 1, 0);
    const MatrixHandle handle_b =
        tenant_b.setMatrix(randomMatrix(8, 8, 0, 1, 521), 1, 0);
    EXPECT_EQ(rt.scheduler().queueDepth(), 0u);
    (void)tenant_a.submit(handle_a1, std::vector<i64>(8, 1), 1);
    (void)tenant_a.submit(handle_a2, std::vector<i64>(8, 1), 1);
    (void)tenant_b.submit(handle_b, std::vector<i64>(8, 1), 1);
    EXPECT_EQ(rt.scheduler().queueDepth(), 3u);
    EXPECT_EQ(rt.scheduler().queueDepth(),
              rt.scheduler().pendingCount());
    EXPECT_EQ(rt.scheduler().pendingRequests(tenant_a.id()), 2u);
    EXPECT_EQ(rt.scheduler().pendingRequests(tenant_b.id()), 1u);
    EXPECT_EQ(rt.scheduler().pendingRequests(999), 0u);
    tenant_a.waitAll();
    EXPECT_EQ(rt.scheduler().pendingRequests(tenant_a.id()), 0u);
    EXPECT_EQ(rt.scheduler().queueDepth(), 1u);
    EXPECT_EQ(rt.scheduler().pendingRequests(tenant_b.id()), 1u);
}

TEST(Scheduler, DequeueHookOverridesGreedyOrder)
{
    // Two queued requests on disjoint tiles: the greedy default
    // executes the first-submitted one when resolving it; a hook that
    // picks the newest id executes the other one first instead.
    auto run_case = [](bool install_hook) {
        Chip chip(smallChip(2));
        Runtime rt(chip);
        if (install_hook)
            rt.scheduler().setDequeueHook(
                [](const std::vector<QueuedRequest> &queue) {
                    std::size_t best = 0;
                    for (std::size_t i = 1; i < queue.size(); ++i)
                        if (queue[i].id > queue[best].id)
                            best = i;
                    return best;
                });
        Session session = rt.createSession();
        const MatrixHandle a =
            session.setMatrix(randomMatrix(8, 8, 0, 1, 522), 1, 0);
        const MatrixHandle b =
            session.setMatrix(randomMatrix(8, 8, 0, 1, 523), 1, 0);
        const MvmFuture fa =
            session.submit(a, std::vector<i64>(8, 1), 1);
        (void)session.submit(b, std::vector<i64>(8, 1), 1);
        (void)session.wait(fa);
        // Greedy: only `fa` has executed, `fb` is still queued.
        // Newest-first hook: `fb` executed on the way to `fa`.
        return rt.scheduler().uncollectedCount();
    };
    EXPECT_EQ(run_case(false), 0u);
    EXPECT_EQ(run_case(true), 1u);
}

TEST(Scheduler, SubmissionOrderHookKeepsFifoTimingUnderEarliest)
{
    // A same-matrix stream submitted out of earliest order: the
    // greedy packer would run the unconstrained request first; the
    // submission-order hook serves strictly in submission order, so
    // the later-submitted request pays the pipeline spacing.
    const auto cfg = smallChip(1);
    KernelModel km(cfg.hct);
    const auto oracle = km.mvm(MvmShape{8, 8, 1, 1, 2});

    Chip chip(cfg);
    Runtime rt(chip);
    rt.scheduler().setDequeueHook(Scheduler::submissionOrderHook());
    Session session = rt.createSession();
    const MatrixHandle handle =
        session.setMatrix(randomMatrix(8, 8, 0, 1, 524), 1, 0);
    const Cycle late = 10 * oracle.latency;
    const MvmFuture constrained =
        session.submit(handle, std::vector<i64>(8, 1), 2, late);
    const MvmFuture free_req =
        session.submit(handle, std::vector<i64>(8, 1), 2);
    const auto r_constrained = session.wait(constrained);
    const auto r_free = session.wait(free_req);
    // Submission order was honoured: the unconstrained request ran
    // second, into the pipeline the constrained one opened.
    EXPECT_EQ(r_constrained.start, late);
    EXPECT_GE(r_free.start, late);
}

TEST(Scheduler, EarliestBoundsTheStartCycle)
{
    Chip chip(smallChip(1));
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixHandle handle =
        session.setMatrix(randomMatrix(8, 8, 0, 1, 515), 1, 0);
    const auto result = session.execMVM(
        handle, std::vector<i64>(8, 1), 1, /*earliest=*/1000);
    EXPECT_GE(result.start, 1000u);
    EXPECT_GT(result.done, 1000u);
}

TEST(Scheduler, AfterDependencyBoundsStartAcrossHandles)
{
    // Two handles on disjoint tiles would normally overlap at cycle
    // 0; an `after` dependency serializes them: the dependent MVM
    // starts no earlier than the dependency's completion. Values
    // stay bit-exact either way.
    const MatrixI m_a = randomMatrix(8, 8, -2, 2, 530);
    const MatrixI m_b = randomMatrix(8, 8, -2, 2, 531);
    const std::vector<i64> x(8, 1);

    Chip chip(smallChip(2));
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixHandle a = session.setMatrix(m_a, 2, 0);
    const MatrixHandle b = session.setMatrix(m_b, 2, 0);

    const MvmFuture fa = session.submit(a, x, 2);
    const MvmFuture fb = session.submit(b, x, 2, 0, {fa});
    const auto ra = session.wait(fa);
    const auto rb = session.wait(fb);
    EXPECT_EQ(ra.start, 0u);
    EXPECT_GE(rb.start, ra.done);
    EXPECT_EQ(ra.values, reference(m_a, x));
    EXPECT_EQ(rb.values, reference(m_b, x));

    // Control: without the dependency both placements start at 0.
    Chip free_chip(smallChip(2));
    Runtime free_rt(free_chip);
    Session free_session = free_rt.createSession();
    const MatrixHandle fa2 = free_session.setMatrix(m_a, 2, 0);
    const MatrixHandle fb2 = free_session.setMatrix(m_b, 2, 0);
    (void)free_session.submit(fa2, x, 2);
    const MvmFuture overlap = free_session.submit(fb2, x, 2);
    EXPECT_EQ(free_session.wait(overlap).start, 0u);
}

TEST(Scheduler, AfterChainDrainsDeterministically)
{
    // A three-stage chain across distinct handles, combined with an
    // `earliest` bound on the head: waiting only the tail must first
    // execute the chain in dependency order, and every link's start
    // clears its predecessor's done cycle.
    const MatrixI m_a = randomMatrix(8, 8, -1, 1, 532);
    const MatrixI m_b = randomMatrix(8, 8, -1, 1, 533);
    const MatrixI m_c = randomMatrix(8, 8, -1, 1, 534);
    const std::vector<i64> x(8, 1);

    Chip chip(smallChip(3));
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixHandle a = session.setMatrix(m_a, 1, 0);
    const MatrixHandle b = session.setMatrix(m_b, 1, 0);
    const MatrixHandle c = session.setMatrix(m_c, 1, 0);

    const MvmFuture fa =
        session.submit(a, x, 1, /*earliest=*/500);
    const MvmFuture fb = session.submit(b, x, 1, 0, {fa});
    const MvmFuture fc = session.submit(c, x, 1, 0, {fb});

    // Resolving the tail drains the chain (dependency-ready requests
    // only), leaving the earlier results collectable.
    const auto rc = session.wait(fc);
    EXPECT_EQ(rt.scheduler().pendingCount(), 0u);
    const auto ra = session.wait(fa);
    const auto rb = session.wait(fb);
    EXPECT_GE(ra.start, 500u);
    EXPECT_GE(rb.start, ra.done);
    EXPECT_GE(rc.start, rb.done);
    EXPECT_EQ(rc.values, reference(m_c, x));
}

TEST(Scheduler, AfterRejectsInvalidFutures)
{
    Chip chip(smallChip(1));
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixI m = randomMatrix(8, 8, 0, 1, 535);
    const MatrixHandle handle = session.setMatrix(m, 1, 0);
    EXPECT_THROW(session.submit(handle, std::vector<i64>(8, 1), 1, 0,
                                {MvmFuture{}}),
                 std::invalid_argument);
    // A caught validation throw must not desynchronize request ids
    // from the dependency bookkeeping: later submits and dependency
    // chains keep working.
    const std::vector<i64> x(8, 1);
    const MvmFuture fa = session.submit(handle, x, 1);
    const MvmFuture fb = session.submit(handle, x, 1, 0, {fa});
    const auto ra = session.wait(fa);
    const auto rb = session.wait(fb);
    EXPECT_GE(rb.start, ra.done);
    EXPECT_EQ(rb.values, reference(m, x));
}

TEST(Scheduler, AfterRejectsForeignSchedulerFutures)
{
    // Ids are per-scheduler; a future issued by another chip's
    // scheduler must be rejected, not silently bound to whatever
    // local request shares the id.
    Chip chip_a(smallChip(1)), chip_b(smallChip(1));
    Runtime rt_a(chip_a), rt_b(chip_b);
    Session sa = rt_a.createSession();
    Session sb = rt_b.createSession();
    const MatrixHandle ha =
        sa.setMatrix(randomMatrix(8, 8, 0, 1, 540), 1, 0);
    const MatrixHandle hb =
        sb.setMatrix(randomMatrix(8, 8, 0, 1, 541), 1, 0);
    const MvmFuture foreign =
        sa.submit(ha, std::vector<i64>(8, 1), 1);
    EXPECT_THROW(sb.submit(hb, std::vector<i64>(8, 1), 1, 0,
                           {foreign}),
                 std::invalid_argument);
    sa.waitAll();
}

TEST(Scheduler, CountersTrackPipelineHitsAndDependencyStalls)
{
    Chip chip(smallChip(2));
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixHandle a =
        session.setMatrix(randomMatrix(8, 8, 0, 1, 536), 1, 0);
    const MatrixHandle b =
        session.setMatrix(randomMatrix(8, 8, 0, 1, 537), 1, 0);
    const std::vector<i64> x(8, 1);

    // Three back-to-back MVMs on one placement: the second and third
    // pipeline into the running stream.
    MvmFuture last_a;
    for (int i = 0; i < 3; ++i)
        last_a = session.submit(a, x, 1);
    session.waitAll();
    EXPECT_EQ(rt.scheduler().counters().issued, 3u);
    EXPECT_EQ(rt.scheduler().counters().pipelineHits, 2u);
    EXPECT_EQ(rt.scheduler().counters().dependencyStalls, 0u);

    // A dependent MVM on an idle tile: only the dependency delays it.
    const MvmFuture fb = session.submit(b, x, 1, 0, {last_a});
    (void)session.wait(fb);
    EXPECT_EQ(rt.scheduler().counters().issued, 4u);
    EXPECT_EQ(rt.scheduler().counters().dependencyStalls, 1u);
}

TEST(Scheduler, QueuedRequestViewCarriesOracleCostAndReadiness)
{
    const auto cfg = smallChip(2);
    Chip chip(cfg);
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixHandle a =
        session.setMatrix(randomMatrix(8, 8, 0, 1, 538), 1, 0);
    const MatrixHandle b =
        session.setMatrix(randomMatrix(8, 8, 0, 1, 539), 1, 0);

    // Capture the queue view the first time the hook fires, then
    // fall back to the greedy order (out-of-range pick).
    std::vector<QueuedRequest> seen;
    rt.scheduler().setDequeueHook(
        [&seen](const std::vector<QueuedRequest> &queue) {
            if (seen.empty())
                seen = queue;
            return queue.size();
        });

    const MvmFuture fa = session.submit(a, std::vector<i64>(8, 1), 2);
    (void)session.submit(b, std::vector<i64>(8, 1), 2, 0, {fa});
    session.waitAll();

    ASSERT_EQ(seen.size(), 2u);
    // The dependency-free request is ready; the dependent one is not
    // until its dependency executes.
    EXPECT_TRUE(seen[0].ready);
    EXPECT_FALSE(seen[1].ready);
    // Both carry the KernelModel oracle latency of their shape.
    KernelModel km(cfg.hct);
    const Cycle oracle = km.mvm(MvmShape{8, 8, 1, 1, 2}).latency;
    EXPECT_EQ(seen[0].oracleCost, oracle);
    EXPECT_EQ(seen[1].oracleCost, oracle);
}

TEST(Scheduler, BacklogCyclesTracksQueuedOracleWork)
{
    // backlogCycles is queue pressure in cycles: the summed oracle
    // latency of unexecuted requests, falling as the queue drains —
    // the load term of the pool's CostAware placement.
    const ChipConfig cfg = smallChip(1);
    Chip chip(cfg);
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixI m = randomMatrix(8, 8, -2, 2, 520);
    const MatrixHandle handle = session.setMatrix(m, 2, 0);

    EXPECT_EQ(rt.scheduler().backlogCycles(), 0u);
    const Cycle oracle =
        rt.scheduler().oracleCost(handle.plan(), 3);
    ASSERT_GT(oracle, 0u);

    std::vector<MvmFuture> futures;
    for (int i = 0; i < 3; ++i)
        futures.push_back(
            session.submit(handle, std::vector<i64>(8, 1), 3));
    EXPECT_EQ(rt.scheduler().backlogCycles(), 3 * oracle);

    // Waiting one future drains it (and everything the greedy order
    // executes first); the backlog shrinks accordingly.
    (void)session.wait(futures[0]);
    EXPECT_LT(rt.scheduler().backlogCycles(), 3 * oracle);
    session.waitAll();
    EXPECT_EQ(rt.scheduler().backlogCycles(), 0u);
}

TEST(Scheduler, LaterSubmissionOnAnotherPlacementWinsOnStart)
{
    // The greedy order is earliest achievable start, not queue order:
    // a request submitted later against an idle placement runs before
    // an older request held back by its `earliest` bound.
    Chip chip(smallChip(2));
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixHandle a =
        session.setMatrix(randomMatrix(8, 8, 0, 1, 542), 1, 0);
    const MatrixHandle b =
        session.setMatrix(randomMatrix(8, 8, 0, 1, 543), 1, 0);
    const MvmFuture held =
        session.submit(a, std::vector<i64>(8, 1), 1, /*earliest=*/5000);
    const MvmFuture free_req =
        session.submit(b, std::vector<i64>(8, 1), 1);
    const auto r_held = session.wait(held);
    // Resolving the older request executed the newer one first.
    EXPECT_EQ(rt.scheduler().pendingCount(), 0u);
    EXPECT_EQ(rt.scheduler().uncollectedCount(), 1u);
    EXPECT_EQ(r_held.start, 5000u);
    EXPECT_EQ(session.wait(free_req).start, 0u);
}

TEST(Scheduler, LowestIdWithLargestBoundIsNotPickedFirst)
{
    // Within one placement the front of the queue carries the largest
    // bound, so the pick skips it: the younger unconstrained requests
    // stream through the tile first, in submission order.
    Chip chip(smallChip(1));
    Runtime rt(chip);
    Session session = rt.createSession();
    const MatrixHandle handle =
        session.setMatrix(randomMatrix(8, 8, -1, 1, 544), 1, 0);
    const std::vector<i64> x(8, 1);
    const MvmFuture front = session.submit(handle, x, 2, 9000);
    const MvmFuture second = session.submit(handle, x, 2, 0);
    const MvmFuture third = session.submit(handle, x, 2, 100);
    const auto r_third = session.wait(third);
    EXPECT_EQ(rt.scheduler().pendingCount(), 1u);
    EXPECT_EQ(rt.scheduler().uncollectedCount(), 1u);
    const auto r_second = session.wait(second);
    const auto r_front = session.wait(front);
    EXPECT_EQ(r_second.start, 0u);
    EXPECT_GT(r_third.start, r_second.start);
    EXPECT_LT(r_third.start, r_front.start);
    EXPECT_EQ(r_front.start, 9000u);
}

/** Pinned outcome of one random drain mix (see drainMix). */
struct DrainOutcome
{
    u64 digest = 0;
    u64 issued = 0;
    u64 pipelineHits = 0;
    u64 dependencyStalls = 0;
    Cycle makespan = 0;
};

/**
 * One random mix on a small chip: five placements (single part,
 * column stripes, row splits over one and two column tiles) across
 * two sessions; submits with varied `earliest` bounds and `after`
 * edges across handles; waits in random order interleaved with
 * waitAll, drainSession and drainMatrix; a newest-first hook with
 * out-of-range picks, then the submission-order hook, then none.
 * The digest folds every result's (id, start, done, values) in id
 * order and every queue view the hooks saw.
 */
DrainOutcome
drainMix(u64 seed)
{
    Chip chip(smallChip(12));
    Runtime rt(chip);
    Scheduler &sched = rt.scheduler();
    Session tenant_a = rt.createSession();
    Session tenant_b = rt.createSession();

    struct Target
    {
        Session *session;
        MatrixHandle handle;
    };
    std::vector<Target> targets;
    auto place = [&](Session &s, std::size_t rows, std::size_t cols,
                     int element_bits) {
        const i64 lo = -(i64{1} << (element_bits - 1));
        targets.push_back(
            {&s, s.setMatrixBits(randomMatrix(rows, cols, lo, -lo - 1,
                                              seed * 16 + targets.size()),
                                 element_bits, 1)});
    };
    place(tenant_a, 8, 8, 2);
    place(tenant_a, 8, 40, 2);
    place(tenant_a, 40, 8, 2);
    place(tenant_b, 24, 16, 4);
    place(tenant_b, 8, 8, 2);
    EXPECT_EQ(targets[1].handle.plan().parts.size(), 2u);
    EXPECT_FALSE(targets[1].handle.plan().rowSplit);
    EXPECT_TRUE(targets[2].handle.plan().rowSplit);
    EXPECT_EQ(targets[3].handle.plan().parts.size(), 4u);
    EXPECT_TRUE(targets[3].handle.plan().rowSplit);

    u64 view_digest = kFnvOffsetBasis;
    std::size_t hook_calls = 0;
    auto newest_first = [&](const std::vector<QueuedRequest> &queue) {
        for (const QueuedRequest &q : queue)
            for (u64 word :
                 {q.id, q.session, static_cast<u64>(q.handle),
                  q.earliest, q.achievableStart, q.oracleCost,
                  static_cast<u64>(q.ready)})
                view_digest = fnv1aWord(word, view_digest);
        // Every fifth pick is out of range; a newest pick that is not
        // ready yet also falls back to the greedy order.
        if (++hook_calls % 5 == 0)
            return queue.size();
        std::size_t best = 0;
        for (std::size_t i = 1; i < queue.size(); ++i)
            if (queue[i].id > queue[best].id)
                best = i;
        return best;
    };

    struct Outstanding
    {
        MvmFuture future;
        Session *session;
    };
    std::vector<Outstanding> outstanding;
    std::vector<MvmFuture> submitted;
    std::map<RequestId, MvmResult> results;
    Rng rng(seed);
    auto collect = [&](std::size_t index) {
        const Outstanding o = outstanding[index];
        outstanding.erase(outstanding.begin() +
                          static_cast<std::ptrdiff_t>(index));
        results.emplace(o.future.id(), o.session->wait(o.future));
    };

    for (int step = 0; step < 160; ++step) {
        if (step == 40)
            sched.setDequeueHook(newest_first);
        if (step == 80)
            sched.setDequeueHook(Scheduler::submissionOrderHook());
        if (step == 110)
            sched.setDequeueHook(nullptr);
        const u64 op = rng.uniformInt(u64{20});
        if (op < 12) {
            Target &t = targets[rng.uniformInt(targets.size())];
            const int bits = 1 + static_cast<int>(rng.uniformInt(u64{4}));
            const i64 lo = -(i64{1} << (bits - 1));
            std::vector<i64> x(t.handle.plan().rows);
            for (auto &v : x)
                v = rng.uniformInt(lo, -lo - 1);
            const Cycle earliest =
                rng.uniformInt(u64{3}) == 0 ? rng.uniformInt(u64{4000})
                                            : 0;
            std::vector<MvmFuture> after;
            const u64 deps =
                submitted.empty() ? 0 : rng.uniformInt(u64{3});
            for (u64 d = 0; d < deps; ++d)
                after.push_back(
                    submitted[submitted.size() - 1 -
                              rng.uniformInt(std::min<u64>(
                                  submitted.size(), 6))]);
            const MvmFuture f = t.session->submit(
                t.handle, std::move(x), bits, earliest, after);
            submitted.push_back(f);
            outstanding.push_back({f, t.session});
        } else if (op < 16) {
            if (!outstanding.empty())
                collect(rng.uniformInt(outstanding.size()));
        } else if (op == 16) {
            sched.waitAll();
        } else if (op == 17) {
            sched.drainSession(rng.uniformInt(u64{2}) == 0
                                   ? tenant_a.id()
                                   : tenant_b.id());
        } else if (op == 18) {
            sched.drainMatrix(
                targets[rng.uniformInt(targets.size())].handle.id());
        } else {
            (rng.uniformInt(u64{2}) == 0 ? tenant_a : tenant_b)
                .waitAll();
        }
    }
    while (!outstanding.empty())
        collect(rng.uniformInt(outstanding.size()));
    EXPECT_EQ(sched.pendingCount(), 0u);
    EXPECT_EQ(sched.uncollectedCount(), 0u);
    EXPECT_GT(hook_calls, 0u);

    DrainOutcome out;
    out.digest = view_digest;
    for (const auto &[id, r] : results) {
        out.digest = fnv1aWord(id, out.digest);
        out.digest = fnv1aWord(r.start, out.digest);
        out.digest = fnv1aWord(r.done, out.digest);
        out.digest = fnv1aWords(r.values, out.digest);
    }
    const SchedulerCounters c = sched.counters();
    out.issued = c.issued;
    out.pipelineHits = c.pipelineHits;
    out.dependencyStalls = c.dependencyStalls;
    out.makespan = sched.makespan();
    return out;
}

// The drain order is pinned: every start, done and value of eight
// random mixes, the queue views the hooks saw, the counters and the
// makespan must reproduce the constants recorded with the original
// linear-scan greedy drain.
TEST(Scheduler, SchedulerDrainPinned)
{
    const std::array<DrainOutcome, 8> pinned = {{
        {0x1db1b6b863931f39ULL, 99, 56, 39, 15025},
        {0x236ecd1666ae4540ULL, 93, 57, 38, 14551},
        {0xac55f507cff3fdc0ULL, 84, 47, 39, 17889},
        {0xa5b356edd382c57cULL, 110, 63, 38, 14867},
        {0x9a409244be230f1fULL, 98, 53, 48, 16198},
        {0x1a5e95c33e8f3490ULL, 102, 60, 40, 19105},
        {0x3a4d8d034a3013a6ULL, 90, 50, 39, 16368},
        {0xf41cd709e638b708ULL, 92, 41, 51, 20313},
    }};
    for (u64 seed = 1; seed <= pinned.size(); ++seed) {
        const DrainOutcome got = drainMix(seed);
        const DrainOutcome &want = pinned[seed - 1];
        EXPECT_EQ(got.digest, want.digest) << "seed " << seed;
        EXPECT_EQ(got.issued, want.issued) << "seed " << seed;
        EXPECT_EQ(got.pipelineHits, want.pipelineHits) << "seed " << seed;
        EXPECT_EQ(got.dependencyStalls, want.dependencyStalls)
            << "seed " << seed;
        EXPECT_EQ(got.makespan, want.makespan) << "seed " << seed;
    }
}

} // namespace
} // namespace runtime
} // namespace darth
