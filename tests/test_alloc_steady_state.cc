/**
 * @file
 * Steady-state allocation audit: once a System is warmed up —
 * transaction tables sized, ring buffers grown, sharer sets spilled,
 * event calendar settled — the measure window must perform ZERO
 * heap allocations. The global operator-new hook
 * (common/alloc_hook.hh) counts every allocation in the process, so
 * a nonzero delta pinpoints a hot-path regression (a std::deque
 * sneaking back in, a map rehash mid-window, a per-message closure
 * that outgrew the inline buffer).
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/alloc_hook.hh"
#include "core/experiment.hh"
#include "core/mix.hh"
#include "core/system.hh"
#include "noc/mesh.hh"

using namespace consim;

namespace
{

/** Warm @p cfg up, then require an allocation-free measure window. */
void
expectZeroAllocWindow(const RunConfig &cfg, Cycle warmup,
                      Cycle window)
{
    ExperimentRig rig = buildExperimentRig(cfg);
    System sys(cfg.machine, rig.vms, rig.placements);
    // Warmup sizes every pool to its steady state: BlockMap tables,
    // WaitQueueMap node pools, router/NI rings, calendar buckets,
    // spilled CoreSet words.
    sys.run(warmup);
    // CONSIM_ALLOC_TRAP=1 turns the first in-window allocation into
    // a trap instruction: run under a debugger to see the call site.
    const bool trap = std::getenv("CONSIM_ALLOC_TRAP") != nullptr;
    const std::uint64_t before = allocCount();
    if (trap)
        allocTrap(true);
    sys.run(window);
    if (trap)
        allocTrap(false);
    const std::uint64_t delta = allocCount() - before;
    EXPECT_EQ(delta, 0u)
        << delta << " heap allocations leaked into a " << window
        << "-cycle measure window after " << warmup
        << " warmup cycles";
}

} // namespace

TEST(AllocSteadyState, SixteenCoreMixWindowIsAllocationFree)
{
    const RunConfig cfg = mixConfig(Mix::byName("Mix 1"),
                                    SchedPolicy::Affinity,
                                    SharingDegree::Shared4);
    expectZeroAllocWindow(cfg, 60'000, 30'000);
}

TEST(AllocSteadyState, PrivateSharingWindowIsAllocationFree)
{
    // Private partitions exercise the directory's 3-hop paths and
    // the c2c forwarding machinery hardest.
    const RunConfig cfg = mixConfig(Mix::byName("Mix 1"),
                                    SchedPolicy::RoundRobin,
                                    SharingDegree::Private);
    expectZeroAllocWindow(cfg, 60'000, 30'000);
}

TEST(AllocSteadyState, SixtyFourCoreWindowIsAllocationFree)
{
    // Scaled-up mesh: spilled CoreSets (64 cores > one word after
    // group math), longer wormhole routes, more routers — the paths
    // the 256-core sweeps lean on.
    RunConfig cfg = mixConfig(Mix::byName("Mix 1"),
                              SchedPolicy::Affinity,
                              SharingDegree::Shared8);
    cfg.machine.meshX = 8;
    cfg.machine.meshY = 8;
    cfg.vmThreads = {16, 16, 16, 16};
    expectZeroAllocWindow(cfg, 60'000, 30'000);
}

TEST(AllocSteadyState, OverCommittedWindowIsAllocationFree)
{
    // Over-committed: 32 threads on 16 cores. Context rotation
    // (bindThread) must not allocate either.
    RunConfig cfg = mixConfig(Mix::byName("Mix 1"),
                              SchedPolicy::Affinity,
                              SharingDegree::Shared4);
    cfg.vmThreads = {8, 8, 8, 8};
    expectZeroAllocWindow(cfg, 60'000, 30'000);
}

TEST(AllocSteadyState, SaturatedHotspotMeshIsAllocationFree)
{
    // Every tile of a 16x16 mesh streams data packets to one tile,
    // keeping eight in flight each: the hotspot's ejection port
    // saturates and back-pressure fills the VCs on every path into
    // it. The packet pool is bounded by the credits (it asserts if
    // it ever outgrows them), so once the NI rings have grown the
    // window must not allocate.
    MachineConfig cfg;
    cfg.meshX = 16;
    cfg.meshY = 16;
    Mesh mesh(cfg);
    const CoreId hot = 7 * 16 + 8;
    Cycle now = 0;
    BlockAddr tag = 0;
    const auto send = [&](CoreId src) {
        Msg m;
        m.type = MsgType::Data;
        m.srcTile = src;
        m.dstTile = hot;
        m.block = tag++;
        m.injectCycle = now;
        mesh.inject(m);
    };
    std::uint64_t delivered = 0;
    mesh.setDeliver([&](const Msg &m) {
        ++delivered;
        send(m.srcTile);
    });
    for (CoreId t = 0; t < cfg.numCores(); ++t) {
        for (int k = 0; t != hot && k < 8; ++k)
            send(t);
    }
    for (; now < 20'000; ++now)
        mesh.tick(now);
    const std::uint64_t warm = delivered;
    const std::uint64_t before = allocCount();
    for (; now < 40'000; ++now)
        mesh.tick(now);
    const std::uint64_t delta = allocCount() - before;
    EXPECT_EQ(delta, 0u) << delta
                         << " heap allocations in a saturated mesh";
    // One 5-flit packet leaves through the hotspot every 5 cycles.
    EXPECT_GE(delivered - warm, 20'000u / 5 - 1);
    EXPECT_FALSE(mesh.idle());
    mesh.checkConservation();
}
