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

#include "cache/cache_array.hh"
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

// ---------------------------------------------------------------- //
// Deterministic footprint: bytes requested from operator new.      //
// ---------------------------------------------------------------- //

namespace
{

/** @return bytes constructing @p make's result allocates, divided by
 *  @p slots. */
template <typename Make>
double
bytesPerSlot(std::uint64_t slots, Make &&make)
{
    const std::uint64_t before = allocBytes();
    const auto array = make();
    return static_cast<double>(allocBytes() - before) /
           static_cast<double>(slots);
}

} // namespace

TEST(AllocFootprint, CacheArraysStoreEachSlotOnce)
{
    // A slot's tag, valid bit and LRU stamp are 16 bytes in the
    // TagArray; payloads add the L1 state byte or the 32-byte L2
    // line, nothing more.
    const MachineConfig m;
    const auto geom = [](std::uint64_t bytes, int assoc) {
        CacheGeometry g;
        g.sizeBytes = bytes;
        g.assoc = assoc;
        return g;
    };
    const CacheGeometry dir = geom(m.dirCacheEntries * blockBytes,
                                   m.dirCacheAssoc);
    const CacheGeometry l1 = geom(m.l1Bytes, m.l1Assoc);
    const CacheGeometry l2 =
        geom(m.l2TotalBytes / static_cast<std::uint64_t>(m.numCores()),
             m.l2Assoc); // one bank
    EXPECT_EQ(bytesPerSlot(dir.numLines(),
                           [&] { return TagArray(dir); }),
              16.0);
    EXPECT_LE(bytesPerSlot(l1.numLines(),
                           [&] {
                               return CacheArray<PrivateCacheLine>(l1);
                           }),
              17.0);
    EXPECT_LE(bytesPerSlot(l2.numLines(),
                           [&] { return CacheArray<L2CacheLine>(l2); }),
              48.0);
}

TEST(AllocFootprint, Scale256SystemBuildBytesArePinned)
{
    // The 256-core, 1.5x over-committed Mix 1 machine of the scale
    // study (bench/fig16_scale256). The bytes its constructor
    // requests are deterministic, unlike host RSS, so growth in any
    // per-tile structure shows here. Re-pin when a change moves it
    // out of the 5% window.
    constexpr std::uint64_t pinned = 223'919'408;
    RunConfig cfg = mixConfig(Mix::byName("Mix 1"),
                              SchedPolicy::Affinity,
                              SharingDegree::Shared16);
    cfg.machine.meshX = 16;
    cfg.machine.meshY = 16;
    cfg.vmThreads = {96, 96, 96, 96};
    ExperimentRig rig = buildExperimentRig(cfg);
    const std::uint64_t before = allocBytes();
    const System sys(cfg.machine, rig.vms, rig.placements);
    const std::uint64_t built = allocBytes() - before;
    EXPECT_LE(built, pinned) << built << " bytes";
    EXPECT_GE(built, pinned / 100 * 95) << built << " bytes";
}
