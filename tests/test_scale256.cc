/**
 * @file
 * Large-scale determinism: the guarantees proven at 16 cores must
 * hold on the meshes the scale study sweeps — checkpoint/resume byte
 * identity at 256 cores (CoreSet heap-spill codec: 256 private
 * groups need four presence words), and over-committed schedules
 * (more VM threads than cores) across snapshots and resumes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hh"
#include "core/experiment.hh"
#include "core/mix.hh"
#include "core/report.hh"
#include "core/scheduler.hh"
#include "core/system.hh"
#include "core/vm.hh"

using namespace consim;

namespace
{

/** Mix 1 on an @p x x @p y mesh, short windows. */
RunConfig
scaleConfig(int x, int y, SharingDegree sharing, SchedPolicy policy)
{
    RunConfig cfg = mixConfig(Mix::byName("Mix 1"), policy, sharing);
    cfg.machine.meshX = x;
    cfg.machine.meshY = y;
    cfg.seed = 13;
    cfg.warmupCycles = 8'000;
    cfg.measureCycles = 12'000;
    return cfg;
}

/** What a snapshot holds in flight: packets in router input VCs
 *  (and how many of them are not yet ready for switch allocation),
 *  busy router outputs, and cores inside a compute burst. */
struct InFlight
{
    int buffered = 0;
    int notReady = 0;
    int busyOutputs = 0;
    int midBurst = 0;
};

InFlight
inFlight(const json::Value &ckpt)
{
    InFlight n;
    const json::Value *machine = ckpt.find("machine");
    const std::uint64_t now = machine->find("cycle")->asUint();
    const json::Value *net = machine->find("net");
    for (const json::Value &r : net->find("routers")->items()) {
        for (const json::Value &vc : r.find("inputs")->items()) {
            for (const json::Value &pkt : vc.find("q")->items()) {
                ++n.buffered;
                // [msg, flits, readyCycle, outPort]
                if (pkt.at(2).asUint() > now)
                    ++n.notReady;
            }
        }
        for (const json::Value &out : r.find("outputs")->items())
            n.busyOutputs += out.find("busy")->boolean() ? 1 : 0;
    }
    for (const json::Value &c : machine->find("cores")->items()) {
        if (c.find("have_slice")->boolean() &&
            c.find("busy_until")->asUint() > now)
            ++n.midBurst;
    }
    return n;
}

/** Deadline-trip + resume must reproduce the uninterrupted run. When
 *  @p mid_flight is set, the snapshot must also catch the mesh with
 *  packets buffered (some not yet ready) and outputs busy, so restore
 *  rebuilds the routers' wake cycles, completion cycles, wheel slots
 *  and active sets. When @p mid_burst is set, it must also hold a
 *  core inside a compute burst, whose wake cycle lies ahead. */
void
expectResumeByteIdentity(const RunConfig &cfg, Cycle deadline,
                         Cycle every, bool mid_flight = false,
                         bool mid_burst = false)
{
    const std::string full_doc =
        runResultJson(cfg, runExperiment(cfg)).dump(2);
    RunConfig trip = cfg;
    trip.cycleDeadline = deadline;
    trip.ckptEveryCycles = every;
    try {
        runExperiment(trip);
        FAIL() << "deadline did not trip";
    } catch (const SimError &e) {
        ASSERT_EQ(e.kind(), SimErrorKind::Deadline);
        ASSERT_FALSE(e.ckpt().empty());
        json::Value doc;
        std::string err;
        ASSERT_TRUE(json::parse(e.ckpt(), doc, &err)) << err;
        if (mid_flight) {
            const InFlight n = inFlight(doc);
            EXPECT_GE(n.buffered, 1) << "no buffered router packet";
            EXPECT_GE(n.notReady, 1) << "no packet before its readyCycle";
            EXPECT_GE(n.busyOutputs, 1) << "no busy router output";
        }
        if (mid_burst) {
            EXPECT_GE(inFlight(doc).midBurst, 1)
                << "no core mid compute burst";
        }
        const RunResult resumed = resumeExperiment(doc);
        EXPECT_EQ(runResultJson(cfg, resumed).dump(2), full_doc);
    }
}

} // namespace

TEST(Scale256, CheckpointRoundTripsAt256CoresPrivateSharing)
{
    // 256 private groups: every directory GroupSet and presence
    // CoreSet spills to four heap words, so the snapshot codec's
    // word-array paths (save, load, trailing-zero canonicalisation)
    // all run. The snapshots land with packets mid-flight in the
    // mesh (some before their readyCycle), so restore rebuilds router
    // activity and wheel slots. Resume must be byte-identical.
    RunConfig cfg = scaleConfig(16, 16, SharingDegree::Private,
                                SchedPolicy::RoundRobin);
    cfg.vmThreads = {64, 64, 64, 64};
    expectResumeByteIdentity(cfg, 14'000, 5'000, /*mid_flight=*/true);
    // A snapshot at the deadline itself also holds a core mid compute
    // burst (almost every core sits blocked on a miss at this scale).
    expectResumeByteIdentity(cfg, 14'000, 14'000, /*mid_flight=*/true,
                             /*mid_burst=*/true);
}

TEST(Scale256, OverCommittedScheduleMakesProgressForEveryVm)
{
    // 32 threads on 16 cores: time-slicing must keep every VM
    // retiring transactions, not just the first layer.
    RunConfig cfg = mixConfig(Mix::byName("Mix 1"),
                              SchedPolicy::Affinity,
                              SharingDegree::Shared4);
    cfg.seed = 13;
    cfg.warmupCycles = 10'000;
    cfg.measureCycles = 40'000;
    cfg.vmThreads = {8, 8, 8, 8};
    cfg.timesliceCycles = 5'000;
    const RunResult r = runExperiment(cfg);
    ASSERT_EQ(r.vms.size(), 4u);
    // Per-VM instruction counts prove rotation: the second-layer VMs
    // (2 and 3 under affinity packing) only ever run when the first
    // layer is preempted. Round-robin rotation should also keep the
    // layers in the same ballpark — no layer starves.
    std::uint64_t lo = ~0ull, hi = 0;
    for (std::size_t i = 0; i < r.vms.size(); ++i) {
        EXPECT_GT(r.vms[i].instructions, 0u) << "vm " << i;
        lo = std::min(lo, r.vms[i].instructions);
        hi = std::max(hi, r.vms[i].instructions);
    }
    EXPECT_GT(lo * 4, hi)
        << "a VM starved: min " << lo << " vs max " << hi
        << " instructions";
}

TEST(Scale256, OverCommittedResumeRestoresRotationState)
{
    // The snapshot lands mid-quantum; the resumed run must preempt
    // on the same absolute boundaries (ctx_pos / next_slice codec).
    RunConfig cfg = scaleConfig(4, 4, SharingDegree::Shared4,
                                SchedPolicy::Affinity);
    cfg.measureCycles = 25'000;
    cfg.vmThreads = {8, 8, 8, 8};
    cfg.timesliceCycles = 4'000;
    expectResumeByteIdentity(cfg, 21'000, 9'000);
}

TEST(Scale256, OverCommitWorksOnLargeMeshes)
{
    // 256 threads on 128 cores, shared-16 partitions: the schedule
    // the fig16 bench sweeps.
    RunConfig cfg = scaleConfig(16, 8, SharingDegree::Shared16,
                                SchedPolicy::Affinity);
    cfg.warmupCycles = 6'000;
    cfg.measureCycles = 10'000;
    cfg.vmThreads = {64, 64, 64, 64};
    const RunResult r = runExperiment(cfg);
    std::uint64_t instr = 0;
    for (const auto &v : r.vms)
        instr += v.instructions;
    EXPECT_GT(instr, 0u);
}

namespace
{

/** Directory entry slots a freshly built System reserves for
 *  @p cfg, summed over the home slices. */
std::uint64_t
reservedDirectorySlots(const RunConfig &cfg, std::uint64_t *footprint)
{
    std::vector<std::unique_ptr<VirtualMachine>> storage;
    std::vector<VirtualMachine *> vms;
    std::vector<int> threads;
    // 96 threads of the largest Mix 1 VM touch ~21M blocks; windows
    // four times the default width fit every point here.
    const int span_bits = vmSpanBits + 2;
    for (std::size_t i = 0; i < cfg.workloads.size(); ++i) {
        storage.push_back(std::make_unique<VirtualMachine>(
            WorkloadProfile::get(cfg.workloads[i]),
            static_cast<VmId>(i), cfg.seed, cfg.vmThreads.at(i),
            span_bits));
        vms.push_back(storage.back().get());
        threads.push_back(storage.back()->numThreads());
    }
    *footprint = 0;
    for (const VirtualMachine *vm : vms)
        *footprint += vm->totalBlocks();
    System sys(cfg.machine, vms,
               scheduleThreads(cfg.machine, threads, cfg.policy,
                               cfg.seed));
    std::uint64_t slots = 0;
    for (CoreId t = 0; t < cfg.machine.numCores(); ++t) {
        EXPECT_EQ(sys.dir(t).numEntries(), 0u) << "tile " << t;
        slots += sys.dir(t).entryCapacity();
    }
    return slots;
}

} // namespace

TEST(Scale256, DirectoryReservesByL2LinesNotFootprint)
{
    // The directory is sparse: a 16x16 chip running Mix 1 with 96
    // threads per VM (the fig16 point, ~65M footprint blocks)
    // reserves entry slots in proportion to the L2 lines, and the
    // same chip with a quarter of the threads reserves exactly as
    // many.
    RunConfig cfg = scaleConfig(16, 16, SharingDegree::Shared16,
                                SchedPolicy::Affinity);
    cfg.vmThreads = {96, 96, 96, 96};
    std::uint64_t footprint = 0;
    const std::uint64_t slots = reservedDirectorySlots(cfg, &footprint);
    const std::uint64_t l2_lines = cfg.machine.l2TotalBytes / blockBytes;
    EXPECT_GE(slots, l2_lines);
    EXPECT_LE(slots, 8 * l2_lines);
    EXPECT_GT(footprint, 16 * slots);

    cfg.vmThreads = {24, 24, 24, 24};
    std::uint64_t small_footprint = 0;
    EXPECT_EQ(reservedDirectorySlots(cfg, &small_footprint), slots);
    EXPECT_LT(small_footprint, footprint);
}
