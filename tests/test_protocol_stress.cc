/**
 * @file
 * Property-based protocol stress tests: random multi-core traffic
 * over every sharing degree, with periodic quiesce points at which
 * the full-map directory, the partition caches, and the private L1s
 * must agree exactly (System::checkGlobalCoherence). This is the
 * strongest correctness net in the suite: any lost invalidation,
 * stale presence bit, mis-owned line, or leaked transaction shows up
 * here.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/check.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "core/system.hh"

namespace consim
{
namespace
{

/** Generates random slices over a small block range, then idles. */
class RandomStream : public InstrStream
{
  public:
    RandomStream(std::uint64_t seed, BlockAddr base,
                 std::uint64_t range, double write_fraction,
                 std::uint64_t total_refs)
        : rng_(seed), base_(base), range_(range),
          writeFraction_(write_fraction), remaining_(total_refs)
    {
    }

    WorkSlice
    next() override
    {
        WorkSlice s;
        if (remaining_ == 0) {
            s.computeCycles = 16;
            s.noMemRef = true;
            return s;
        }
        --remaining_;
        s.computeCycles = static_cast<std::uint32_t>(rng_.below(3));
        s.block = base_ + rng_.below(range_);
        s.isWrite = rng_.chance(writeFraction_);
        return s;
    }

    bool done() const { return remaining_ == 0; }

  private:
    Rng rng_;
    BlockAddr base_;
    std::uint64_t range_;
    double writeFraction_;
    std::uint64_t remaining_;
};

WorkloadProfile
stressProfile()
{
    WorkloadProfile p;
    p.name = "stress";
    // Small enough that the directory walk in the coherence check is
    // fast, and that conflict misses and evictions are frequent.
    p.sharedRoBlocks = 3000;
    p.migratoryBlocks = 500;
    p.privateBlocksPerThread = 500;
    p.pSharedRo = 0.3;
    p.pMigratory = 0.1;
    p.hotSharedBlocks = 256;
    p.hotPrivateBlocks = 64;
    p.refsPerTransaction = 100;
    return p;
}

struct StressParam
{
    SharingDegree sharing;
    double writeFraction;
    int activeCores;
};

class ProtocolStress : public ::testing::TestWithParam<StressParam>
{
};

TEST_P(ProtocolStress, RandomTrafficKeepsGlobalCoherence)
{
    const auto param = GetParam();
    const WorkloadProfile prof = stressProfile();
    VirtualMachine vm(prof, 0, 1);
    MachineConfig cfg;
    cfg.sharing = param.sharing;
    System sys(cfg, {&vm}, {});

    // Random streams share a hot 2K-block range so that every core
    // fights over the same sets and lines.
    std::vector<std::unique_ptr<RandomStream>> streams;
    for (CoreId c = 0; c < param.activeCores; ++c) {
        streams.push_back(std::make_unique<RandomStream>(
            1000 + c, vmBaseBlock(0), 2048, param.writeFraction,
            4000));
        sys.core(c).bindThread(streams.back().get(), 0);
    }

    bool settled = false;
    for (int iter = 0; iter < 8000 && !settled; ++iter) {
        sys.run(64);
        settled = sys.quiesced();
        for (const auto &s : streams)
            settled = settled && s->done();
    }
    ASSERT_TRUE(settled) << "stress run failed to drain";
    sys.checkInvariants();
    sys.checkGlobalCoherence();

    // Work actually happened.
    EXPECT_GT(vm.vmStats().l2Misses.value(), 100u);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, ProtocolStress,
    ::testing::Values(
        StressParam{SharingDegree::Private, 0.3, 16},
        StressParam{SharingDegree::Private, 0.7, 8},
        StressParam{SharingDegree::Shared2, 0.3, 16},
        StressParam{SharingDegree::Shared2, 0.6, 6},
        StressParam{SharingDegree::Shared4, 0.1, 16},
        StressParam{SharingDegree::Shared4, 0.5, 16},
        StressParam{SharingDegree::Shared4, 0.9, 16},
        StressParam{SharingDegree::Shared8, 0.4, 16},
        StressParam{SharingDegree::Shared8, 0.8, 5},
        StressParam{SharingDegree::Shared16, 0.3, 16},
        StressParam{SharingDegree::Shared16, 0.7, 16}),
    [](const ::testing::TestParamInfo<StressParam> &info) {
        std::string name =
            toString(info.param.sharing) + "_w" +
            std::to_string(
                static_cast<int>(info.param.writeFraction * 10)) +
            "_c" + std::to_string(info.param.activeCores);
        for (auto &ch : name) {
            if (ch == '-')
                ch = '_';
        }
        return name;
    });

TEST(ProtocolStressExtra, TinySetsForceEvictionStorms)
{
    // Shrink the L2 so that eviction/writeback paths (including
    // victim extraction from owning L1s) dominate.
    WorkloadProfile prof = stressProfile();
    VirtualMachine vm(prof, 0, 7);
    MachineConfig cfg;
    cfg.sharing = SharingDegree::Shared4;
    cfg.l2TotalBytes = 512 * 1024; // 32KB per tile, 2K lines/partition
    cfg.l1Bytes = 16 * 1024;
    System sys(cfg, {&vm}, {});

    std::vector<std::unique_ptr<RandomStream>> streams;
    for (CoreId c = 0; c < 16; ++c) {
        streams.push_back(std::make_unique<RandomStream>(
            55 + c, vmBaseBlock(0), 4000, 0.5, 3000));
        sys.core(c).bindThread(streams.back().get(), 0);
    }
    bool settled = false;
    for (int iter = 0; iter < 8000 && !settled; ++iter) {
        sys.run(64);
        settled = sys.quiesced();
        for (const auto &s : streams)
            settled = settled && s->done();
    }
    ASSERT_TRUE(settled);
    sys.checkGlobalCoherence();
    std::uint64_t evictions = 0;
    for (CoreId t = 0; t < 16; ++t) {
        evictions += sys.bank(t).bankStats().evictDirty.value() +
                     sys.bank(t).bankStats().evictClean.value();
    }
    EXPECT_GT(evictions, 1000u);
}

TEST(ProtocolStressExtra, SingleHotBlockAllWriters)
{
    // Pathological contention: every core writes one block.
    WorkloadProfile prof = stressProfile();
    VirtualMachine vm(prof, 0, 3);
    MachineConfig cfg;
    cfg.sharing = SharingDegree::Shared4;
    System sys(cfg, {&vm}, {});

    std::vector<std::unique_ptr<RandomStream>> streams;
    for (CoreId c = 0; c < 16; ++c) {
        streams.push_back(std::make_unique<RandomStream>(
            99 + c, vmBaseBlock(0), 1, 1.0, 500));
        sys.core(c).bindThread(streams.back().get(), 0);
    }
    bool settled = false;
    for (int iter = 0; iter < 20000 && !settled; ++iter) {
        sys.run(64);
        settled = sys.quiesced();
        for (const auto &s : streams)
            settled = settled && s->done();
    }
    ASSERT_TRUE(settled) << "hot-block run failed to drain";
    sys.checkGlobalCoherence();
    // Ownership must have migrated across partitions many times.
    std::uint64_t fwds = 0;
    for (CoreId t = 0; t < 16; ++t)
        fwds += sys.dir(t).sliceStats().forwards.value();
    EXPECT_GT(fwds, 500u);
}

TEST(ProtocolStressExtra, ReadersAndOneWriterPingPong)
{
    // One writer invalidates a crowd of readers repeatedly: stresses
    // the Inv/ack collection and the upgrade path.
    WorkloadProfile prof = stressProfile();
    VirtualMachine vm(prof, 0, 5);
    MachineConfig cfg;
    cfg.sharing = SharingDegree::Shared4;
    System sys(cfg, {&vm}, {});

    std::vector<std::unique_ptr<RandomStream>> streams;
    for (CoreId c = 0; c < 16; ++c) {
        const double wf = c == 0 ? 1.0 : 0.0;
        streams.push_back(std::make_unique<RandomStream>(
            7 + c, vmBaseBlock(0), 16, wf, 800));
        sys.core(c).bindThread(streams.back().get(), 0);
    }
    bool settled = false;
    for (int iter = 0; iter < 20000 && !settled; ++iter) {
        sys.run(64);
        settled = sys.quiesced();
        for (const auto &s : streams)
            settled = settled && s->done();
    }
    ASSERT_TRUE(settled);
    sys.checkGlobalCoherence();
    std::uint64_t invs = 0;
    for (CoreId t = 0; t < 16; ++t)
        invs += sys.dir(t).sliceStats().invalidations.value();
    EXPECT_GT(invs, 100u);
}

TEST(ProtocolStressExtra, DroppedDirectoryEntryFailsBothChecks)
{
    // A missing directory entry means Invalid, so a walk over the
    // entries alone never visits a cached block whose entry was
    // lost. Both checks also walk the blocks the partitions hold:
    // restore a settled machine from a snapshot with one entry
    // removed, and each must report the block.
    const check::Level saved_level = check::level();
    check::setLevel(check::Level::Basic); // asserts throw, not abort
    const WorkloadProfile prof = stressProfile();
    VirtualMachine vm(prof, 0, 11);
    MachineConfig cfg;
    cfg.sharing = SharingDegree::Shared4;

    json::Value doc;
    {
        System sys(cfg, {&vm}, {});
        std::vector<std::unique_ptr<RandomStream>> streams;
        for (CoreId c = 0; c < 16; ++c) {
            streams.push_back(std::make_unique<RandomStream>(
                300 + c, vmBaseBlock(0), 2048, 0.4, 1500));
            sys.core(c).bindThread(streams.back().get(), 0);
        }
        bool settled = false;
        for (int iter = 0; iter < 8000 && !settled; ++iter) {
            sys.run(64);
            settled = sys.quiesced();
            for (const auto &s : streams)
                settled = settled && s->done();
        }
        ASSERT_TRUE(settled);
        sys.checkGlobalCoherence();
        // The test streams are not VM threads, which a snapshot
        // cannot name; they are drained, so unbind them.
        for (CoreId c = 0; c < 16; ++c)
            sys.core(c).bindThread(nullptr, 0);
        doc = sys.saveCheckpoint();
    }

    // Control: the untouched snapshot restores into a coherent
    // machine.
    {
        System sys(cfg, {&vm}, {});
        sys.restoreCheckpoint(doc);
        EXPECT_NO_THROW(sys.checkGlobalCoherence());
        EXPECT_NO_THROW(sys.auditWindow());
    }

    json::Value *machine = doc.find("machine");
    ASSERT_NE(machine, nullptr);
    const json::Value *entries = machine->find("dir_entries");
    ASSERT_NE(entries, nullptr);
    ASSERT_GT(entries->size(), 1u);
    json::Value kept = json::Value::array();
    for (std::size_t i = 1; i < entries->size(); ++i)
        kept.push(entries->at(i));
    machine->set("dir_entries", std::move(kept));

    System sys(cfg, {&vm}, {});
    sys.restoreCheckpoint(doc);
    const auto expect_fail = [](auto &&check, const char *what) {
        try {
            check();
            ADD_FAILURE() << "check passed with a dropped entry";
        } catch (const SimError &e) {
            EXPECT_NE(std::string(e.what()).find(what),
                      std::string::npos)
                << e.what();
        }
    };
    expect_fail([&] { sys.checkGlobalCoherence(); },
                "directory thinks invalid");
    expect_fail([&] { sys.auditWindow(); }, "directory says Invalid");
    check::setLevel(saved_level);
}

} // namespace
} // namespace consim
