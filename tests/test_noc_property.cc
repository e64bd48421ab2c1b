/**
 * @file
 * Property tests for the mesh interconnect, swept over virtual
 * channel configurations with parameterized gtest: packet
 * conservation under sustained random traffic, bounded latency after
 * drain, and per-vnet isolation. A golden digest pins the exact
 * ejection order of seeded mixed traffic on 4x4 and 16x16 meshes.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <string>

#include "common/config.hh"
#include "common/rng.hh"
#include "noc/mesh.hh"

namespace consim
{
namespace
{

struct NocConfig
{
    int vcsPerVnet;
    int vcBufferFlits;
    double dataFraction;
    int packets;
};

class MeshProperty : public ::testing::TestWithParam<NocConfig>
{
};

TEST_P(MeshProperty, ConservesAllPacketsUnderRandomLoad)
{
    const auto param = GetParam();
    MachineConfig cfg;
    cfg.vcsPerVnet = param.vcsPerVnet;
    cfg.vcBufferFlits = param.vcBufferFlits;
    Mesh mesh(cfg);

    std::map<BlockAddr, int> outstanding;
    int delivered = 0;
    mesh.setDeliver([&](const Msg &m) {
        ++delivered;
        auto it = outstanding.find(m.block);
        ASSERT_NE(it, outstanding.end()) << "phantom packet";
        if (--it->second == 0)
            outstanding.erase(it);
    });

    Rng rng(param.packets * 31 + param.vcsPerVnet);
    Cycle now = 0;
    int injected = 0;
    BlockAddr tag = 0;
    // Sustained injection: a few packets per cycle chip-wide.
    while (injected < param.packets) {
        for (int k = 0; k < 3 && injected < param.packets; ++k) {
            const auto src = static_cast<CoreId>(rng.below(16));
            const auto dst = static_cast<CoreId>(rng.below(16));
            if (src == dst)
                continue;
            Msg m;
            // Mix all three vnets and both sizes.
            const double r = rng.uniform();
            if (r < param.dataFraction)
                m.type = MsgType::Data; // vnet 2, 5 flits
            else if (r < param.dataFraction + 0.3)
                m.type = MsgType::GetS; // vnet 0, 1 flit
            else
                m.type = MsgType::Inv; // vnet 1, 1 flit
            m.srcTile = src;
            m.dstTile = dst;
            m.block = tag++;
            m.injectCycle = now;
            mesh.inject(m);
            ++outstanding[m.block];
            ++injected;
        }
        mesh.tick(now++);
    }
    // Drain.
    for (int i = 0; i < 50'000 && !mesh.idle(); ++i)
        mesh.tick(now++);
    EXPECT_TRUE(mesh.idle()) << "packets stuck in the mesh";
    EXPECT_EQ(delivered, injected);
    EXPECT_TRUE(outstanding.empty());
    EXPECT_EQ(mesh.netStats().packetsEjected.value(),
              static_cast<std::uint64_t>(injected));
}

INSTANTIATE_TEST_SUITE_P(
    VcSweep, MeshProperty,
    ::testing::Values(NocConfig{1, 5, 0.3, 800},
                      NocConfig{1, 8, 0.7, 800},
                      NocConfig{2, 4, 0.3, 1500},
                      NocConfig{2, 8, 0.5, 1500},
                      NocConfig{4, 8, 0.3, 2000},
                      NocConfig{4, 16, 0.9, 2000}),
    [](const ::testing::TestParamInfo<NocConfig> &info) {
        return "vc" + std::to_string(info.param.vcsPerVnet) + "_buf" +
               std::to_string(info.param.vcBufferFlits) + "_d" +
               std::to_string(
                   static_cast<int>(info.param.dataFraction * 10)) +
               "_n" + std::to_string(info.param.packets);
    });

TEST(MeshLatencyProperty, UncontendedLatencyTracksHopCount)
{
    MachineConfig cfg;
    Mesh mesh(cfg);
    Cycle delivered_at = 0;
    mesh.setDeliver([&](const Msg &) {});

    // For each src/dst pair, an uncontended control packet's latency
    // must be a monotone-ish function of hop distance: check that
    // max-latency(dist d) < min-latency(dist d+3) never inverts
    // wildly by sampling all pairs.
    std::map<int, std::pair<Cycle, Cycle>> by_dist; // min,max
    Cycle now = 0;
    for (CoreId s = 0; s < 16; ++s) {
        for (CoreId d = 0; d < 16; ++d) {
            if (s == d)
                continue;
            Msg m;
            m.type = MsgType::GetS;
            m.srcTile = s;
            m.dstTile = d;
            m.injectCycle = now;
            bool got = false;
            mesh.setDeliver([&](const Msg &) {
                got = true;
                delivered_at = now;
            });
            mesh.inject(m);
            const Cycle start = now;
            while (!got)
                mesh.tick(now++);
            const Cycle lat = delivered_at - start;
            const int dist = hopDistance(s, d, cfg.meshX);
            auto it = by_dist.find(dist);
            if (it == by_dist.end()) {
                by_dist[dist] = {lat, lat};
            } else {
                it->second.first = std::min(it->second.first, lat);
                it->second.second = std::max(it->second.second, lat);
            }
        }
    }
    // Latency grows with distance (allowing per-hop pipeline noise).
    Cycle prev_min = 0;
    for (const auto &[dist, mm] : by_dist) {
        EXPECT_GE(mm.first, prev_min);
        prev_min = mm.first;
        // Uncontended 1-flit latency stays within a sane budget:
        // ~4 cycles per hop plus ejection.
        EXPECT_LE(mm.second,
                  static_cast<Cycle>(4 * dist + 10));
    }
}

/** Seeded mixed-traffic run whose every observable is hashed. */
struct GoldenCase
{
    const char *name;
    int meshX;
    int meshY;
    bool qos;           ///< protect VM 1 with one reserved VC/vnet
    int cycles;         ///< injection window
    int perCycle;       ///< injection attempts per cycle
    std::uint64_t digest;
};

void
PrintTo(const GoldenCase &gc, std::ostream *os)
{
    *os << gc.name;
}

void
fnvMix(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
}

/**
 * FNV-1a over every ejection's (cycle, dst tile, block, type) plus
 * the flit-hop, link-busy and packet counters, read both at a
 * mid-run stats reset and after the drain.
 */
std::uint64_t
goldenDigest(const GoldenCase &gc)
{
    MachineConfig cfg;
    cfg.meshX = gc.meshX;
    cfg.meshY = gc.meshY;
    Mesh mesh(cfg);
    if (gc.qos)
        mesh.setQos(1, 1);
    const int tiles = cfg.numCores();

    std::uint64_t h = 0xcbf29ce484222325ull;
    Cycle now = 0;
    mesh.setDeliver([&](const Msg &m) {
        fnvMix(h, now);
        fnvMix(h, static_cast<std::uint64_t>(m.dstTile));
        fnvMix(h, m.block);
        fnvMix(h, static_cast<std::uint64_t>(m.type));
    });
    const auto mixStats = [&] {
        const NetworkStats &st = mesh.netStats();
        fnvMix(h, st.flitHops.value());
        fnvMix(h, st.linkBusyCycles.value());
        fnvMix(h, st.packetsInjected.value());
        fnvMix(h, st.packetsEjected.value());
    };

    // Every vnet, both packet sizes; a hotspot tile saturates its
    // ejection port so arbitration and back-pressure both matter.
    static constexpr MsgType kTypes[] = {
        MsgType::GetS,  MsgType::GetM,   MsgType::PutM,
        MsgType::Inv,   MsgType::FwdGetS, MsgType::MemWrite,
        MsgType::Data,  MsgType::InvAck, MsgType::Grant};
    Rng rng(0x5eed0000u + static_cast<std::uint64_t>(tiles) +
            (gc.qos ? 1 : 0));
    BlockAddr tag = 0;
    const CoreId hot = static_cast<CoreId>(tiles / 2 + gc.meshX / 2);
    for (; now < static_cast<Cycle>(gc.cycles); ++now) {
        for (int k = 0; k < gc.perCycle; ++k) {
            const auto src = static_cast<CoreId>(rng.below(tiles));
            const auto dst = rng.chance(0.05)
                                 ? hot
                                 : static_cast<CoreId>(rng.below(tiles));
            if (src == dst)
                continue;
            Msg m;
            m.type = kTypes[rng.below(std::size(kTypes))];
            m.srcTile = src;
            m.dstTile = dst;
            m.vm = static_cast<VmId>(rng.below(4));
            m.block = tag++;
            m.injectCycle = now;
            mesh.inject(m);
        }
        if (now == static_cast<Cycle>(gc.cycles / 2)) {
            mixStats();
            mesh.netStats().reset();
        }
        mesh.tick(now);
    }
    for (int i = 0; i < 500'000 && !mesh.idle(); ++i, ++now)
        mesh.tick(now);
    EXPECT_TRUE(mesh.idle()) << gc.name << ": packets stuck";
    mesh.checkConservation();
    mixStats();
    fnvMix(h, now);
    return h;
}

class MeshGolden : public ::testing::TestWithParam<GoldenCase>
{
};

// Any change in arbitration order, timing or link accounting moves
// these digests; re-pin them only for a change meant to alter what
// the mesh simulates.
TEST_P(MeshGolden, EjectionOrderAndCountersArePinned)
{
    const GoldenCase &gc = GetParam();
    const std::uint64_t digest = goldenDigest(gc);
    EXPECT_EQ(digest, gc.digest)
        << gc.name << " digest 0x" << std::hex << digest;
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, MeshGolden,
    ::testing::Values(
        GoldenCase{"mesh4x4", 4, 4, false, 4000, 5,
                   0x217bd6e04123b1b1ull},
        GoldenCase{"mesh16x16", 16, 16, false, 3000, 12,
                   0xa8cdfce0f007d4a6ull},
        GoldenCase{"mesh4x4_qos", 4, 4, true, 4000, 5,
                   0x77af6161554b0f84ull}),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace consim
