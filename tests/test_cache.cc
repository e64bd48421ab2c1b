/**
 * @file
 * Unit tests for the cache substrate: geometry, set-associative
 * lookup/install/victim behaviour, LRU ordering, and the MSHR file.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/cache_array.hh"
#include "cache/cache_line.hh"
#include "cache/mshr.hh"

namespace consim
{
namespace
{

CacheGeometry
geo(std::uint64_t bytes, int assoc)
{
    CacheGeometry g;
    g.sizeBytes = bytes;
    g.assoc = assoc;
    return g;
}

TEST(CacheGeometry, DerivedCounts)
{
    const auto g = geo(64 * 1024, 4);
    EXPECT_EQ(g.numLines(), 1024u);
    EXPECT_EQ(g.numSets(), 256u);
}

TEST(CacheArray, MissThenHit)
{
    CacheArray<PrivateCacheLine> c(geo(4096, 2));
    EXPECT_EQ(c.lookup(5), nullptr);
    auto *v = c.victim(5);
    ASSERT_NE(v, nullptr);
    EXPECT_FALSE(c.valid(v));
    c.install(v, 5);
    auto *hit = c.lookup(5);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(c.tagOf(hit), 5u);
    EXPECT_TRUE(c.valid(hit));
}

TEST(CacheArray, SetConflictEvictsLru)
{
    // 2-way, 32 sets: blocks 1, 33, 65 all map to set 1.
    CacheArray<PrivateCacheLine> c(geo(4096, 2));
    ASSERT_EQ(c.geometry().numSets(), 32u);
    for (BlockAddr b : {1u, 33u}) {
        auto *v = c.victim(b);
        ASSERT_FALSE(c.valid(v));
        c.install(v, b);
    }
    // Touch 1 so that 33 is LRU.
    c.touch(c.lookup(1));
    auto *v = c.victim(65);
    ASSERT_TRUE(c.valid(v));
    EXPECT_EQ(c.tagOf(v), 33u);
}

TEST(CacheArray, TouchUpdatesLru)
{
    CacheArray<PrivateCacheLine> c(geo(4096, 2));
    c.install(c.victim(1), 1);
    c.install(c.victim(33), 33);
    c.touch(c.lookup(33));
    c.touch(c.lookup(1));
    EXPECT_EQ(c.tagOf(c.victim(65)), 33u);
}

TEST(CacheArray, InvalidateFreesSlot)
{
    CacheArray<PrivateCacheLine> c(geo(4096, 2));
    c.install(c.victim(1), 1);
    c.invalidate(c.lookup(1));
    EXPECT_EQ(c.lookup(1), nullptr);
    EXPECT_EQ(c.countValid(), 0u);
}

TEST(CacheArray, InstallResetsDerivedState)
{
    CacheArray<L2CacheLine> c(geo(4096, 2));
    auto *slot = c.victim(7);
    c.install(slot, 7);
    for (int i = 0; i < 4; ++i)
        slot->presence.set(i);
    slot->dirty = true;
    slot->state = L2State::Modified;
    // Evict and reinstall another block in the same slot.
    c.invalidate(slot);
    c.install(slot, 7 + 32 * 2); // same set
    EXPECT_TRUE(slot->presence.none());
    EXPECT_FALSE(slot->dirty);
    EXPECT_EQ(slot->state, L2State::Invalid);
}

TEST(CacheArray, CountValidAndIteration)
{
    CacheArray<PrivateCacheLine> c(geo(4096, 2));
    for (BlockAddr b = 0; b < 10; ++b)
        c.install(c.victim(b), b);
    EXPECT_EQ(c.countValid(), 10u);
    std::uint64_t seen = 0;
    BlockAddr sum = 0;
    c.forEachValid([&](BlockAddr tag, const PrivateCacheLine &) {
        ++seen;
        sum += tag;
    });
    EXPECT_EQ(seen, 10u);
    EXPECT_EQ(sum, 45u);
}

TEST(CacheArray, VictimIfOffersOnlyTheSetsValidLines)
{
    // 4-way, 16 sets: fill set 3 with blocks 3, 19, 35, 51 and
    // refuse every line, so each of them is offered exactly once.
    CacheArray<L2CacheLine> c(geo(4096, 4));
    for (BlockAddr b = 3; b < 64; b += 16)
        c.install(c.victim(b), b);
    c.install(c.victim(4), 4); // another set: never offered
    std::vector<BlockAddr> offered;
    EXPECT_EQ(c.victimIf(3, ~0ull,
                         [&](BlockAddr tag, const L2CacheLine &) {
                             offered.push_back(tag);
                             return false;
                         }),
              nullptr);
    EXPECT_EQ(offered, (std::vector<BlockAddr>{3, 19, 35, 51}));
}

TEST(CacheArray, DistinctSetsDoNotConflict)
{
    CacheArray<PrivateCacheLine> c(geo(4096, 2));
    // Fill every set with two blocks; nothing should evict.
    const auto sets = c.geometry().numSets();
    for (std::uint64_t s = 0; s < sets; ++s) {
        for (int w = 0; w < 2; ++w) {
            auto *v = c.victim(s + w * sets);
            ASSERT_FALSE(c.valid(v));
            c.install(v, s + w * sets);
        }
    }
    EXPECT_EQ(c.countValid(), c.geometry().numLines());
}

struct Target
{
    int core;
    bool write;
};

TEST(MshrFile, AllocateFindRelease)
{
    MshrFile<Target> m(4);
    EXPECT_EQ(m.find(10), nullptr);
    auto &e = m.allocate(10, 100);
    e.targets.push_back({1, false});
    ASSERT_NE(m.find(10), nullptr);
    EXPECT_EQ(m.find(10)->issued, 100u);
    EXPECT_EQ(m.size(), 1u);
    m.release(10);
    EXPECT_EQ(m.find(10), nullptr);
}

TEST(MshrFile, FullBehaviour)
{
    MshrFile<Target> m(2);
    m.allocate(1, 0);
    m.allocate(2, 0);
    EXPECT_TRUE(m.full());
    m.release(1);
    EXPECT_FALSE(m.full());
}

TEST(MshrFile, CoalescedTargets)
{
    MshrFile<Target> m(4);
    auto &e = m.allocate(5, 0);
    e.targets.push_back({0, false});
    e.targets.push_back({1, true});
    e.wantsWrite = true;
    auto *found = m.find(5);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->targets.size(), 2u);
    EXPECT_TRUE(found->wantsWrite);
}

TEST(MshrFileDeathTest, DoubleAllocatePanics)
{
    MshrFile<Target> m(4);
    m.allocate(1, 0);
    EXPECT_DEATH(m.allocate(1, 0), "duplicate MSHR");
}

TEST(MshrFileDeathTest, ReleaseAbsentPanics)
{
    MshrFile<Target> m(4);
    EXPECT_DEATH(m.release(9), "absent MSHR");
}

} // namespace
} // namespace consim
