/**
 * @file
 * Property tests for the cache arrays, swept over geometries with
 * parameterized gtest: behavioural equivalence against reference LRU
 * models under long random traces (plain accesses; mixed install,
 * touch, invalidate and way-masked fills; the busy-line victim rule
 * of L2 fills), structural invariants (capacity, set discipline, no
 * phantom hits), payload resets, and the checkpoint codec's
 * save-load-save byte identity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/cache_array.hh"
#include "cache/cache_line.hh"
#include "common/rng.hh"
#include "core/checkpoint.hh"

namespace consim
{
namespace
{

/** Reference model: per-set LRU lists of block addresses. */
class ReferenceLru
{
  public:
    ReferenceLru(std::uint64_t sets, int assoc)
        : sets_(sets), assoc_(assoc), lists_(sets)
    {
    }

    /** @return true on hit. Installs (with LRU eviction) on miss. */
    bool
    access(BlockAddr block)
    {
        auto &lst = lists_[block % sets_];
        for (auto it = lst.begin(); it != lst.end(); ++it) {
            if (*it == block) {
                lst.erase(it);
                lst.push_front(block);
                return true;
            }
        }
        lst.push_front(block);
        if (lst.size() > static_cast<std::size_t>(assoc_))
            lst.pop_back();
        return false;
    }

  private:
    std::uint64_t sets_;
    int assoc_;
    std::vector<std::list<BlockAddr>> lists_;
};

struct Geometry
{
    std::uint64_t bytes;
    int assoc;
};

class CacheArrayProperty : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(CacheArrayProperty, MatchesReferenceLruOnRandomTrace)
{
    const auto param = GetParam();
    CacheGeometry g;
    g.sizeBytes = param.bytes;
    g.assoc = param.assoc;
    CacheArray<PrivateCacheLine> cache(g);
    ReferenceLru ref(g.numSets(), g.assoc);
    Rng rng(param.bytes ^ param.assoc);

    // Address range ~3x capacity so hits and misses interleave.
    const std::uint64_t range = g.numLines() * 3;
    for (int i = 0; i < 50'000; ++i) {
        const BlockAddr block = rng.below(range);
        PrivateCacheLine *line = cache.lookup(block);
        const bool ref_hit = ref.access(block);
        ASSERT_EQ(line != nullptr, ref_hit)
            << "divergence at access " << i << " block " << block;
        if (line) {
            cache.touch(line);
        } else {
            auto *victim = cache.victim(block);
            cache.install(victim, block);
        }
    }
}

TEST_P(CacheArrayProperty, NeverExceedsCapacityAndStaysInSet)
{
    const auto param = GetParam();
    CacheGeometry g;
    g.sizeBytes = param.bytes;
    g.assoc = param.assoc;
    CacheArray<PrivateCacheLine> cache(g);
    Rng rng(99);

    for (int i = 0; i < 20'000; ++i) {
        const BlockAddr block = rng.below(g.numLines() * 5);
        if (!cache.lookup(block))
            cache.install(cache.victim(block), block);
    }
    EXPECT_LE(cache.countValid(), g.numLines());

    // Every valid line must be findable again (set discipline).
    cache.forEachValid([&](BlockAddr tag, const PrivateCacheLine &) {
        EXPECT_NE(cache.lookup(tag), nullptr);
    });
}

/**
 * Reference model with explicit ways: per set, the (valid, tag) of
 * each way plus a recency list of the valid ways (front = most
 * recent). It shares no code or representation with TagArray's
 * stamps.
 */
class ReferenceWays
{
  public:
    ReferenceWays(std::uint64_t sets, int assoc)
        : sets_(sets), assoc_(assoc),
          ways_(sets * static_cast<std::uint64_t>(assoc)),
          recency_(sets)
    {
    }

    /** @return way holding @p block, or -1. */
    int
    find(BlockAddr block) const
    {
        for (int w = 0; w < assoc_; ++w) {
            const Way &x = way(block, w);
            if (x.valid && x.tag == block)
                return w;
        }
        return -1;
    }

    /** @return the way a fill restricted to @p mask takes: the first
     *  invalid way in the mask, else its least recently used way. */
    int
    victim(BlockAddr block, std::uint64_t mask) const
    {
        for (int w = 0; w < assoc_; ++w) {
            if (((mask >> w) & 1) && !way(block, w).valid)
                return w;
        }
        const auto &lst = recency_[block % sets_];
        for (auto it = lst.rbegin(); it != lst.rend(); ++it) {
            if ((mask >> *it) & 1)
                return *it;
        }
        return -1;
    }

    void
    install(BlockAddr block, int w)
    {
        way(block, w) = {true, block};
        touch(block, w);
    }

    void
    touch(BlockAddr block, int w)
    {
        auto &lst = recency_[block % sets_];
        lst.remove(w);
        lst.push_front(w);
    }

    void
    invalidate(BlockAddr block, int w)
    {
        way(block, w).valid = false;
        recency_[block % sets_].remove(w);
    }

    /** @return (slot, tag) of every valid way, in slot order. */
    std::vector<std::pair<std::uint64_t, BlockAddr>>
    contents() const
    {
        std::vector<std::pair<std::uint64_t, BlockAddr>> out;
        for (std::uint64_t i = 0; i < ways_.size(); ++i) {
            if (ways_[i].valid)
                out.emplace_back(i, ways_[i].tag);
        }
        return out;
    }

  private:
    struct Way
    {
        bool valid = false;
        BlockAddr tag = 0;
    };

    Way &
    way(BlockAddr block, int w)
    {
        return ways_[(block % sets_) * assoc_ + w];
    }

    const Way &
    way(BlockAddr block, int w) const
    {
        return ways_[(block % sets_) * assoc_ + w];
    }

    std::uint64_t sets_;
    int assoc_;
    std::vector<Way> ways_;
    std::vector<std::list<int>> recency_;
};

/** @return a nonzero random way mask for @p assoc ways. */
std::uint64_t
randomMask(Rng &rng, int assoc)
{
    const std::uint64_t all =
        assoc == 64 ? ~0ull : (1ull << assoc) - 1;
    std::uint64_t m = 0;
    while (m == 0)
        m = rng.next() & all;
    return m;
}

TEST_P(CacheArrayProperty, MatchesReferenceWaysOnMixedOps)
{
    const auto param = GetParam();
    CacheGeometry g;
    g.sizeBytes = param.bytes;
    g.assoc = param.assoc;
    CacheArray<PrivateCacheLine> cache(g);
    ReferenceWays ref(g.numSets(), g.assoc);
    Rng rng(param.bytes * 31 + param.assoc);

    const std::uint64_t range = g.numLines() * 3;
    for (int i = 0; i < 40'000; ++i) {
        const BlockAddr block = rng.below(range);
        PrivateCacheLine *line = cache.lookup(block);
        const int ref_way = ref.find(block);
        ASSERT_EQ(line != nullptr, ref_way >= 0)
            << "lookup divergence at op " << i << " block " << block;
        if (line) {
            ASSERT_EQ(cache.wayOf(line), ref_way);
        }
        switch (rng.below(4)) {
          case 0:
          case 1: { // touch on hit; fill on miss, a quarter masked
            if (line) {
                cache.touch(line);
                ref.touch(block, ref_way);
                break;
            }
            const bool masked = rng.below(4) == 1;
            const std::uint64_t mask =
                masked ? randomMask(rng, g.assoc) : ~0ull;
            PrivateCacheLine *v = masked
                                      ? cache.victimInWays(block, mask)
                                      : cache.victim(block);
            const int want = ref.victim(block, mask);
            ASSERT_EQ(cache.wayOf(v), want) << "victim at op " << i;
            if (cache.valid(v))
                ref.invalidate(cache.tagOf(v), want);
            cache.install(v, block);
            ref.install(block, want);
            break;
          }
          case 2: // invalidate on hit
            if (line) {
                cache.invalidate(line);
                ref.invalidate(block, ref_way);
            }
            break;
          default: // read-only probe
            break;
        }
        if (i % 4096 == 0) {
            std::vector<std::pair<std::uint64_t, BlockAddr>> got;
            cache.forEachValid(
                [&](BlockAddr tag, const PrivateCacheLine &l) {
                    got.emplace_back(
                        cache.setIndex(tag) * g.assoc + cache.wayOf(&l),
                        tag);
                });
            ASSERT_EQ(got, ref.contents()) << "contents at op " << i;
        }
    }
}

/** The L2 fill rule as a full scan, as pickVictim applied it before
 *  victimIf: among the masked ways that are neither pinned nor busy,
 *  the first invalid one, else the valid one with the lowest LRU
 *  stamp (first way on ties). @return its way, or -1 for none. */
int
fullScanVictimWay(const CacheArray<L2CacheLine> &a, BlockAddr block,
                  std::uint64_t mask, const std::set<BlockAddr> &busy)
{
    const TagArray &tags = a.tags();
    const int assoc = tags.geometry().assoc;
    const std::uint64_t begin = tags.setIndex(block) * assoc;
    int best = -1;
    bool best_valid = false;
    std::uint64_t best_stamp = 0;
    for (int w = 0; w < assoc; ++w) {
        const std::uint64_t slot = begin + w;
        if (!((mask >> w) & 1))
            continue;
        if (!tags.valid(slot)) {
            if (best < 0 || best_valid) {
                best = w;
                best_valid = false;
            }
            continue;
        }
        const BlockAddr tag = tags.tag(slot);
        if (a.lookup(tag)->pinned || busy.count(tag))
            continue;
        if (best < 0 || (best_valid && tags.lruStamp(slot) < best_stamp)) {
            best = w;
            best_valid = true;
            best_stamp = tags.lruStamp(slot);
        }
    }
    return best;
}

TEST_P(CacheArrayProperty, VictimIfMatchesFullScanRule)
{
    const auto param = GetParam();
    CacheGeometry g;
    g.sizeBytes = param.bytes;
    g.assoc = param.assoc;
    CacheArray<L2CacheLine> cache(g);
    Rng rng(param.bytes + 7 * param.assoc);

    const std::uint64_t range = g.numLines() * 2;
    std::set<BlockAddr> busy;
    for (int i = 0; i < 20'000; ++i) {
        const BlockAddr block = rng.below(range);
        if (L2CacheLine *line = cache.lookup(block)) {
            switch (rng.below(5)) {
              case 0:
                cache.invalidate(line);
                busy.erase(block);
                break;
              case 1:
                line->pinned = !line->pinned;
                break;
              case 2:
                if (!busy.erase(block))
                    busy.insert(block);
                break;
              default:
                cache.touch(line);
                break;
            }
            continue;
        }
        const std::uint64_t mask =
            rng.below(3) == 0 ? randomMask(rng, g.assoc) : ~0ull;
        std::vector<BlockAddr> asked;
        L2CacheLine *got = cache.victimIf(
            block, mask, [&](BlockAddr tag, const L2CacheLine &l) {
                asked.push_back(tag);
                return !l.pinned && !busy.count(tag);
            });
        ASSERT_EQ(got ? cache.wayOf(got) : -1,
                  fullScanVictimWay(cache, block, mask, busy))
            << "victim divergence at op " << i;
        // Lines are asked about at most once, and only until one
        // passes: the last line asked is the chosen valid line.
        const std::set<BlockAddr> distinct(asked.begin(), asked.end());
        ASSERT_EQ(distinct.size(), asked.size());
        if (got == nullptr)
            continue;
        if (cache.valid(got)) {
            ASSERT_FALSE(asked.empty());
            ASSERT_EQ(asked.back(), cache.tagOf(got));
            busy.erase(cache.tagOf(got));
        } else {
            ASSERT_TRUE(asked.empty());
        }
        cache.install(got, block);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheArrayProperty,
    ::testing::Values(Geometry{4096, 1}, Geometry{4096, 2},
                      Geometry{8192, 4}, Geometry{16384, 8},
                      Geometry{65536, 4}, Geometry{65536, 16},
                      Geometry{131072, 8}),
    [](const ::testing::TestParamInfo<Geometry> &info) {
        return "b" + std::to_string(info.param.bytes) + "_a" +
               std::to_string(info.param.assoc);
    });

TEST(CacheArrayPayload, ResetOnInstallAndInvalidate)
{
    CacheGeometry g;
    g.sizeBytes = 4096;
    g.assoc = 4;
    CacheArray<L2CacheLine> l2(g);
    L2CacheLine *slot = l2.victim(9);
    l2.install(slot, 9);
    const auto dirty_up = [](L2CacheLine &l) {
        l.state = L2State::Modified;
        l.dirty = true;
        l.pinned = true;
        l.ownerCore = 3;
        l.presence.set(3);
        l.presence.set(130); // spilled word
        l.vm = 2;
    };
    const auto is_default = [](const L2CacheLine &l) {
        return l.state == L2State::Invalid && !l.dirty && !l.pinned &&
               l.ownerCore == -1 && l.presence.none() &&
               l.vm == invalidVm;
    };
    // Install over a still-valid slot (the caller evicted it).
    dirty_up(*slot);
    l2.install(slot, 9 + 16);
    EXPECT_TRUE(is_default(*slot));
    EXPECT_EQ(l2.tagOf(slot), 9u + 16);
    dirty_up(*slot);
    l2.invalidate(slot);
    EXPECT_TRUE(is_default(*slot));
    EXPECT_FALSE(l2.valid(slot));

    CacheArray<PrivateCacheLine> l1(g);
    PrivateCacheLine *p = l1.victim(5);
    l1.install(p, 5);
    p->state = L1State::Modified;
    l1.install(p, 5 + 16);
    EXPECT_EQ(p->state, L1State::Invalid);
    p->state = L1State::Shared;
    l1.invalidate(p);
    EXPECT_EQ(p->state, L1State::Invalid);
}

/** Drive @p x through a random fill/touch/invalidate trace; @p fill
 *  sets a payload on each new line. */
template <typename ArrayT, typename Fill>
void
randomTrace(ArrayT &x, std::uint64_t seed, int ops, Fill &&fill)
{
    Rng rng(seed);
    const std::uint64_t range = x.geometry().numLines() * 2;
    for (int i = 0; i < ops; ++i) {
        const BlockAddr block = rng.below(range);
        const bool drop = rng.below(8) == 0;
        if (auto *line = x.lookup(block)) {
            if (drop)
                x.invalidate(line);
            else
                x.touch(line);
        } else {
            auto *v = x.victim(block);
            x.install(v, block);
            fill(*v, block);
        }
    }
}

/** Save @p a, load it into a fresh array @p c, and require the
 *  second save to match the first byte for byte; then run the same
 *  trace on both, which must still save alike (slots, stamps and the
 *  stamp counter steer later fills). */
template <typename ArrayT, typename Fill>
void
expectSaveLoadSaveIdentity(ArrayT &a, ArrayT &c, Fill &&fill)
{
    randomTrace(a, 1, 5'000, fill);
    const std::string first = ckptSave(a).dump();
    json::Value doc;
    ASSERT_TRUE(json::parse(first, doc));
    ckptLoad(c, doc);
    EXPECT_EQ(ckptSave(c).dump(), first);
    randomTrace(a, 2, 5'000, fill);
    randomTrace(c, 2, 5'000, fill);
    EXPECT_EQ(ckptSave(c).dump(), ckptSave(a).dump());
}

TEST(CacheArrayCodec, SaveLoadSaveIsByteIdentical)
{
    CacheGeometry g;
    g.sizeBytes = 16384;
    g.assoc = 8;
    {
        CacheArray<PrivateCacheLine> a(g), c(g);
        expectSaveLoadSaveIdentity(
            a, c, [](PrivateCacheLine &l, BlockAddr blk) {
                l.state = blk % 2 ? L1State::Modified : L1State::Shared;
            });
    }
    {
        CacheArray<L2CacheLine> a(g), c(g);
        expectSaveLoadSaveIdentity(a, c, [](L2CacheLine &l,
                                            BlockAddr blk) {
            l.state = static_cast<L2State>(blk % 4);
            l.dirty = blk % 3 == 0;
            l.pinned = blk % 5 == 0;
            l.ownerCore = static_cast<std::int16_t>(blk % 7 - 1);
            l.presence.set(static_cast<int>(blk % 200));
            l.vm = static_cast<VmId>(blk % 4);
        });
    }
    {
        // The directory cache: a bare TagArray, so the trace is
        // spelled out with slot indices.
        TagArray a(g), c(g);
        const auto trace = [](TagArray &x, std::uint64_t seed) {
            Rng rng(seed);
            for (int i = 0; i < 5'000; ++i) {
                const BlockAddr block = rng.below(x.numSlots() * 2);
                if (const auto s = x.find(block); s != TagArray::npos)
                    x.touch(s);
                else
                    x.install(x.victim(block), block);
            }
        };
        trace(a, 1);
        const std::string first = ckptSave(a).dump();
        json::Value doc;
        ASSERT_TRUE(json::parse(first, doc));
        ckptLoad(c, doc);
        EXPECT_EQ(ckptSave(c).dump(), first);
        trace(a, 2);
        trace(c, 2);
        EXPECT_EQ(ckptSave(c).dump(), ckptSave(a).dump());
    }
}

} // namespace
} // namespace consim
