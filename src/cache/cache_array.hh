/**
 * @file
 * Generic set-associative cache arrays with LRU replacement.
 *
 * The arrays store metadata only: consim is a timing simulator, so
 * lines never carry data payloads. Two layers:
 *
 *  - TagArray owns the replacement state of every slot and nothing
 *    else: key_ (tag + 1 for a valid slot, 0 for an invalid one, so
 *    one compare tests both) and lru_ (the slot's last-touch stamp,
 *    0 when invalid). Slots are indices; set s occupies slots
 *    [s * assoc, (s + 1) * assoc). The set scans of lookup and
 *    victim selection touch 16 bytes per way, and one set's keys
 *    share a host cache line for the common associativities. The
 *    directory caches use a bare TagArray: they only decide whether
 *    a directory-state fetch goes off-chip.
 *  - CacheArray<LineT> adds one protocol payload per slot (the L1
 *    state byte, the L2 partition line) and hands out LineT pointers
 *    as slot handles. Tag, validity and LRU stamp live only in its
 *    TagArray; ask the array (tagOf, valid) rather than the line.
 *
 * Clients drive the replacement decisions explicitly:
 *
 *   line = array.lookup(block);         // nullptr on miss
 *   victim = array.victim(block);       // slot a fill would take
 *   ... evict victim's contents if array.valid(victim) ...
 *   array.install(victim, block);       // claim the slot
 *
 * install() and invalidate() reset the slot's payload to a
 * default-constructed LineT, so an invalid slot always holds one.
 */

#ifndef CONSIM_CACHE_CACHE_ARRAY_HH
#define CONSIM_CACHE_CACHE_ARRAY_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "cache/cache_line.hh"
#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace consim
{

/** Size/shape of a cache array; validates and derives set counts. */
struct CacheGeometry
{
    std::uint64_t sizeBytes = 0;
    int assoc = 1;

    /** Lines held by the array. */
    std::uint64_t numLines() const { return sizeBytes / blockBytes; }

    /** Sets in the array. */
    std::uint64_t numSets() const { return numLines() / assoc; }

    /** Panics on inconsistent geometry (simulator wiring bug). */
    void check() const;
};

/**
 * Tag, valid bit and LRU stamp of every slot of a set-associative
 * array, addressed by slot index. Indexing uses the low-order bits
 * of the block address above any bank-interleave bits, which the
 * owner strips by passing a pre-shifted index address when banked
 * (see L2Bank).
 */
class TagArray
{
  public:
    /** Slot index that names no slot (a miss, no candidate). */
    static constexpr std::uint64_t npos = ~std::uint64_t{0};

    explicit TagArray(const CacheGeometry &geom)
        : geom_(geom), key_(geom.numLines(), 0),
          lru_(geom.numLines(), 0)
    {
        geom_.check();
    }

    /** @return set index for a block (callers may want it for stats). */
    std::uint64_t
    setIndex(BlockAddr block) const
    {
        return block % geom_.numSets();
    }

    /**
     * Look up a block.
     * @return the slot holding @p block, or npos on miss.
     * Does not update LRU; call touch() on an actual access.
     */
    std::uint64_t
    find(BlockAddr block) const
    {
        auto [begin, end] = setRange(block);
        const std::uint64_t key = block + 1;
        for (auto i = begin; i != end; ++i) {
            if (key_[i] == key)
                return i;
        }
        return npos;
    }

    /**
     * @return the slot a fill of @p block would claim: the first
     * invalid slot of the set if one exists, else the LRU slot.
     */
    std::uint64_t
    victim(BlockAddr block) const
    {
        auto [begin, end] = setRange(block);
        std::uint64_t lru = begin;
        for (auto i = begin; i != end; ++i) {
            if (key_[i] == 0)
                return i;
            if (lru_[i] < lru_[lru])
                lru = i;
        }
        return lru;
    }

    /**
     * Way-restricted victim(): the slot a fill of @p block would
     * claim when only the ways whose bit is set in @p way_mask may be
     * used (QoS way partitioning). With every way allowed this makes
     * the same choice as victim(); the mask must cover at least one
     * way.
     */
    std::uint64_t
    victimInWays(BlockAddr block, std::uint64_t way_mask) const
    {
        auto [begin, end] = setRange(block);
        std::uint64_t lru = end;
        int way = 0;
        for (auto i = begin; i != end; ++i, ++way) {
            if (!((way_mask >> way) & 1))
                continue;
            if (key_[i] == 0)
                return i;
            if (lru == end || lru_[i] < lru_[lru])
                lru = i;
        }
        CONSIM_ASSERT(lru != end,
                      "victimInWays: empty way mask for set of block ",
                      block);
        return lru;
    }

    /**
     * victimInWays() for fills that must skip busy lines: the first
     * invalid way inside @p way_mask, else the first valid way inside
     * it, in (LRU stamp, way) order, for which @p usable(slot) holds.
     * usable is asked about valid slots only, and only until one
     * passes, so an expensive test runs as rarely as the LRU order
     * allows. @return npos when no way qualifies.
     */
    template <typename Usable>
    std::uint64_t
    victimIf(BlockAddr block, std::uint64_t way_mask,
             Usable &&usable) const
    {
        auto [begin, end] = setRange(block);
        int way = 0;
        for (auto i = begin; i != end; ++i, ++way) {
            if (((way_mask >> way) & 1) && key_[i] == 0)
                return i;
        }
        // Every masked way is valid: visit them oldest first. Each
        // round selects the least (stamp, slot) above the last
        // rejected one; stamps are unique, so rounds stay few.
        std::uint64_t prev = npos;
        for (;;) {
            std::uint64_t best = npos;
            way = 0;
            for (auto i = begin; i != end; ++i, ++way) {
                if (!((way_mask >> way) & 1))
                    continue;
                if (prev != npos &&
                    (lru_[i] < lru_[prev] ||
                     (lru_[i] == lru_[prev] && i <= prev)))
                    continue;
                if (best == npos || lru_[i] < lru_[best])
                    best = i;
            }
            if (best == npos || usable(best))
                return best;
            prev = best;
        }
    }

    /** @return way index (0..assoc-1) of @p slot within its set. */
    int
    wayOf(std::uint64_t slot) const
    {
        return static_cast<int>(slot % geom_.assoc);
    }

    /** Claim @p slot for @p block, stamping it most recently used.
     *  The caller must have handled eviction of the old contents. */
    void
    install(std::uint64_t slot, BlockAddr block)
    {
        CONSIM_ASSERT(slot < key_.size(), "install into slot ", slot,
                      " of ", key_.size());
        key_[slot] = block + 1;
        lru_[slot] = ++stamp_;
    }

    /** Record an access for replacement purposes. */
    void touch(std::uint64_t slot) { lru_[slot] = ++stamp_; }

    /** Invalidate a slot (it becomes reusable). */
    void
    invalidate(std::uint64_t slot)
    {
        key_[slot] = 0;
        lru_[slot] = 0;
    }

    bool valid(std::uint64_t slot) const { return key_[slot] != 0; }

    /** @return block held by a valid @p slot. */
    BlockAddr tag(std::uint64_t slot) const { return key_[slot] - 1; }

    /** @return last-touch stamp of @p slot (0 when invalid). */
    std::uint64_t lruStamp(std::uint64_t slot) const { return lru_[slot]; }

    std::uint64_t numSlots() const { return key_.size(); }

    /** @return number of valid slots (walks the array; for stats). */
    std::uint64_t
    countValid() const
    {
        std::uint64_t n = 0;
        for (const std::uint64_t k : key_)
            n += k ? 1 : 0;
        return n;
    }

    /** Call @p fn(slot, tag) for every valid slot, in slot order. */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (std::uint64_t i = 0; i < key_.size(); ++i) {
            if (key_[i] != 0)
                fn(i, key_[i] - 1);
        }
    }

    const CacheGeometry &geometry() const { return geom_; }

  private:
    /** The checkpoint layer saves and restores slots index-exact
     *  (victim choice depends on slot order and stamps) along with
     *  the stamp counter. */
    friend struct CkptAccess;

    /** [begin, end) slot indices of the set holding @p block. */
    std::pair<std::uint64_t, std::uint64_t>
    setRange(BlockAddr block) const
    {
        const std::uint64_t begin = setIndex(block) * geom_.assoc;
        return {begin, begin + geom_.assoc};
    }

    CacheGeometry geom_;
    std::vector<std::uint64_t> key_; ///< tag + 1 if valid, else 0
    std::vector<std::uint64_t> lru_; ///< last-touch stamp, 0 if invalid
    std::uint64_t stamp_ = 0;
};

/**
 * A TagArray plus one LineT payload per slot (see cache_line.hh).
 * LineT pointers are the slot handles: lookup() and the victim
 * choosers return them, the mutators take them back.
 */
template <typename LineT>
class CacheArray
{
  public:
    explicit CacheArray(const CacheGeometry &geom)
        : tags_(geom), lines_(tags_.numSlots())
    {
    }

    /** @return set index for a block (callers may want it for stats). */
    std::uint64_t
    setIndex(BlockAddr block) const
    {
        return tags_.setIndex(block);
    }

    /**
     * Look up a block.
     * @return pointer to the matching line, or nullptr on miss.
     * Does not update LRU; call touch() on an actual access.
     */
    LineT *
    lookup(BlockAddr block)
    {
        const std::uint64_t i = tags_.find(block);
        return i == TagArray::npos ? nullptr : &lines_[i];
    }

    /** Const lookup for inspection (no LRU effect). */
    const LineT *
    lookup(BlockAddr block) const
    {
        const std::uint64_t i = tags_.find(block);
        return i == TagArray::npos ? nullptr : &lines_[i];
    }

    /** @return the slot a fill of @p block would claim (see
     *  TagArray::victim). Never nullptr. */
    LineT *victim(BlockAddr block) { return &lines_[tags_.victim(block)]; }

    /** @return the way-restricted victim (see TagArray::victimInWays). */
    LineT *
    victimInWays(BlockAddr block, std::uint64_t way_mask)
    {
        return &lines_[tags_.victimInWays(block, way_mask)];
    }

    /** TagArray::victimIf over lines: @p usable(tag, line) is asked
     *  about valid lines only. @return nullptr when no way
     *  qualifies. */
    template <typename Usable>
    LineT *
    victimIf(BlockAddr block, std::uint64_t way_mask, Usable &&usable)
    {
        const std::uint64_t i =
            tags_.victimIf(block, way_mask, [&](std::uint64_t s) {
                return usable(tags_.tag(s),
                              static_cast<const LineT &>(lines_[s]));
            });
        return i == TagArray::npos ? nullptr : &lines_[i];
    }

    /** @return way index (0..assoc-1) @p line occupies in its set
     *  (QoS way-mask audits). */
    int wayOf(const LineT *line) const { return tags_.wayOf(indexOf(line)); }

    /**
     * Claim a (previously vacated) slot for a block. The caller must
     * have handled eviction of the old contents. Resets the payload
     * to a default-constructed LineT.
     */
    void
    install(LineT *slot, BlockAddr block)
    {
        CONSIM_ASSERT(slot != nullptr, "install into null slot");
        *slot = LineT{};
        tags_.install(indexOf(slot), block);
    }

    /** Record an access for replacement purposes. */
    void touch(LineT *line) { tags_.touch(indexOf(line)); }

    /** Invalidate a line (slot becomes reusable, payload reset). */
    void
    invalidate(LineT *line)
    {
        *line = LineT{};
        tags_.invalidate(indexOf(line));
    }

    /** @return true when @p line's slot holds a block. */
    bool valid(const LineT *line) const { return tags_.valid(indexOf(line)); }

    /** @return the block a valid @p line holds. */
    BlockAddr
    tagOf(const LineT *line) const
    {
        return tags_.tag(indexOf(line));
    }

    /** @return number of valid lines (walks the array; for stats). */
    std::uint64_t countValid() const { return tags_.countValid(); }

    /** Call @p fn(tag, line) for every valid line, in slot order. */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        tags_.forEachValid([&](std::uint64_t i, BlockAddr tag) {
            fn(tag, lines_[i]);
        });
    }

    const CacheGeometry &geometry() const { return tags_.geometry(); }

    /** The slot state (read-only: the mutators above keep payloads
     *  and tags in step). */
    const TagArray &tags() const { return tags_; }

  private:
    /** Checkpoint layer restores payloads alongside the tags. */
    friend struct CkptAccess;

    std::uint64_t
    indexOf(const LineT *line) const
    {
        return static_cast<std::uint64_t>(line - lines_.data());
    }

    TagArray tags_;
    std::vector<LineT> lines_;
};

} // namespace consim

#endif // CONSIM_CACHE_CACHE_ARRAY_HH
