/**
 * @file
 * `consim.ckpt.v5` codec: one io() body per stateful component, run
 * by a json::Saver for System::saveCheckpoint and by a json::Loader
 * for System::restoreCheckpoint (common/archive.hh). See
 * checkpoint.hh for the document layout and the byte-identity
 * contract. (v2 replaced the single event sequence counter with the
 * per-source counters and per-event (src, seq) keys that fix each
 * cycle's event order.)
 *
 * All component access goes through CkptAccess, the single friend
 * every stateful class declares. Conventions:
 *
 *  - the archive picks each scalar's JSON kind from its C++ type, so
 *    a field always travels with the same text;
 *  - block-keyed maps are written sorted by block so the same machine
 *    state always produces the same text;
 *  - cache arrays are restored slot-index-exact: victim() picks the
 *    first invalid slot in set order (else the lowest LRU stamp), so
 *    which slot holds which line is architecturally visible;
 *  - restore targets a freshly constructed System built from the
 *    same configuration: the containers its constructor sized must
 *    match the document, and the dynamic state it leaves empty is
 *    filled from it.
 */

#include "core/checkpoint.hh"

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cache/cache_array.hh"
#include "coherence/directory.hh"
#include "coherence/l1_controller.hh"
#include "coherence/l2_bank.hh"
#include "coherence/memory_controller.hh"
#include "common/archive.hh"
#include "common/check.hh"
#include "core/system.hh"
#include "core/vm.hh"
#include "noc/mesh.hh"
#include "noc/network.hh"
#include "workload/generator.hh"

namespace consim
{

namespace
{

/** @p S is @p T, possibly const (a Saver describes const state). */
template <class S, class T>
concept Is = std::same_as<std::remove_const_t<S>, T>;

} // namespace

/**
 * The one class every stateful component befriends. Each io() is
 * that component's whole checkpoint description, for both
 * directions.
 */
struct CkptAccess
{
    /** @return a callable describing @p x as a nested node. */
    template <class Ar, class T>
    static auto
    node(Ar &ar, T &x)
    {
        return [&ar, &x] { io(ar, x); };
    }

    /** A protocol message is one fixed-position record. */
    template <class Ar, Is<Msg> M>
    static void
    io(Ar &ar, M &m)
    {
        if constexpr (Ar::loading)
            CONSIM_ASSERT(ar.size() == 20, "checkpoint: bad message record");
        ar.rec(m.type, m.block, m.srcTile, m.dstTile, m.srcUnit,
               m.dstUnit, m.reqCore, m.reqBankTile, m.reqGroup, m.vm,
               m.isWrite, m.dirtyData, m.noDataNeeded, m.c2cTransfer,
               m.stale, m.toInvalid, m.overlappedFetch, m.grantState,
               m.ackCount, m.injectCycle);
    }

    // --- cache arrays (slot-index-exact) ---

    /** The stamp counter plus one `[slot, tag, lru, payload...]`
     *  record per valid slot; @p payload(slot) appends the rest.
     *  Slots without a record end invalid. */
    template <class Ar, Is<TagArray> A, class Payload>
    static void
    tags(Ar &ar, A &a, Payload &&payload)
    {
        std::uint64_t n = a.numSlots();
        ar("num_lines", n);
        CONSIM_ASSERT(n == a.numSlots(),
                      "checkpoint: cache geometry mismatch");
        ar("stamp", a.stamp_);
        std::vector<std::uint64_t> valid;
        if constexpr (Ar::loading) {
            std::fill(a.key_.begin(), a.key_.end(), 0);
            std::fill(a.lru_.begin(), a.lru_.end(), 0);
        } else {
            a.forEachValid(
                [&](std::uint64_t i, BlockAddr) { valid.push_back(i); });
        }
        ar.seq("lines", valid, [&](std::uint64_t &i) {
            ar.rec(i);
            CONSIM_ASSERT(i < a.numSlots(),
                          "checkpoint: line slot out of range");
            std::uint64_t tag = a.key_[i] - 1;
            ar.rec(tag, a.lru_[i]);
            if constexpr (Ar::loading)
                a.key_[i] = tag + 1;
            payload(i);
        });
    }

    /** The directory cache: tags only. */
    template <class Ar, Is<TagArray> A>
    static void
    io(Ar &ar, A &a)
    {
        tags(ar, a, [](std::uint64_t) {});
    }

    /** A cache array: its tag slots, each valid one followed by the
     *  line's protocol payload. */
    template <class Ar, class A>
        requires Is<A, CacheArray<PrivateCacheLine>> ||
                 Is<A, CacheArray<L2CacheLine>>
    static void
    io(Ar &ar, A &a)
    {
        if constexpr (Ar::loading)
            std::fill(a.lines_.begin(), a.lines_.end(),
                      typename decltype(a.lines_)::value_type{});
        tags(ar, a.tags_,
             [&](std::uint64_t i) { io(ar, a.lines_[i]); });
    }

    template <class Ar, Is<PrivateCacheLine> L>
    static void
    io(Ar &ar, L &l)
    {
        ar.rec(l.state);
    }

    template <class Ar, Is<L2CacheLine> L>
    static void
    io(Ar &ar, L &l)
    {
        // Sharer/presence sets travel as trimmed little-endian word
        // arrays, so the layout is independent of machine width.
        std::vector<std::uint64_t> presence = l.presence.words();
        ar.rec(l.state, l.dirty, l.pinned, presence, l.ownerCore, l.vm);
        if constexpr (Ar::loading)
            l.presence = CoreSet::fromWords(presence);
    }

    // --- event queue ---

    template <class Ar, Is<System> S>
    static void
    events(Ar &ar, S &s)
    {
        ar("seq_by_src", s.seqBySrc_);
        std::uint64_t executed = s.events_.executed();
        ar("executed", executed);
        std::vector<std::pair<Cycle, SimEvent>> pending;
        if constexpr (!Ar::loading) {
            s.events_.forEachPending(
                s.now_, [&](Cycle when, const SimEvent &ev) {
                    if (ev.kind == SimEventKind::Opaque)
                        throw SimError(
                            SimErrorKind::Invariant,
                            "cannot checkpoint: opaque event pending "
                            "(scheduled via the closure escape hatch)");
                    SimEvent copy(ev.kind, ev.msg);
                    copy.tile = ev.tile;
                    copy.block = ev.block;
                    copy.src = ev.src;
                    copy.seq = ev.seq;
                    pending.emplace_back(when, std::move(copy));
                });
            // Canonical (when, src, seq) order: the same machine state
            // always serializes to the same text.
            std::sort(pending.begin(), pending.end(),
                      [](const auto &a, const auto &b) {
                          return a.first != b.first
                                     ? a.first < b.first
                                     : SimEvent::keyLess(a.second,
                                                         b.second);
                      });
        }
        ar.seq("pending", pending, [&](auto &p) {
            SimEvent &ev = p.second;
            ar.rec(p.first, ev.src, ev.seq, ev.kind, ev.tile, ev.block);
            if (ev.kind == SimEventKind::Deliver ||
                ev.kind == SimEventKind::MemDone ||
                ev.kind == SimEventKind::NetDeliver)
                ar.rec(node(ar, ev.msg));
        });
        if constexpr (Ar::loading) {
            s.events_.setExecuted(executed);
            // The clock is already restored: insertAbs checks every
            // due cycle against it.
            for (auto &[when, ev] : pending)
                s.events_.insertAbs(s.now_, when, std::move(ev));
        }
    }

    // --- cores ---

    /** A thread binding travels as (vm, thread index), restored by
     *  index into the same VM set; unbound is (-1, -1). */
    template <class Ar, Is<System> S, class Vm, class Stream>
    static void
    binding(Ar &ar, S &s, const char *vm_key, const char *thread_key,
            Vm &vm, Stream &stream, CoreId tile)
    {
        VmId v = -1;
        int thread = -1;
        if constexpr (!Ar::loading) {
            if (stream != nullptr) {
                const auto &threads = s.vms_.at(vm)->instance().streams_;
                v = vm;
                thread = static_cast<int>(
                    std::find_if(threads.begin(), threads.end(),
                                 [&](const auto &t) {
                                     return t.get() == stream;
                                 }) -
                    threads.begin());
                CONSIM_ASSERT(thread < static_cast<int>(threads.size()),
                              "checkpoint: unbindable stream on core ",
                              tile);
            }
        }
        ar(vm_key, v);
        ar(thread_key, thread);
        if constexpr (Ar::loading) {
            stream = v >= 0 ? &s.vms_.at(v)->instance().thread(thread)
                            : nullptr;
            vm = v >= 0 ? v : invalidVm;
        }
    }

    template <class Ar, Is<System> S, Is<Core> C>
    static void
    io(Ar &ar, S &s, C &c)
    {
        // Direct field writes: bindThread() would reset the in-flight
        // slice and blocked state being restored.
        binding(ar, s, "vm", "thread", c.vm_, c.stream_, c.tile_);
        ar("blocked", c.blocked_);
        ar("wedged", c.wedged_);
        ar("retired", c.retiredTotal_);
        ar("have_slice", c.haveSlice_);
        auto &sl = c.slice_;
        ar("slice", [&] {
            ar.rec(sl.computeCycles, sl.block, sl.isWrite,
                   sl.endsTransaction, sl.noMemRef);
        });
        ar("busy_until", c.busyUntil_);
        ar("block_start", c.blockStart_);
        // Parked dynamic-scheduling migration (absent unless a swap
        // was decided while this core was mid-miss): the deferred
        // target binding, serialized like the live one.
        if (ar.opt("rebind_vm", c.rebindPending_)) {
            if constexpr (Ar::loading)
                c.rebindPending_ = true;
            binding(ar, s, "rebind_vm", "rebind_thread", c.rebindVm_,
                    c.rebindStream_, c.tile_);
        }
        // Over-commit rotation state (absent on single-context
        // cores); the run queue itself is rebuilt from the placements
        // by the System constructor.
        if (ar.opt("ctx_pos", c.contexts_.size() > 1)) {
            CONSIM_ASSERT(c.contexts_.size() > 1,
                          "checkpoint: rotation state for core ",
                          c.tile_, " which is not over-committed");
            ar("ctx_pos", c.ctxPos_);
            CONSIM_ASSERT(c.ctxPos_ < c.contexts_.size(),
                          "checkpoint: ctx_pos ", c.ctxPos_,
                          " out of range");
            ar("next_slice", c.nextSlice_);
        }
    }

    // --- L1 controllers ---

    template <class Ar, Is<L1Controller> L>
    static void
    io(Ar &ar, L &l)
    {
        // The L0 holds no state; its records keep the L1 layout with
        // the state field fixed at Invalid.
        ar("l0", [&] {
            tags(ar, l.l0_, [&](std::uint64_t) {
                L1State st = L1State::Invalid;
                ar.rec(st);
                CONSIM_ASSERT(st == L1State::Invalid,
                              "checkpoint: L0 line with a state");
            });
        });
        ar("l1", node(ar, l.l1_));
        auto &p = l.pending_;
        ar("pending",
           [&] { ar.rec(p.active, p.block, p.isWrite, p.start); });
    }

    // --- L2 banks and directory slices ---

    template <class Ar, Is<L2Bank::BankTxn> T>
    static void
    io(Ar &ar, T &t)
    {
        ar("phase", t.phase);
        ar("req", node(ar, t.req));
        ar("started", t.started);
        ar("data_arrived", t.dataArrived);
        ar("grant_arrived", t.grantArrived);
        ar("data_msg", node(ar, t.dataMsg));
        ar("grant_msg", node(ar, t.grantMsg));
        ar("victim", t.victimBlock);
        ar("expect_putm", t.expectPutM);
        ar("extract", t.extractTarget);
    }

    /** Per-block waiting queues as `[block, [msg...]]` records in
     *  block order. Empty queues cannot exist (popFront drops emptied
     *  keys). */
    template <class Ar, class Q>
    static void
    waiting(Ar &ar, Q &m)
    {
        std::vector<std::pair<BlockAddr, std::vector<Msg>>> queues;
        if constexpr (!Ar::loading) {
            std::vector<BlockAddr> keys = m.keys();
            std::sort(keys.begin(), keys.end());
            for (const BlockAddr k : keys) {
                queues.emplace_back(k, std::vector<Msg>{});
                m.forEachMsg(k, [&](const Msg &msg) {
                    queues.back().second.push_back(msg);
                });
            }
        }
        ar.seq("waiting", queues, [&](auto &q) {
            ar.rec(q.first, [&] {
                ar.seq(q.second, [&](Msg &msg) { io(ar, msg); });
            });
        });
        if constexpr (Ar::loading)
            for (auto &[k, msgs] : queues)
                for (Msg &msg : msgs)
                    m.pushBack(k, std::move(msg));
    }

    template <class Ar, Is<L2Bank> B>
    static void
    io(Ar &ar, B &b)
    {
        ar("array", node(ar, b.array_));
        ar.blocks("active", b.active_,
                  [&](auto &t) { ar.rec(node(ar, t)); });
        waiting(ar, b.waiting_);
        ar.blocks("wb", b.wb_,
                  [&](auto &w) { ar.rec(w.dirty, w.vm, w.started); });
        ar.blocks("victim_extract", b.victimExtract_,
                  [&](auto &victim) { ar.rec(victim); });
    }

    template <class Ar, Is<DirectorySlice> D>
    static void
    io(Ar &ar, D &d)
    {
        // The directory cache is timing state: a hit or miss on it
        // decides whether a transaction pays the off-chip fetch.
        ar("cache", node(ar, d.dirCache_));
        ar.blocks("active", d.active_, [&](auto &t) {
            ar.rec(node(ar, t.req), t.started, t.acksPending,
                   t.fwdAckPending, t.grantSent, t.doneReceived,
                   t.dirFetched);
        });
        waiting(ar, d.waiting_);
    }

    /** Directory entries: the slices hold the non-Invalid ones. The
     *  document lists their union in block order; restore scatters
     *  each to its home slice (a block not listed stays Invalid). */
    template <class Ar, Is<System> S>
    static void
    dirEntries(Ar &ar, S &s)
    {
        std::vector<std::pair<BlockAddr, DirEntry>> all;
        if constexpr (!Ar::loading) {
            for (const auto &d : s.dirs_)
                d->forEachEntry([&](BlockAddr block, const DirEntry &e) {
                    all.emplace_back(block, e);
                });
            std::sort(all.begin(), all.end(),
                      [](const auto &a, const auto &b) {
                          return a.first < b.first;
                      });
        }
        ar.seq("dir_entries", all, [&](auto &p) {
            DirEntry &e = p.second;
            std::vector<std::uint64_t> sharers = e.sharers.words();
            ar.rec(p.first, e.state, sharers, e.owner);
            if constexpr (Ar::loading)
                e.sharers = CoreSet::fromWords(sharers);
        });
        if constexpr (Ar::loading) {
            for (auto &[block, e] : all) {
                CONSIM_ASSERT(s.windows_.contains(block),
                              "checkpoint: directory entry outside "
                              "registered windows: block ", block);
                s.dirs_[s.homeTileFor(block)]->entries_[block] =
                    std::move(e);
            }
        }
    }

    // --- memory controllers ---

    template <class Ar, Is<MemoryController> M>
    static void
    io(Ar &ar, M &mc)
    {
        ar("next_free", mc.nextFree_);
        ar("outstanding", mc.outstanding_);
        // QoS token buckets (v4): per-VM [window, tokens, issued].
        // The configuration itself (caps, refill) is reinstalled by
        // the experiment layer before restore; only the mutable
        // bucket state rides in the snapshot.
        if (ar.opt("buckets", !mc.buckets_.empty())) {
            CONSIM_ASSERT(!mc.buckets_.empty(),
                          "checkpoint: MC token buckets for a machine "
                          "without them — was the QoS config "
                          "reinstalled before restore?");
            ar.seq("buckets", mc.buckets_, [&](auto &b) {
                ar.rec(b.window, b.tokens, b.issued);
            });
        }
    }

    // --- interconnect ---

    template <class Ar, Is<RouterPacket> P>
    static void
    io(Ar &ar, P &p)
    {
        ar.rec(node(ar, p.msg), p.lenFlits, p.readyCycle, p.outPort);
    }

    /** @p last_tick is the cycle the mesh last ticked (the snapshot
     *  cycle - 1). A busy output completes at tick doneAt, so it is
     *  stored as remaining = doneAt - last_tick, the flits it still
     *  has to send. Packets are allocated in document order. */
    template <class Ar, Is<Router> R>
    static void
    io(Ar &ar, R &r, Cycle last_tick)
    {
        int vc = 0;
        ar.seq("inputs", r.inputs_, [&](auto &ivc) {
            ar("free", ivc.freeFlits);
            std::vector<PacketId> ids;
            if constexpr (!Ar::loading)
                for (int k = 0; k < ivc.count; ++k)
                    ids.push_back(r.vcAt(vc, k));
            ar.seq("q", ids, [&](PacketId &id) {
                if constexpr (Ar::loading)
                    id = r.pool_.alloc();
                io(ar, r.pool_[id]);
            });
            if constexpr (Ar::loading)
                for (const PacketId id : ids)
                    r.vcPush(vc, id);
            ++vc;
        });
        ar.seq("outputs", r.outputs_, [&](auto &o) {
            ar("busy", o.busy);
            if (o.busy) {
                int remaining = static_cast<int>(o.doneAt - last_tick);
                ar("remaining", remaining);
                ar("dst_vc", o.dstVc);
                if constexpr (Ar::loading) {
                    o.doneAt = last_tick + remaining;
                    o.pkt = r.pool_.alloc();
                }
                ar("pkt", node(ar, r.pool_[o.pkt]));
            }
        });
        ar("rr", r.rrInput_);
        // The counts are derived state: recount them, and the
        // stored copies must agree.
        int buffered = r.buffered_;
        int busy = r.busyOutputs_;
        ar("buffered", buffered);
        ar("busy_outputs", busy);
        if constexpr (Ar::loading) {
            r.rebuildActivity();
            CONSIM_ASSERT(r.buffered_ == buffered &&
                              r.busyOutputs_ == busy,
                          "checkpoint: router ", r.tile_,
                          " packet counts disagree with its queues");
        }
    }

    template <class Ar, Is<System> S>
    static void
    net(Ar &ar, S &s)
    {
        Network &n = *s.net_;
        ar("injected", n.injectedTotal_);
        ar("ejected", n.ejectedTotal_);
        auto *mesh = dynamic_cast<Mesh *>(&n);
        std::string kind = mesh ? "mesh" : "ideal";
        ar("kind", kind);
        CONSIM_ASSERT(kind == (mesh ? "mesh" : "ideal"),
                      "checkpoint: network kind mismatch");
        if (mesh == nullptr) {
            // The ideal network delivers through NetDeliver events
            // (pending in the event queue), so it holds no state; the
            // empty list keeps the document's shape.
            std::vector<int> inflight;
            ar("inflight", inflight);
            CONSIM_ASSERT(inflight.empty(),
                          "checkpoint: in-flight messages for the "
                          "ideal network, which queues none");
            return;
        }
        CONSIM_ASSERT(Ar::loading || mesh->shared_.busyLinks == 0 ||
                          mesh->lastTick_ + 1 == s.now_,
                      "checkpoint: mesh clock (last tick ",
                      mesh->lastTick_, ") lags the machine (", s.now_,
                      ")");
        if constexpr (Ar::loading)
            mesh->shared_.pool.clear();
        ar.seq("routers", mesh->routers_,
               [&](auto &r) { io(ar, *r, s.now_ - 1); });
        ar.seq("nis", mesh->nis_, [&](auto &ni) {
            ar.seq(ni->queues_, [&](auto &q) {
                std::vector<Msg> msgs;
                for (const Msg &m : q)
                    msgs.push_back(m);
                ar.seq(msgs, [&](Msg &m) { io(ar, m); });
                if constexpr (Ar::loading)
                    for (Msg &m : msgs)
                        q.push_back(std::move(m));
            });
            if constexpr (Ar::loading)
                ni->recountQueued();
        });
        if constexpr (Ar::loading)
            mesh->rebuildActivity(s.now_);
    }

    // --- workload streams / footprints ---

    template <class Ar, Is<System> S>
    static void
    vms(Ar &ar, S &s)
    {
        std::size_t vm = 0;
        ar.seq("vms", s.vms_, [&](VirtualMachine *v) {
            WorkloadInstance &inst = v->instance();
            ar.seq("streams", inst.streams_, [&](auto &st) {
                auto rng = st->rng_.state();
                ar("rng", rng);
                if constexpr (Ar::loading)
                    st->rng_.setState(rng);
                ar("hot_shared", st->hotSharedPos_);
                ar("hot_private", st->hotPrivatePos_);
                ar("refs", st->refs_);
                ar("refs_in_txn", st->refsInTxn_);
            });
            Footprint &fp = inst.footprint_;
            ar("footprint", [&] {
                ar("count", fp.count_);
                std::vector<std::uint64_t> touched;
                if constexpr (!Ar::loading)
                    for (std::size_t i = 0; i < fp.touched_.size(); ++i)
                        if (fp.touched_[i])
                            touched.push_back(i);
                ar("touched", touched);
                if constexpr (Ar::loading) {
                    fp.touched_.assign(fp.touched_.size(), false);
                    std::uint64_t distinct = 0;
                    for (const std::uint64_t off : touched) {
                        CONSIM_ASSERT(off < fp.touched_.size(),
                                      "checkpoint: footprint index "
                                      "out of range");
                        distinct += fp.touched_[off] ? 0 : 1;
                        fp.touched_[off] = true;
                    }
                    // The count is derived state: a snapshot whose
                    // touched set disagrees with it is corrupt, not
                    // merely stale.
                    CONSIM_ASSERT(fp.count_ == distinct,
                                  "checkpoint: vm ", vm,
                                  " footprint count ", fp.count_,
                                  " but ", distinct,
                                  " distinct touched blocks");
                }
            });
            ++vm;
        });
    }

    // --- whole machine ---

    template <class Ar, Is<System> S>
    static void
    machine(Ar &ar, S &s)
    {
        // Restore targets a freshly constructed System: directory
        // entries, cache arrays and queues all start default there,
        // and the loaders rely on it.
        CONSIM_ASSERT(!Ar::loading || (s.now_ == 0 && s.events_.empty()),
                      "restoreCheckpoint needs a fresh System");
        // Mesh geometry is in the document (not just the context) so
        // a restore can sanity-check the rebuilt machine's shape
        // before walking any per-tile arrays.
        int mesh_x = s.cfg_.meshX;
        int mesh_y = s.cfg_.meshY;
        ar("mesh", [&] { ar.rec(mesh_x, mesh_y); });
        CONSIM_ASSERT(mesh_x == s.cfg_.meshX && mesh_y == s.cfg_.meshY,
                      "checkpoint: mesh geometry mismatch (snapshot ",
                      mesh_x, "x", mesh_y, ", machine ", s.cfg_.meshX,
                      "x", s.cfg_.meshY, ")");
        // The clock comes before the events: insertAbs checks every
        // due cycle against it.
        ar("cycle", s.now_);
        ar("events", [&] { events(ar, s); });
        ar.seq("cores", s.cores_, [&](auto &c) { io(ar, s, *c); });
        ar.seq("l1s", s.l1s_, [&](auto &l) { io(ar, *l); });
        ar.seq("banks", s.banks_, [&](auto &b) { io(ar, *b); });
        ar.seq("dirs", s.dirs_, [&](auto &d) { io(ar, *d); });
        ar.seq("mcs", s.mcs_, [&](auto &mc) { io(ar, *mc); });
        dirEntries(ar, s);
        ar("net", [&] { net(ar, s); });
        // Only live fault runtime state: pending WedgeCore events
        // ride in the event queue, so a restored System must NOT
        // re-run setFaultPlan (it would double-fire them).
        ar("faults", [&] {
            ar("drop_armed", s.dropArmed_);
            ar("drop_countdown", s.dropCountdown_);
            ar("memburst_armed", s.memBurstArmed_);
            ar("memburst_start", s.memBurstStart_);
            ar("memburst_end", s.memBurstEnd_);
            ar("memburst_extra", s.memBurstExtra_);
        });
        // QoS runtime state (v4): the dynamic repartitioner's way
        // allocation and miss-curve samples. Present only when QoS is
        // active so QoS-free snapshots keep their exact prior shape.
        if (ar.opt("qos", s.qos_.enabled())) {
            CONSIM_ASSERT(s.qos_.enabled(),
                          "checkpoint carries QoS runtime state but "
                          "the rebuilt machine has QoS off — "
                          "reinstall the QoS config before restore");
            ar("qos", [&] {
                ar("dyn_ways", s.qosDynWays_);
                ar("last_miss_total", s.qosLastMissTotal_);
                ar("prev_delta", s.qosPrevDelta_);
            });
        }
        // Dynamic-scheduling runtime state (v5): the migration count,
        // the epoch-baseline counters the policies delta against, and
        // the feedback loop's backoff window plus (while a swap
        // awaits its verdict) the swap and the pre-swap epoch
        // miss/access totals it is judged against. The policies are
        // pure functions, so this is the entire state.
        if (ar.opt("dyn_sched", s.dynSched_.enabled())) {
            CONSIM_ASSERT(s.dynSched_.enabled(),
                          "checkpoint carries dynamic-scheduling "
                          "runtime state but the rebuilt machine has "
                          "it off — reinstall the dyn-sched config "
                          "before restore");
            ar("dyn_sched", [&] {
                ar("migrations", s.dynMigrations_);
                ar("last_retired", s.dynLastRetired_);
                ar("last_vm", s.dynLastVm_);
                ar("last_group", s.dynLastGroup_);
                ar("hold", s.dynHold_);
                ar("backoff", s.dynBackoff_);
                if (ar.opt("eval", s.dynEval_.decided()))
                    ar("eval", [&] {
                        ar.rec(s.dynEval_.a, s.dynEval_.b,
                               s.dynPreMiss_, s.dynPreAcc_);
                    });
            });
        }
        ar("stats", [&] { s.statsRoot_.io(ar); });
    }

    /** The whole document; the experiment context rides verbatim. */
    template <class Ar, Is<System> S>
    static void
    io(Ar &ar, S &s)
    {
        std::string schema = ckptSchema;
        ar("schema", schema);
        ar("context", s.ckptCtx_);
        ar("machine", [&] { machine(ar, s); });
        vms(ar, s);
    }
};

void
checkCkptSchema(const json::Value &doc)
{
    const json::Value *schema = doc.find("schema");
    CONSIM_ASSERT(schema != nullptr && schema->str() == ckptSchema,
                  "not a consim.ckpt.v5 document (v1 checkpoints "
                  "predate per-source event keys; v2 checkpoints "
                  "encode sharer/presence state as fixed 16-bit "
                  "masks, which the parametric scale model replaced "
                  "with variable-width word arrays; v3 snapshots "
                  "lack the QoS runtime state — per-VM memory-"
                  "controller token buckets and the dynamic "
                  "repartitioner's way allocation; v4 snapshots "
                  "lack the migration-policy runtime state — the "
                  "dynamic scheduler's epoch baselines and migration "
                  "count — so none can be restored; re-run the "
                  "original configuration to take a fresh snapshot)");
}

template <class T>
json::Value
ckptSave(const T &x)
{
    json::Value v;
    json::Saver ar(v);
    CkptAccess::io(ar, x);
    return v;
}

template <class T>
void
ckptLoad(T &x, const json::Value &v)
{
    json::Loader ar(v);
    CkptAccess::io(ar, x);
}

template json::Value ckptSave(const Msg &);
template json::Value ckptSave(const CacheArray<PrivateCacheLine> &);
template json::Value ckptSave(const CacheArray<L2CacheLine> &);
template json::Value ckptSave(const TagArray &);
template void ckptLoad(Msg &, const json::Value &);
template void ckptLoad(CacheArray<PrivateCacheLine> &, const json::Value &);
template void ckptLoad(CacheArray<L2CacheLine> &, const json::Value &);
template void ckptLoad(TagArray &, const json::Value &);

json::Value
System::saveCheckpoint() const
{
    return ckptSave(*this);
}

void
System::restoreCheckpoint(const json::Value &doc)
{
    checkCkptSchema(doc);
    ckptLoad(*this, doc);
    // Core wake cycles are derived state: the restored cores poll on
    // their first tick and write exact ones from there.
    std::fill(coreWake_.begin(), coreWake_.end(), 0);
    // Operational knobs (watchdog, deadline, periodic snapshotting)
    // are deliberately not part of the document: callers re-arm them
    // after restore, and setWatchdogInterval re-baselines its
    // progress snapshot against the restored clock.
}

} // namespace consim
