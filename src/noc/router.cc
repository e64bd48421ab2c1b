#include "noc/router.hh"

#include <algorithm>
#include <bit>

#include "common/bitops.hh"
#include "common/check.hh"
#include "common/logging.hh"

namespace consim
{

MeshShared::MeshShared(int tiles, const NocParams &params)
{
    const auto n = static_cast<std::size_t>(tiles);
    words = (n + 63) / 64;
    activeRouters.assign(words, 0);
    wakeAt.assign(n, cycleNever);
    doneAt.assign(n, cycleNever);
    // Marks reach at most pipelineDelay (an arrival's readyCycle) or
    // dataFlits (a grant's doneAt) cycles past the ticking cycle.
    const auto reach = static_cast<std::uint64_t>(
        std::max(params.pipelineDelay, params.dataFlits));
    const std::uint64_t slots = std::bit_ceil(reach + 1);
    wheelMask = slots - 1;
    doneWheel.assign(slots * words, 0);
    readyWheel.assign(slots * words, 0);
    // A VC holds at most vcBufferFlits packets (1 flit minimum); the
    // 1-byte head and count bound the ring at 256 handles.
    CONSIM_ASSERT(params.vcBufferFlits >= 1 &&
                      params.vcBufferFlits <= 255,
                  "VC buffer of ", params.vcBufferFlits,
                  " flits is outside 1..255");
    vcSlotShift = ceilLog2(static_cast<std::uint64_t>(
        params.vcBufferFlits));
    vcSlots.assign((n * NumPorts * params.totalVcs())
                       << vcSlotShift,
                   0);
    CONSIM_ASSERT(NumPorts * params.totalVcs() <= 64,
                  "switch allocator tracks input-VC occupancy in one "
                  "64-bit word; ", NumPorts * params.totalVcs(),
                  " input VCs exceed it");
    for (int idx = 0; idx < NumPorts * params.totalVcs(); ++idx) {
        inputPort[idx] =
            static_cast<std::uint8_t>(idx / params.totalVcs());
        inputVnet[idx] = static_cast<std::uint8_t>(
            idx % params.totalVcs() / params.vcsPerVnet);
    }
    tileX.resize(n);
    tileY.resize(n);
    for (std::size_t t = 0; t < n; ++t) {
        tileX[t] = static_cast<std::uint16_t>(t % params.meshX);
        tileY[t] = static_cast<std::uint16_t>(t / params.meshX);
    }
    // Every live packet sits in an input VC or on an output port.
    pool.reserve(n * NumPorts *
                 (static_cast<std::size_t>(params.totalVcs()) *
                      params.vcBufferFlits +
                  1));
}

Router::Router(CoreId tile, const NocParams &params, NetworkStats *stats,
               MeshShared *shared)
    : tile_(tile), params_(params), stats_(stats), shared_(shared),
      pool_(shared->pool), inputs_(NumPorts * params.totalVcs())
{
    CONSIM_ASSERT(params_.vcBufferFlits >= params_.dataFlits,
                  "VC buffer must hold a full data packet");
    const std::size_t first =
        static_cast<std::size_t>(tile) * inputs_.size()
        << shared->vcSlotShift;
    CONSIM_ASSERT(first < shared->vcSlots.size(), "router ", tile,
                  " outside its mesh's VC slab");
    slots_ = shared->vcSlots.data() + first;
    for (auto &vc : inputs_)
        vc.freeFlits = params_.vcBufferFlits;
}

void
Router::setNeighbor(int port, Router *r)
{
    CONSIM_ASSERT(port > PortLocal && port < NumPorts, "bad port ", port);
    neighbor_[port] = r;
}

void
Router::setQos(VmId protected_vm, int reserved_vcs)
{
    CONSIM_ASSERT(reserved_vcs >= 0 &&
                      reserved_vcs < params_.vcsPerVnet,
                  "QoS must leave at least one shared VC per vnet "
                  "(reserved ", reserved_vcs, " of ",
                  params_.vcsPerVnet, ")");
    qosProtectedVm_ = protected_vm;
    qosReservedVcs_ = reserved_vcs;
}

bool
Router::canAccept(int in_port, int vnet, int len, VmId vm,
                  int *vc_out) const
{
    // Unprotected traffic is confined to the low (shared) VCs of its
    // vnet; protected traffic prefers its reserved high VCs and falls
    // back to the shared ones. With no reservation this is exactly
    // the original first-fit scan.
    const int shared = params_.vcsPerVnet - qosReservedVcs_;
    const bool prot =
        qosReservedVcs_ > 0 && vm == qosProtectedVm_;
    if (prot) {
        for (int i = shared; i < params_.vcsPerVnet; ++i) {
            const int vc = vcIndex(vnet, i);
            if (in(in_port, vc).freeFlits >= len) {
                if (vc_out)
                    *vc_out = vc;
                return true;
            }
        }
    }
    for (int i = 0; i < shared; ++i) {
        const int vc = vcIndex(vnet, i);
        if (in(in_port, vc).freeFlits >= len) {
            if (vc_out)
                *vc_out = vc;
            return true;
        }
    }
    return false;
}

void
Router::reserve(int in_port, int vc, int len)
{
    auto &ivc = in(in_port, vc);
    CONSIM_ASSERT(ivc.freeFlits >= len, "reserve without space");
    ivc.freeFlits -= len;
}

void
Router::arrive(int in_port, int vc, PacketId id, Cycle now)
{
    // RC stage: compute the output port once, on arrival.
    RouterPacket &pkt = pool_[id];
    const CoreId dst = pkt.msg.dstTile;
    pkt.outPort = xyRouteAt(shared_->tileX[tile_], shared_->tileY[tile_],
                            shared_->tileX[dst], shared_->tileY[dst]);
    pkt.readyCycle = now + params_.pipelineDelay;
    const int idx = in_port * params_.totalVcs() + vc;
    vcPush(idx, id);
    occ_ |= std::uint64_t(1) << idx;
    // A packet landing behind a head leaves the heads, and so the
    // wake cycle, as they were.
    if (in(in_port, vc).count == 1) {
        const Cycle go = headGo(pkt);
        if (go < wakeAt()) {
            wakeAt() = go;
            shared_->mark(shared_->readyWheel, go, tile_);
        }
    }
    ++buffered_;
    markActive();
}

void
Router::injectLocal(int vc, Msg &&m, int len_flits, Cycle now)
{
    const PacketId id = pool_.alloc();
    RouterPacket &pkt = pool_[id];
    pkt.msg = std::move(m);
    pkt.lenFlits = len_flits;
    arrive(PortLocal, vc, id, now);
}

void
Router::completeOutputs(Cycle now)
{
    Cycle earliest = cycleNever;
    for (int port = 0; port < NumPorts; ++port) {
        auto &out = outputs_[port];
        if (!out.busy)
            continue;
        if (out.doneAt > now) {
            earliest = std::min(earliest, out.doneAt);
            continue;
        }
        out.busy = false;
        --busyOutputs_;
        --shared_->busyLinks;
        if (port == PortLocal) {
            CONSIM_ASSERT(eject_, "no ejector on router ", tile_);
            const RouterPacket &pkt = pool_[out.pkt];
            eject_(pkt.msg, pkt.lenFlits);
            pool_.release(out.pkt);
        } else {
            Router *next = neighbor_[port];
            CONSIM_ASSERT(next, "transmit into mesh edge at ", tile_);
            next->arrive(oppositePort(port), out.dstVc, out.pkt, now);
        }
    }
    // Each remaining output was filed at its doneAt when granted.
    nextDone() = earliest;
}

void
Router::allocate(Cycle now)
{
    bool inPortUsed[NumPorts] = {};
    // With QoS active the protected VM's packets get first claim on
    // the switch, except on a deterministic yield cycle (every
    // fourth) that degrades to plain round-robin so unprotected
    // traffic cannot starve behind a saturating protected stream.
    if (qosReservedVcs_ > 0 && (now & 3) != 3)
        allocatePass(now, inPortUsed, /*protected_only=*/true);
    allocatePass(now, inPortUsed, /*protected_only=*/false);
    // A grant changes heads and busies outputs. A ready head whose
    // output is free but that got no grant (no downstream credit, its
    // input port used this cycle) retries next cycle.
    Cycle &wake = wakeAt();
    wake = headWake();
    if (wake != cycleNever)
        shared_->mark(shared_->readyWheel, std::max(wake, now + 1),
                      tile_);
}

void
Router::allocatePass(Cycle now, bool inPortUsed[NumPorts],
                     bool protected_only)
{
    const int total = NumPorts * params_.totalVcs();
    // Round-robin over input VCs for fairness; one grant per input
    // port and one per output port per cycle (shared across passes).
    //
    // This is the reference arbitration loop, kept verbatim in
    // spirit: visit idx = (rrInput_ + k) % total for k = 0..total-1,
    // where rrInput_ advances to idx+1 on every grant (so the visit
    // sequence re-anchors mid-sweep). Iterations that land on an
    // empty VC have no side effects, so the occupancy bitmask lets
    // us jump straight to the next non-empty VC in that exact
    // sequence instead of touching all NumPorts*totalVcs queues —
    // the arbitration order (and therefore every simulation result)
    // is unchanged.
    int k = 0;
    while (k < total && occ_ != 0) {
        // rrInput_ and k are both below total.
        const int start = rrInput_ + k < total ? rrInput_ + k
                                               : rrInput_ + k - total;
        int idx;
        if (const std::uint64_t ge = occ_ >> start; ge != 0) {
            const int d = lowestSetBit(ge);
            k += d;
            idx = start + d;
        } else {
            // Wrap: the next occupied VC sits below `start`.
            const int w = lowestSetBit(occ_);
            k += (total - start) + w;
            idx = w;
        }
        if (k >= total)
            break;
        const int port = shared_->inputPort[idx];
        auto &ivc = inputs_[idx];
        ++k;
        if (inPortUsed[port])
            continue;
        const PacketId id = vcAt(idx, 0);
        const RouterPacket &pkt = pool_[id];
        if (protected_only && pkt.msg.vm != qosProtectedVm_)
            continue;
        if (pkt.readyCycle > now)
            continue;
        auto &out = outputs_[pkt.outPort];
        if (out.busy)
            continue;

        int downVc = 0;
        if (pkt.outPort != PortLocal) {
            Router *next = neighbor_[pkt.outPort];
            CONSIM_ASSERT(next, "route into mesh edge at ", tile_,
                          " port ", pkt.outPort, " dst ",
                          pkt.msg.dstTile);
            // An input VC only holds packets of its own vnet.
            const int vnet = shared_->inputVnet[idx];
            if (!next->canAccept(oppositePort(pkt.outPort), vnet,
                                 pkt.lenFlits, pkt.msg.vm, &downVc)) {
                continue; // back-pressure: retry next cycle
            }
            next->reserve(oppositePort(pkt.outPort), downVc,
                          pkt.lenFlits);
            stats_->flitHops += pkt.lenFlits;
        }

        // Grant: occupy the output for the packet's serialization
        // latency, free this VC's buffer space, advance fairness.
        out.busy = true;
        ++busyOutputs_;
        ++shared_->busyLinks;
        out.doneAt = now + pkt.lenFlits;
        nextDone() = std::min(nextDone(), out.doneAt);
        shared_->mark(shared_->doneWheel, out.doneAt, tile_);
        out.dstVc = downVc;
        out.pkt = id;
        vcPop(idx);
        if (ivc.count == 0)
            occ_ &= ~(std::uint64_t(1) << idx);
        --buffered_;
        ivc.freeFlits += pkt.lenFlits;
        inPortUsed[port] = true;
        rrInput_ = idx + 1 == total ? 0 : idx + 1;
    }
}

Cycle
Router::headWake() const
{
    Cycle wake = cycleNever;
    for (std::uint64_t bits = occ_; bits != 0; bits &= bits - 1)
        wake = std::min(wake, headGo(pool_[vcAt(lowestSetBit(bits), 0)]));
    return wake;
}

Cycle
Router::outputsDone() const
{
    Cycle done = cycleNever;
    for (const auto &out : outputs_) {
        if (out.busy)
            done = std::min(done, out.doneAt);
    }
    return done;
}

void
Router::rebuildActivity()
{
    occ_ = 0;
    buffered_ = 0;
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
        if (inputs_[i].count != 0)
            occ_ |= std::uint64_t(1) << i;
        buffered_ += inputs_[i].count;
    }
    busyOutputs_ = 0;
    for (const auto &out : outputs_)
        busyOutputs_ += out.busy ? 1 : 0;
    wakeAt() = headWake();
    nextDone() = outputsDone();
}

void
Router::markWheels(Cycle from)
{
    if (wakeAt() != cycleNever)
        shared_->mark(shared_->readyWheel, std::max(wakeAt(), from),
                      tile_);
    for (const auto &out : outputs_) {
        if (out.busy)
            shared_->mark(shared_->doneWheel,
                          std::max(out.doneAt, from), tile_);
    }
}

bool
Router::idle() const
{
    return buffered_ == 0 && busyOutputs_ == 0;
}

int
Router::bufferedPackets() const
{
    int n = 0;
    for (const auto &ivc : inputs_)
        n += ivc.count;
    return n;
}

void
Router::forEachTransit(
    const std::function<void(CoreId, int, int, int)> &fn) const
{
    for (int port = 0; port < NumPorts; ++port) {
        const auto &out = outputs_[port];
        if (!out.busy || port == PortLocal)
            continue;
        // Non-null: asserted when the grant was issued.
        const Router *next = neighbor_[port];
        fn(next->tile_, oppositePort(port), out.dstVc,
           pool_[out.pkt].lenFlits);
    }
}

void
Router::checkInvariants(
    const std::function<int(int, int)> &inbound_reserved) const
{
    int buffered = 0;
    for (int port = 0; port < NumPorts; ++port) {
        for (int vc = 0; vc < params_.totalVcs(); ++vc) {
            const auto &ivc = in(port, vc);
            const int idx = port * params_.totalVcs() + vc;
            int queuedFlits = 0;
            for (int i = 0; i < ivc.count; ++i) {
                const RouterPacket &pkt = pool_[vcAt(idx, i)];
                if (pkt.lenFlits < 1 ||
                    pkt.lenFlits > params_.vcBufferFlits) {
                    CONSIM_CHECK_FAIL("router ", tile_,
                                      ": packet with bad length ",
                                      pkt.lenFlits, " flits");
                }
                queuedFlits += pkt.lenFlits;
            }
            buffered += ivc.count;
            if (ivc.freeFlits < 0 ||
                ivc.freeFlits > params_.vcBufferFlits) {
                CONSIM_CHECK_FAIL("router ", tile_, " port ", port,
                                  " vc ", vc, ": credit count ",
                                  ivc.freeFlits, " out of range");
            }
            const int held = ivc.freeFlits + queuedFlits;
            if (inbound_reserved) {
                const int transit = inbound_reserved(port, vc);
                if (held + transit != params_.vcBufferFlits) {
                    CONSIM_CHECK_FAIL(
                        "router ", tile_, " port ", port, " vc ", vc,
                        ": flit credits not conserved (free=",
                        ivc.freeFlits, " queued=", queuedFlits,
                        " in_transit=", transit, " buffer=",
                        params_.vcBufferFlits, ")");
                }
            } else if (held > params_.vcBufferFlits) {
                CONSIM_CHECK_FAIL(
                    "router ", tile_, " port ", port, " vc ", vc,
                    ": credits exceed buffer (free=", ivc.freeFlits,
                    " queued=", queuedFlits, " buffer=",
                    params_.vcBufferFlits, ")");
            }
        }
    }
    if (buffered != buffered_) {
        CONSIM_CHECK_FAIL("router ", tile_,
                          ": buffered packet count drifted (cached=",
                          buffered_, " recount=", buffered, ")");
    }
    int busy = 0;
    for (const auto &out : outputs_)
        busy += out.busy ? 1 : 0;
    if (busy != busyOutputs_) {
        CONSIM_CHECK_FAIL("router ", tile_,
                          ": busy output count drifted (cached=",
                          busyOutputs_, " recount=", busy, ")");
    }
    if (wakeAt() != headWake() || nextDone() != outputsDone()) {
        CONSIM_CHECK_FAIL("router ", tile_,
                          ": wake cycle drifted (cached wake=",
                          wakeAt(), " done=", nextDone(),
                          ", recount wake=", headWake(), " done=",
                          outputsDone(), ")");
    }
}

json::Value
Router::creditJson() const
{
    auto v = json::Value::object();
    v.set("tile", tile_);
    v.set("buffered", buffered_);
    v.set("busy_outputs", busyOutputs_);
    auto vcs = json::Value::array();
    for (int port = 0; port < NumPorts; ++port) {
        for (int vc = 0; vc < params_.totalVcs(); ++vc) {
            const auto &ivc = in(port, vc);
            // Only VCs holding packets or missing credits are
            // interesting in a hang dump.
            if (ivc.count == 0 &&
                ivc.freeFlits == params_.vcBufferFlits) {
                continue;
            }
            auto e = json::Value::object();
            e.set("port", port);
            e.set("vc", vc);
            e.set("free_flits", ivc.freeFlits);
            e.set("queued", static_cast<int>(ivc.count));
            if (ivc.count != 0) {
                const PacketId head =
                    vcAt(port * params_.totalVcs() + vc, 0);
                e.set("head", describe(pool_[head].msg));
            }
            vcs.push(std::move(e));
        }
    }
    v.set("vcs", std::move(vcs));
    return v;
}

} // namespace consim
