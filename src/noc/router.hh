/**
 * @file
 * A mesh router with virtual-channel flow control and a 3-stage
 * pipeline, following the paper's Table III interconnect: 2-D
 * packet-switched mesh, dimension-order routing, speculative VA/SA.
 *
 * Modelling notes:
 *  - Packets move with virtual cut-through granularity: a packet is
 *    fully buffered in an input VC, then competes for the switch.
 *    Buffers are sized in flits; a VC is reserved for a whole packet.
 *  - The 3-stage pipeline (RC, speculative VA+SA, ST) is modelled as
 *    two cycles of pipeline delay after full arrival, then one cycle
 *    per flit of switch/link transmission.
 *  - Credits are modelled with direct visibility into the downstream
 *    buffer (the simulator is single-threaded); credit turnaround is
 *    folded into the pipeline delay.
 *  - Virtual networks (request/forward/response) are sets of VCs; a
 *    packet may only use VCs of its own vnet, which breaks protocol
 *    deadlock cycles. XY routing keeps each vnet cycle-free.
 *
 * Activity-driven evaluation (host cost follows packets, not tiles):
 *  - Packets live in the mesh's PacketPool; VC rings and output
 *    ports hold 4-byte handles. A handle is taken when the NI
 *    injects and released when the packet ejects.
 *  - wakeAt_ is the earliest readyCycle among the input-VC heads.
 *    Before it no head can win the switch, so the allocation sweep
 *    (which would grant nothing and leave rrInput_ alone) is skipped.
 *  - A busy output stores the cycle it completes (doneAt); the
 *    router looks at its outputs only at the earliest of them.
 *  - link_busy_cycles grows once per cycle by the mesh-wide count of
 *    busy outputs, the same per-cycle sum a per-output countdown
 *    would add.
 */

#ifndef CONSIM_NOC_ROUTER_HH
#define CONSIM_NOC_ROUTER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "coherence/protocol.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/ring.hh"
#include "noc/network.hh"
#include "noc/routing.hh"

namespace consim
{

/** NoC structural parameters (derived from MachineConfig). */
struct NocParams
{
    int meshX = 4;
    int meshY = 4;
    int numVnets = 3;
    int vcsPerVnet = 2;
    int vcBufferFlits = 8;   ///< must hold a full data packet
    int pipelineDelay = 2;   ///< cycles from full arrival to SA
    int dataFlits = 5;       ///< 64B block + header @ 16B flits
    int ctrlFlits = 1;

    int totalVcs() const { return numVnets * vcsPerVnet; }
    int flitsOf(MsgType t) const
    {
        return carriesData(t) ? dataFlits : ctrlFlits;
    }
};

/** A packet inside the router network. */
struct RouterPacket
{
    Msg msg;
    int lenFlits = 1;
    Cycle readyCycle = 0; ///< eligible for switch allocation
    int outPort = PortLocal;
};

/** Handle of a RouterPacket in its mesh's PacketPool. */
using PacketId = std::uint32_t;

/**
 * Fixed-capacity packet storage for one mesh. Slots are reused
 * last-freed-first, so the pages touched track the packets in
 * flight; the capacity is reserved up front and never exceeded, so
 * handles stay valid and a warmed mesh never allocates.
 */
class PacketPool
{
  public:
    /** Reserve room for @p cap live packets (the credit bound). */
    void
    reserve(std::size_t cap)
    {
        capacity_ = cap;
        slots_.reserve(cap);
        free_.reserve(cap);
    }

    PacketId
    alloc()
    {
        if (!free_.empty()) {
            const PacketId id = free_.back();
            free_.pop_back();
            return id;
        }
        CONSIM_ASSERT(slots_.size() < capacity_,
                      "packet pool outgrew its reserved credit "
                      "capacity of ", capacity_, " packets");
        slots_.emplace_back();
        return static_cast<PacketId>(slots_.size() - 1);
    }

    void release(PacketId id) { free_.push_back(id); }

    RouterPacket &operator[](PacketId id) { return slots_[id]; }
    const RouterPacket &operator[](PacketId id) const
    {
        return slots_[id];
    }

    /** Drop every packet; the reservation is kept. */
    void
    clear()
    {
        slots_.clear();
        free_.clear();
    }

    /** @return packets currently held. */
    std::size_t live() const { return slots_.size() - free_.size(); }

  private:
    std::vector<RouterPacket> slots_;
    std::vector<PacketId> free_; ///< LIFO of released handles
    std::size_t capacity_ = 0;
};

/**
 * State the routers of one mesh share: the packet pool, the number
 * of busy output links, and the bitmask (bit = tile) of routers that
 * hold packets, which Mesh::tick walks in ascending tile order.
 */
struct MeshShared
{
    PacketPool pool;
    int busyLinks = 0;
    std::vector<std::uint64_t> activeRouters;
};

/**
 * One mesh router. The Mesh wires routers to their neighbors and
 * registers an ejector for the local port.
 */
class Router
{
  public:
    using EjectFn = std::function<void(const Msg &, int len_flits)>;

    Router(CoreId tile, const NocParams &params, NetworkStats *stats,
           MeshShared *shared);

    /** Wire port @p port to neighbor @p r (nullptr at mesh edges). */
    void setNeighbor(int port, Router *r);

    /** Register the local-port delivery callback. */
    void setEjector(EjectFn fn) { eject_ = std::move(fn); }

    /**
     * Enable per-VM QoS: the top @p reserved_vcs VCs of every vnet
     * only accept packets of @p protected_vm, which also win switch
     * allocation first (with a deterministic yield cycle every fourth
     * cycle so unprotected traffic keeps forward progress). Zero
     * restores the default shared behaviour exactly.
     */
    void setQos(VmId protected_vm, int reserved_vcs);

    /**
     * Ask whether input @p in_port can accept a packet of @p len
     * flits on virtual network @p vnet, sent on behalf of VM @p vm
     * (reserved VCs only admit the protected VM's packets).
     * @param vc_out receives the chosen VC index on success.
     * @return true when an admissible VC with sufficient space exists.
     */
    bool canAccept(int in_port, int vnet, int len, VmId vm,
                   int *vc_out) const;

    /** Reserve @p len flits of space in the chosen VC. */
    void reserve(int in_port, int vc, int len);

    /**
     * Deliver pooled packet @p id into an input VC whose space was
     * reserved. Computes the route (RC stage) and the SA-ready cycle.
     */
    void arrive(int in_port, int vc, PacketId id, Cycle now);

    /** Inject @p m from the local NI into reserved local VC @p vc. */
    void injectLocal(int vc, Msg &&m, int len_flits, Cycle now);

    /** Phase 1: finish the transmissions that complete at @p now
     *  (arrivals land, ejections fire). */
    void
    tickOutputs(Cycle now)
    {
        if (now >= nextDone_)
            tickOutputsSlow(now);
    }

    /** Phase 3: switch allocation (speculative VA+SA), skipped until
     *  some input-VC head is ready. */
    void
    tickAllocate(Cycle now)
    {
        if (now >= wakeAt_)
            tickAllocateSlow(now);
    }

    /** @return true when no buffered packets or active transfers. */
    bool idle() const;

    CoreId tile() const { return tile_; }

    /** @return buffered packets (diagnostics). */
    int bufferedPackets() const;

    /** @return packets mid-transmission on this router's outputs. */
    int transitPackets() const { return busyOutputs_; }

    /**
     * Report every neighbor-bound in-transit packet's downstream
     * credit reservation: the flits it holds in (dstTile, dstPort,
     * dstVc). The mesh-level conservation audit folds these into the
     * per-VC credit equation.
     */
    void forEachTransit(
        const std::function<void(CoreId dst_tile, int dst_port,
                                 int dst_vc, int flits)> &fn) const;

    /**
     * Hardening audit: verify credit and packet accounting. For each
     * input VC, freeFlits + queued flits + inbound in-transit flits
     * must equal vcBufferFlits; buffered_/busyOutputs_ and the wake
     * and completion cycles must match a recount. Throws SimError on
     * violation.
     * @param inbound_reserved flits reserved in (port, vc) by packets
     *        in transit from upstream; when null the per-VC equation
     *        degrades to an upper-bound check.
     */
    void checkInvariants(
        const std::function<int(int port, int vc)> &inbound_reserved)
        const;

    /** Credit/occupancy snapshot for the `consim.diag.v1` dump. */
    json::Value creditJson() const;

  private:
    /** Checkpoint layer saves/restores VC queues and output ports. */
    friend struct CkptAccess;

    struct InputVc
    {
        RingBuf<PacketId> q;
        int freeFlits = 0;
    };

    struct OutPort
    {
        bool busy = false;
        int dstVc = 0;
        Cycle doneAt = 0; ///< the tickOutputs cycle that finishes it
        PacketId pkt = 0;
    };

    int vcIndex(int vnet, int vc_in_vnet) const
    {
        return vnet * params_.vcsPerVnet + vc_in_vnet;
    }

    InputVc &in(int port, int vc) { return inputs_[port * params_.totalVcs() + vc]; }
    const InputVc &in(int port, int vc) const
    {
        return inputs_[port * params_.totalVcs() + vc];
    }

    void tickOutputsSlow(Cycle now);
    void tickAllocateSlow(Cycle now);

    /** One switch-allocation sweep; @p protected_only restricts
     *  grants to the QoS-protected VM's packets (priority pass).
     *  @return true when it granted at least one packet. */
    bool allocatePass(Cycle now, bool inPortUsed[NumPorts],
                      bool protected_only);

    /** @return the earliest readyCycle among the input-VC heads. */
    Cycle headWake() const;

    /** @return the earliest doneAt among the busy outputs. */
    Cycle outputsDone() const;

    /** Recompute occupancy, the counts and the wake/completion
     *  cycles from the queues and outputs (checkpoint restore
     *  refills them behind our back). */
    void rebuildActivity();

    /** Mark this router in the mesh's active set. */
    void
    markActive()
    {
        shared_->activeRouters[tile_ >> 6] |= std::uint64_t(1)
                                              << (tile_ & 63);
    }

    CoreId tile_;
    NocParams params_;
    NetworkStats *stats_;
    MeshShared *shared_;
    PacketPool &pool_;
    std::vector<InputVc> inputs_;       ///< [port][vc]
    OutPort outputs_[NumPorts];
    Router *neighbor_[NumPorts] = {};
    EjectFn eject_;
    int rrInput_ = 0;                   ///< SA fairness pointer
    int buffered_ = 0;                  ///< packets across input VCs
    int busyOutputs_ = 0;               ///< outputs mid-transmission
    std::uint64_t occ_ = 0;             ///< input VCs with packets
    Cycle wakeAt_ = cycleNever;         ///< earliest head readyCycle
    Cycle nextDone_ = cycleNever;       ///< earliest busy doneAt
    VmId qosProtectedVm_ = invalidVm;   ///< QoS: protected VM (config)
    int qosReservedVcs_ = 0;            ///< QoS: reserved VCs per vnet
};

} // namespace consim

#endif // CONSIM_NOC_ROUTER_HH
