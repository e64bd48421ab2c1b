/**
 * @file
 * The 2-D packet-switched mesh: a grid of Routers plus per-tile
 * NetworkInterfaces, implementing the Network interface used by the
 * System. Geometry and VC parameters come from MachineConfig.
 *
 * A tick visits only the routers with something due that cycle and
 * the NIs with queued messages, in ascending tile order (the order a
 * walk over every tile would visit them in), so host time follows
 * the packets in flight rather than the size of the chip:
 *  - phase 1 drains the doneWheel slot of the cycle: the routers
 *    with an output completing now (MeshShared);
 *  - phase 2 walks the NIs with queued messages;
 *  - phase 3 drains the readyWheel slot: the routers with a head
 *    that can win the switch now (ready, its output free), including
 *    heads left without a grant last cycle.
 * Each phase clears its slot as it walks it; the routers re-file
 * themselves for later cycles as they work.
 */

#ifndef CONSIM_NOC_MESH_HH
#define CONSIM_NOC_MESH_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/config.hh"
#include "noc/network.hh"
#include "noc/network_interface.hh"
#include "noc/router.hh"

namespace consim
{

/** Flit-level 2-D mesh interconnect. */
class Mesh : public Network
{
  public:
    explicit Mesh(const MachineConfig &cfg);

    void inject(Msg m) override;
    void tick(Cycle now) override;
    bool idle() const override;

    /**
     * Hardening audit: per-VC flit/credit conservation across every
     * router (folding in-transit reservations into the equation),
     * global packet conservation (injected - ejected must equal
     * buffered + NI-queued + in-transit, which must also equal the
     * routers' pooled packets plus NI-queued), the active sets and
     * busy-link count against a recount, and that every router with
     * a finite wake or completion cycle is filed in the matching
     * wheel slot. Throws SimError on violation.
     */
    void checkConservation() const override;

    /** Non-idle router credit maps + NI queue depths (diag dump). */
    json::Value diagJson() const override;

    /** Propagate QoS VC reservation/priority to every router. */
    void setQos(VmId protected_vm, int reserved_vcs) override;

    /** @return router at a tile (tests/diagnostics). */
    Router &router(CoreId tile) { return *routers_.at(tile); }

    /** @return the routers' shared state (tests/diagnostics). */
    MeshShared &shared() { return shared_; }

    /** @return the derived NoC parameters. */
    const NocParams &params() const { return params_; }

    /** @return total packets buffered in-network (diagnostics). */
    int inFlight() const;

  private:
    friend struct CkptAccess;

    /** Recompute the busy-link count and both active sets from the
     *  routers and NIs, and re-file every router in the wheels for
     *  a resume at cycle @p resume (checkpoint restore refills their
     *  queues). Derived state only: nothing here is serialized. */
    void rebuildActivity(Cycle resume);

    NocParams params_;
    Cycle lastTick_ = 0;
    MeshShared shared_; ///< pool, slab, wheels, per-tile cycles
    std::vector<std::uint64_t> niActive_; ///< NIs with queued messages
    std::vector<std::unique_ptr<Router>> routers_;
    std::vector<std::unique_ptr<NetworkInterface>> nis_;
};

} // namespace consim

#endif // CONSIM_NOC_MESH_HH
