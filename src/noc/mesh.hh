/**
 * @file
 * The 2-D packet-switched mesh: a grid of Routers plus per-tile
 * NetworkInterfaces, implementing the Network interface used by the
 * System. Geometry and VC parameters come from MachineConfig.
 *
 * A tick visits only the routers holding packets and the NIs with
 * queued messages, in ascending tile order (the order a walk over
 * every tile would visit them in), so host time follows the packets
 * in flight rather than the size of the chip.
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
     * routers' pooled packets plus NI-queued), and the active sets
     * and busy-link count against a recount. Throws SimError on
     * violation.
     */
    void checkConservation() const override;

    /** Non-idle router credit maps + NI queue depths (diag dump). */
    json::Value diagJson() const override;

    /** Propagate QoS VC reservation/priority to every router. */
    void setQos(VmId protected_vm, int reserved_vcs) override;

    /** @return router at a tile (tests/diagnostics). */
    Router &router(CoreId tile) { return *routers_.at(tile); }

    /** @return the derived NoC parameters. */
    const NocParams &params() const { return params_; }

    /** @return total packets buffered in-network (diagnostics). */
    int inFlight() const;

  private:
    friend struct CkptAccess;

    /** Recompute the busy-link count and both active sets from the
     *  routers and NIs (checkpoint restore refills their queues). */
    void rebuildActivity();

    NocParams params_;
    Cycle lastTick_ = 0;
    MeshShared shared_; ///< pool, busy links, active routers
    std::vector<std::uint64_t> niActive_; ///< NIs with queued messages
    std::vector<std::unique_ptr<Router>> routers_;
    std::vector<std::unique_ptr<NetworkInterface>> nis_;
};

} // namespace consim

#endif // CONSIM_NOC_MESH_HH
