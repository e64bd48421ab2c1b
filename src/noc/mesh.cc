#include "noc/mesh.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/check.hh"
#include "common/logging.hh"

namespace consim
{

namespace
{

/** Call @p fn(tile) for each set bit of @p words, ascending. Each
 *  word is read once, when the walk reaches it. */
template <typename Fn>
void
forEachTile(const std::vector<std::uint64_t> &words, Fn &&fn)
{
    for (std::size_t w = 0; w < words.size(); ++w) {
        for (std::uint64_t bits = words[w]; bits != 0;
             bits &= bits - 1)
            fn(static_cast<CoreId>(w * 64 + lowestSetBit(bits)));
    }
}

void
setBit(std::vector<std::uint64_t> &words, CoreId t)
{
    words[t >> 6] |= std::uint64_t(1) << (t & 63);
}

void
clearBit(std::vector<std::uint64_t> &words, CoreId t)
{
    words[t >> 6] &= ~(std::uint64_t(1) << (t & 63));
}

bool
testBit(const std::vector<std::uint64_t> &words, CoreId t)
{
    return (words[t >> 6] >> (t & 63)) & 1;
}

} // namespace

Mesh::Mesh(const MachineConfig &cfg)
{
    params_.meshX = cfg.meshX;
    params_.meshY = cfg.meshY;
    params_.numVnets = cfg.numVnets;
    params_.vcsPerVnet = cfg.vcsPerVnet;
    // One header flit plus the 64B block payload.
    params_.dataFlits =
        (blockBytes + cfg.flitBytes - 1) / cfg.flitBytes + 1;
    params_.ctrlFlits = 1;
    params_.vcBufferFlits =
        std::max(cfg.vcBufferFlits, params_.dataFlits);
    params_.pipelineDelay = 2; // 3-stage pipe: RC, VA/SA, ST

    const int n = cfg.numCores();
    // Every live packet sits in an input VC (at most vcBufferFlits
    // one-flit packets each) or on an output port.
    shared_.pool.reserve(static_cast<std::size_t>(n) * NumPorts *
                         (params_.totalVcs() * params_.vcBufferFlits +
                          1));
    shared_.activeRouters.assign((n + 63) / 64, 0);
    niActive_.assign((n + 63) / 64, 0);
    routers_.reserve(n);
    nis_.reserve(n);
    for (CoreId t = 0; t < n; ++t)
        routers_.push_back(std::make_unique<Router>(t, params_,
                                                    &stats_, &shared_));
    for (CoreId t = 0; t < n; ++t) {
        const int x = t % cfg.meshX, y = t / cfg.meshX;
        Router &r = *routers_[t];
        if (y > 0)
            r.setNeighbor(PortNorth, routers_[t - cfg.meshX].get());
        if (y < cfg.meshY - 1)
            r.setNeighbor(PortSouth, routers_[t + cfg.meshX].get());
        if (x < cfg.meshX - 1)
            r.setNeighbor(PortEast, routers_[t + 1].get());
        if (x > 0)
            r.setNeighbor(PortWest, routers_[t - 1].get());
        r.setEjector([this](const Msg &m, int len) {
            recordEject(m, lastTick_, len);
            deliver_(m);
        });
        nis_.push_back(
            std::make_unique<NetworkInterface>(t, params_, &r));
    }
}

void
Mesh::inject(Msg m)
{
    CONSIM_ASSERT(m.srcTile != m.dstTile,
                  "mesh injection for a same-tile message");
    ++stats_.packetsInjected;
    ++injectedTotal_;
    const CoreId src = m.srcTile;
    nis_.at(src)->enqueue(std::move(m));
    setBit(niActive_, src);
}

void
Mesh::tick(Cycle now)
{
    lastTick_ = now;
    // Every output busy at the start of the cycle sends a flit.
    stats_.linkBusyCycles +=
        static_cast<std::uint64_t>(shared_.busyLinks);
    // Phase 1: finish transmissions (arrivals land, ejections fire).
    // A router that an arrival activates during this walk has no
    // busy output yet, so it has nothing to do here.
    forEachTile(shared_.activeRouters,
                [&](CoreId t) { routers_[t]->tickOutputs(now); });
    // Phase 2: sources inject into local input VCs.
    forEachTile(niActive_, [&](CoreId t) {
        NetworkInterface &ni = *nis_[t];
        ni.tick(now);
        if (ni.idle())
            clearBit(niActive_, t);
    });
    // Phase 3: switch allocation; routers left idle leave the set.
    forEachTile(shared_.activeRouters, [&](CoreId t) {
        Router &r = *routers_[t];
        r.tickAllocate(now);
        if (r.idle())
            clearBit(shared_.activeRouters, t);
    });
}

void
Mesh::rebuildActivity()
{
    std::fill(shared_.activeRouters.begin(),
              shared_.activeRouters.end(), 0);
    std::fill(niActive_.begin(), niActive_.end(), 0);
    shared_.busyLinks = 0;
    for (std::size_t t = 0; t < routers_.size(); ++t) {
        const auto tile = static_cast<CoreId>(t);
        shared_.busyLinks += routers_[t]->transitPackets();
        if (!routers_[t]->idle())
            setBit(shared_.activeRouters, tile);
        if (!nis_[t]->idle())
            setBit(niActive_, tile);
    }
}

void
Mesh::setQos(VmId protected_vm, int reserved_vcs)
{
    for (auto &r : routers_)
        r->setQos(protected_vm, reserved_vcs);
}

bool
Mesh::idle() const
{
    for (std::size_t w = 0; w < niActive_.size(); ++w) {
        if ((shared_.activeRouters[w] | niActive_[w]) != 0)
            return false;
    }
    return true;
}

int
Mesh::inFlight() const
{
    int n = 0;
    for (const auto &r : routers_)
        n += r->bufferedPackets();
    for (const auto &ni : nis_)
        n += ni->queued();
    return n;
}

void
Mesh::checkConservation() const
{
    // Pass 1: collect credits held by packets in transit, keyed by
    // their destination (tile, port, vc).
    const int totalVcs = params_.totalVcs();
    std::vector<int> reserved(routers_.size() * NumPorts * totalVcs,
                              0);
    const auto slot = [&](CoreId tile, int port, int vc) -> int & {
        return reserved[(static_cast<std::size_t>(tile) * NumPorts +
                         port) * totalVcs + vc];
    };
    for (const auto &r : routers_) {
        r->forEachTransit(
            [&](CoreId dst, int port, int vc, int flits) {
                slot(dst, port, vc) += flits;
            });
    }

    // Pass 2: per-router credit equations plus the packet census.
    int buffered = 0, transit = 0, queued = 0;
    for (const auto &r : routers_) {
        const CoreId t = r->tile();
        r->checkInvariants(
            [&](int port, int vc) { return slot(t, port, vc); });
        buffered += r->bufferedPackets();
        transit += r->transitPackets();
    }
    for (const auto &ni : nis_)
        queued += ni->queued();

    for (std::size_t t = 0; t < routers_.size(); ++t) {
        const auto tile = static_cast<CoreId>(t);
        if (testBit(shared_.activeRouters, tile) ==
                routers_[t]->idle() ||
            testBit(niActive_, tile) == nis_[t]->idle()) {
            CONSIM_CHECK_FAIL("mesh active set out of step at tile ",
                              t, " (router idle=",
                              routers_[t]->idle(), ", NI idle=",
                              nis_[t]->idle(), ")");
        }
    }
    if (shared_.busyLinks != transit ||
        shared_.pool.live() !=
            static_cast<std::size_t>(buffered + transit)) {
        CONSIM_CHECK_FAIL("mesh packet pool out of step: busy_links=",
                          shared_.busyLinks, " in_transit=", transit,
                          " pooled=", shared_.pool.live(),
                          " buffered=", buffered);
    }

    const std::uint64_t inNetwork =
        static_cast<std::uint64_t>(buffered + transit + queued);
    if (injectedTotal_ - ejectedTotal_ != inNetwork) {
        CONSIM_CHECK_FAIL(
            "mesh packet conservation broken: injected=",
            injectedTotal_, " ejected=", ejectedTotal_,
            " buffered=", buffered, " in_transit=", transit,
            " ni_queued=", queued);
    }
}

json::Value
Mesh::diagJson() const
{
    auto v = json::Value::object();
    v.set("injected_total", injectedTotal_);
    v.set("ejected_total", ejectedTotal_);
    v.set("in_flight", inFlight());
    auto routers = json::Value::array();
    for (const auto &r : routers_) {
        if (!r->idle())
            routers.push(r->creditJson());
    }
    v.set("routers", std::move(routers));
    auto nis = json::Value::array();
    for (std::size_t t = 0; t < nis_.size(); ++t) {
        if (nis_[t]->queued() == 0)
            continue;
        auto e = json::Value::object();
        e.set("tile", static_cast<int>(t));
        e.set("queued", nis_[t]->queued());
        nis.push(std::move(e));
    }
    v.set("ni_queues", std::move(nis));
    return v;
}

} // namespace consim
