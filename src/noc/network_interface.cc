#include "noc/network_interface.hh"

#include "common/logging.hh"

namespace consim
{

NetworkInterface::NetworkInterface(CoreId tile, const NocParams &params,
                                   Router *router)
    : tile_(tile), params_(params), router_(router),
      queues_(params.numVnets)
{
    CONSIM_ASSERT(router_ != nullptr, "NI without router at ", tile_);
}

void
NetworkInterface::enqueue(Msg m)
{
    const int vnet = vnetOf(m.type);
    queues_[vnet].push_back(std::move(m));
    ++queuedTotal_;
}

void
NetworkInterface::tickSlow(Cycle now)
{
    for (int vnet = 0; vnet < params_.numVnets; ++vnet) {
        auto &q = queues_[vnet];
        if (q.empty())
            continue;
        const int len = params_.flitsOf(q.front().type);
        int vc = 0;
        if (!router_->canAccept(PortLocal, vnet, len, q.front().vm,
                                &vc))
            continue;
        router_->reserve(PortLocal, vc, len);
        router_->injectLocal(vc, std::move(q.front()), len, now);
        q.pop_front();
        --queuedTotal_;
    }
}

void
NetworkInterface::recountQueued()
{
    queuedTotal_ = 0;
    for (const auto &q : queues_)
        queuedTotal_ += static_cast<int>(q.size());
}

} // namespace consim
