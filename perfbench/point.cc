#include "point.hh"

#include <algorithm>
#include <memory>
#include <sstream>

#include "coherence/directory.hh"
#include "common/check.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "common/stats.hh"
#include "core/report.hh"
#include "core/scheduler.hh"
#include "core/system.hh"
#include "core/vm.hh"
#include "workload/profile.hh"

namespace perfbench
{

using namespace consim;

void
PhaseTimes::add(const PhaseTimes &o)
{
    vmBuild += o.vmBuild;
    schedule += o.schedule;
    ctor += o.ctor;
    arm += o.arm;
    warmup += o.warmup;
    measure += o.measure;
    extract += o.extract;
    teardown += o.teardown;
    wall += o.wall;
}

void
addCounts(LayerCounts &to, const LayerCounts &from)
{
    for (const auto &[k, v] : from)
        to[k] += v;
}

std::uint64_t
runDigest(const RunConfig &cfg, const RunResult &r)
{
    std::ostringstream os;
    runResultJson(cfg, averageRunResults({r})).write(os, 2);
    os << "\n";
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : os.str()) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

namespace
{

/** The VMs and placements a System borrows (runExperiment's rig). */
struct Rig
{
    std::vector<std::unique_ptr<VirtualMachine>> storage;
    std::vector<VirtualMachine *> vms;
    std::vector<ThreadPlacement> placements;
};

Rig
buildRig(const RunConfig &cfg, Tracer &tr, PhaseTimes &t)
{
    Rig rig;
    std::vector<int> threads_per_vm;
    {
        Tracer::Scope s(tr, "workload.vm_build", &t.vmBuild);
        std::uint64_t max_blocks = 0;
        for (std::size_t i = 0; i < cfg.workloads.size(); ++i) {
            const auto &prof = WorkloadProfile::get(cfg.workloads[i]);
            const auto nthreads = static_cast<std::uint64_t>(
                i < cfg.vmThreads.size() && cfg.vmThreads[i] > 0
                    ? cfg.vmThreads[i]
                    : prof.numThreads);
            max_blocks = std::max(
                max_blocks, prof.sharedRoBlocks + prof.migratoryBlocks +
                                nthreads * prof.privateBlocksPerThread);
        }
        const int span_bits = requiredVmSpanBits(max_blocks);
        for (std::size_t i = 0; i < cfg.workloads.size(); ++i) {
            const int nthreads =
                i < cfg.vmThreads.size() ? cfg.vmThreads[i] : 0;
            rig.storage.push_back(std::make_unique<VirtualMachine>(
                WorkloadProfile::get(cfg.workloads[i]),
                static_cast<VmId>(i), cfg.seed * 1000003ull + i * 7919ull,
                nthreads, span_bits));
            rig.vms.push_back(rig.storage.back().get());
            threads_per_vm.push_back(rig.storage.back()->numThreads());
        }
    }
    Tracer::Scope s(tr, "core.schedule", &t.schedule);
    rig.placements = scheduleThreads(cfg.machine, threads_per_vm,
                                     cfg.policy, cfg.seed);
    return rig;
}

/** Arm the operational knobs as runExperiment's resolveConfig and
 *  armSystem do (windows are explicit in every benchmark config). */
void
arm(System &sys, const RunConfig &cfg)
{
    sys.setWatchdogInterval(cfg.watchdogIntervalCycles
                                ? cfg.watchdogIntervalCycles
                                : defaultWatchdogIntervalCycles());
    const Cycle slice = cfg.timesliceCycles
                            ? cfg.timesliceCycles
                            : envU64("CONSIM_TIMESLICE", 0);
    if (slice != 0)
        sys.setTimeslice(slice);
    if (cfg.cycleDeadline != 0)
        sys.setCycleDeadline(cfg.cycleDeadline);
    const Cycle ckpt = cfg.ckptEveryCycles
                           ? cfg.ckptEveryCycles
                           : defaultCheckpointIntervalCycles();
    if (ckpt != 0)
        sys.setCheckpointInterval(ckpt);
    sys.setRunJobs(cfg.runJobs ? cfg.runJobs : defaultRunJobs());
    if (cfg.qos.enabled())
        sys.setQosConfig(cfg.qos);
    if (cfg.dynSched.enabled())
        sys.setDynSched(cfg.dynSched);
    if (!cfg.faults.empty())
        sys.setFaultPlan(cfg.faults);
}

/** Sum each layer's counters over the registry, keyed by layer. */
struct CountVisitor : stats::Group::Visitor
{
    LayerCounts out;

    static std::string
    tail(const std::string &path, int parts)
    {
        std::size_t pos = path.size();
        for (int i = 0; i < parts && pos != std::string::npos; ++i)
            pos = pos ? path.rfind('.', pos - 1) : std::string::npos;
        return pos == std::string::npos ? path : path.substr(pos + 1);
    }

    void
    counter(const std::string &path, const stats::Counter &c) override
    {
        static const std::map<std::string, const char *> kByTail = {
            {"core.instructions", "cpu.instructions"},
            {"core.stall_cycles", "cpu.stall_cycles"},
            {"l1.misses", "cache.l1_misses"},
            {"l2bank.hits", "cache.l2_hits"},
            {"l2bank.misses", "cache.l2_misses"},
            {"l2bank.fill_retries", "cache.l2_fill_retries"},
            {"dir.requests", "coherence.dir_requests"},
            {"dir.forwards", "coherence.forwards"},
            {"dir.invalidations", "coherence.invalidations"},
            {"dir.queued_requests", "coherence.queued_requests"},
            {"dir.dir_cache_hits", "coherence.dir_cache_hits"},
            {"dir.dir_cache_misses", "coherence.dir_cache_misses"},
            {"mc.reads", "coherence.mc_reads"},
            {"net.packets_ejected", "noc.packets"},
            {"net.flit_hops", "noc.flit_hops"},
            {"net.link_busy_cycles", "noc.link_busy_cycles"},
        };
        const std::string t = tail(path, 2);
        if (const auto it = kByTail.find(t); it != kByTail.end()) {
            out[it->second] += static_cast<double>(c.value());
        } else if (t.rfind("vm", 0) == 0) {
            const std::string leaf = tail(path, 1);
            if (leaf == "c2c_clean" || leaf == "c2c_dirty")
                out["coherence." + leaf] += static_cast<double>(c.value());
        }
    }

    void
    average(const std::string &path, const stats::Average &a) override
    {
        const std::string t = tail(path, 2);
        const char *key = t == "mc.queue_delay" ? "coherence.mc_queue_delay"
                          : t == "net.latency"  ? "noc.latency"
                                                : nullptr;
        if (!key)
            return;
        const double n = static_cast<double>(a.count());
        out[std::string(key) + ".sum"] += a.mean() * n;
        out[std::string(key) + ".n"] += n;
    }
};

/** runExperiment's extractResult: the paper's metrics read from the
 *  registry, plus the end-of-run replication/occupancy walks. */
RunResult
extractResult(System &sys, const std::vector<VirtualMachine *> &vms,
              Cycle measure)
{
    const stats::Group &root = sys.statsRoot();
    RunResult out;
    out.measuredCycles = measure;
    for (auto *vm : vms) {
        const stats::Group *g =
            root.findGroup(indexedName("vm", vm->id()));
        CONSIM_ASSERT(g, "registry: no group for vm ", vm->id());
        const auto counter = [g](const char *name) {
            const stats::Counter *c = g->findCounter(name);
            CONSIM_ASSERT(c, "registry: vm counter '", name, "' missing");
            return c->value();
        };
        VmResult r;
        r.kind = vm->profile().kind;
        r.transactions = counter("transactions");
        r.instructions = counter("instructions");
        r.l1Misses = counter("l1_misses");
        r.l2Accesses = counter("l2_accesses");
        r.l2Misses = counter("l2_misses");
        r.c2cClean = counter("c2c_clean");
        r.c2cDirty = counter("c2c_dirty");
        r.mcThrottleStalls = counter("mc_throttle_stalls");
        r.distinctBlocks = vm->distinctBlocks();
        const auto ratio = [](std::uint64_t a, std::uint64_t b) {
            return b ? static_cast<double>(a) / static_cast<double>(b)
                     : 0.0;
        };
        r.cyclesPerTransaction =
            r.transactions ? ratio(measure, r.transactions)
                           : static_cast<double>(measure);
        r.missRate = ratio(r.l2Misses, r.l2Accesses);
        const stats::Average *lat = g->findAverage("miss_latency");
        CONSIM_ASSERT(lat, "registry: vm miss_latency missing");
        r.avgMissLatency = lat->mean();
        const std::uint64_t c2c = r.c2cClean + r.c2cDirty;
        r.c2cFraction = ratio(c2c, r.l2Misses);
        r.c2cDirtyShare = ratio(r.c2cDirty, c2c);
        out.vms.push_back(r);
    }
    const stats::Average *net_lat = root.findAverage("net.latency");
    const stats::Counter *net_pkts = root.findCounter("net.packets_ejected");
    CONSIM_ASSERT(net_lat && net_pkts, "registry: net stats missing");
    out.netAvgLatency = net_lat->mean();
    out.netPackets = net_pkts->value();
    out.replication = sys.replicationSnapshot();
    out.occupancy = sys.occupancySnapshot();
    out.dynMigrations = sys.dynMigrations();
    return out;
}

void
drivePhases(const RunConfig &cfg, Tracer &tr, const PointOptions &opt,
            PointResult &out)
{
    PhaseTimes &t = out.t;
    Rig rig = buildRig(cfg, tr, t);
    std::unique_ptr<System> sys;
    {
        Tracer::Scope s(tr, "core.system_ctor", &t.ctor);
        sys = std::make_unique<System>(cfg.machine, rig.vms,
                                       rig.placements);
    }
    {
        Tracer::Scope s(tr, "core.arm", &t.arm);
        arm(*sys, cfg);
    }
    {
        Tracer::Scope s(tr, "core.warmup", &t.warmup);
        sys->run(cfg.warmupCycles);
    }
    {
        Tracer::Scope s(tr, "core.reset_stats", &t.warmup);
        sys->resetStats();
    }
    if (opt.fillWalk) {
        Tracer::Scope s(tr, "core.fill_walk");
        const OccupancySnapshot occ = sys->occupancySnapshot();
        for (std::size_t g = 0; g < occ.capacity.size(); ++g) {
            out.l2Capacity += static_cast<double>(occ.capacity[g]);
            for (const std::uint64_t n : occ.lines[g])
                out.l2Valid += static_cast<double>(n);
        }
    }
    {
        Tracer::Scope s(tr, "core.measure", &t.measure);
        if (opt.chunkCycles == 0) {
            sys->run(cfg.measureCycles);
        } else {
            for (Cycle done = 0; done < cfg.measureCycles;) {
                const Cycle n =
                    std::min(opt.chunkCycles, cfg.measureCycles - done);
                double sec = 0.0;
                {
                    Tracer::Scope c(tr, "core.measure_chunk", &sec);
                    sys->run(n);
                }
                out.chunkMs.push_back(sec * 1e3);
                done += n;
            }
        }
    }
    out.measureCycles = cfg.measureCycles;
    {
        Tracer::Scope s(tr, "core.extract", &t.extract);
        CountVisitor counts;
        sys->statsRoot().accept(counts);
        out.counts = std::move(counts.out);
        const RunResult r = extractResult(*sys, rig.vms, cfg.measureCycles);
        for (const VmResult &v : r.vms) {
            out.instructions += v.instructions;
            out.transactions += v.transactions;
        }
        out.digest = runDigest(cfg, r);
    }
    if (opt.saveCkpt) {
        Tracer::Scope s(tr, "checkpoint.save", &out.ckptSave);
        json::Value doc;
        {
            Tracer::Scope b(tr, "checkpoint.build");
            doc = sys->saveCheckpoint();
        }
        Tracer::Scope e(tr, "checkpoint.encode");
        // The periodic snapshot ring encodes with indent 1.
        out.ckpt = doc.dump(1);
    }
    Tracer::Scope s(tr, "core.teardown", &t.teardown);
    sys.reset();
    rig = Rig{};
}

} // namespace

PointResult
runPoint(const RunConfig &cfg, Tracer &tr, const PointOptions &opt)
{
    CONSIM_ASSERT(cfg.warmupCycles != 0 && cfg.measureCycles != 0,
                  "benchmark windows must be explicit: warmup ",
                  cfg.warmupCycles, ", measure ", cfg.measureCycles);
    PointResult out;
    {
        Tracer::Scope point(tr, "point", &out.t.wall);
        drivePhases(cfg, tr, opt, out);
    }
    return out;
}

double
timeRestore(const RunConfig &cfg, const json::Value &ckpt, Tracer &tr)
{
    PhaseTimes t;
    Rig rig = buildRig(cfg, tr, t);
    System sys(cfg.machine, rig.vms, rig.placements);
    if (cfg.qos.enabled())
        sys.setQosConfig(cfg.qos);
    if (cfg.dynSched.enabled())
        sys.setDynSched(cfg.dynSched);
    double sec = 0.0;
    {
        Tracer::Scope s(tr, "checkpoint.restore", &sec);
        sys.restoreCheckpoint(ckpt);
    }
    return sec;
}

} // namespace perfbench
