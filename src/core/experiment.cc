#include "core/experiment.hh"

#include <algorithm>
#include <memory>
#include <string>

#include "common/rng.hh"

#include "common/archive.hh"
#include "common/check.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "core/checkpoint.hh"
#include "core/scheduler.hh"
#include "exec/sweep.hh"

namespace consim
{

namespace
{

/**
 * Window lengths from the environment. Unset means the built-in
 * default; "0" (an empty window) and malformed values are fatal
 * rather than silently running the default.
 */
Cycle
envCycles(const char *name, Cycle fallback)
{
    const std::uint64_t v = envU64(name, fallback);
    if (v == 0) {
        CONSIM_FATAL(name, "=0 asks for an empty window; unset it for "
                     "the default or pass a positive cycle count");
    }
    return v;
}

} // namespace

Cycle
defaultWarmupCycles()
{
    return envCycles("CONSIM_WARMUP", 4'000'000);
}

Cycle
defaultMeasureCycles()
{
    return envCycles("CONSIM_MEASURE", 3'000'000);
}

Cycle
defaultWatchdogIntervalCycles()
{
    // Unlike the window defaults, an explicit "0" here is meaningful:
    // it disables the watchdog.
    return envU64("CONSIM_WATCHDOG", 1'000'000);
}

Cycle
defaultCheckpointIntervalCycles()
{
    // Periodic snapshotting is opt-in; "0" (or unset) keeps it off.
    return envU64("CONSIM_CKPT", 0);
}

int
defaultRunJobs()
{
    // Strict parse like CONSIM_JOBS: garbage is fatal. The value is
    // ignored (every run is serial); only the parse remains.
    const int jobs = envIntInRange("CONSIM_RUN_JOBS", 1, 4096, 0);
    return jobs > 0 ? jobs : 1;
}

double
RunResult::meanCyclesPerTxn(WorkloadKind kind) const
{
    double sum = 0.0;
    int n = 0;
    for (const auto &v : vms) {
        if (v.kind == kind) {
            sum += v.cyclesPerTransaction;
            ++n;
        }
    }
    return n ? sum / n : 0.0;
}

double
RunResult::meanMissRate(WorkloadKind kind) const
{
    double sum = 0.0;
    int n = 0;
    for (const auto &v : vms) {
        if (v.kind == kind) {
            sum += v.missRate;
            ++n;
        }
    }
    return n ? sum / n : 0.0;
}

double
RunResult::meanMissLatency(WorkloadKind kind) const
{
    double sum = 0.0;
    int n = 0;
    for (const auto &v : vms) {
        if (v.kind == kind) {
            sum += v.avgMissLatency;
            ++n;
        }
    }
    return n ? sum / n : 0.0;
}

namespace
{

// --- checkpoint context codec -------------------------------------
//
// The `consim.run.v1` config echo (core/report.cc) is a byte-stable
// PARTIAL view and must not grow fields; a resume instead needs every
// structural knob, so the checkpoint context carries its own complete
// description. Enums travel as their integer values (no inverse
// string parsers exist) and the fault, QoS and dyn-sched plans as
// their grammar strings, which round-trip through their parse().

template <class Ar, class M>
void
machineIo(Ar &ar, M &m)
{
    ar("mesh_x", m.meshX);
    ar("mesh_y", m.meshY);
    ar("l0_bytes", m.l0Bytes);
    ar("l0_assoc", m.l0Assoc);
    ar("l0_latency", m.l0Latency);
    ar("l1_bytes", m.l1Bytes);
    ar("l1_assoc", m.l1Assoc);
    ar("l1_latency", m.l1Latency);
    ar("l2_total_bytes", m.l2TotalBytes);
    ar("l2_assoc", m.l2Assoc);
    ar("l2_latency", m.l2Latency);
    int sharing = coresPerGroup(m.sharing);
    ar("sharing", sharing);
    CONSIM_ASSERT(sharing >= 1 && sharing <= m.meshX * m.meshY,
                  "checkpoint context: bad sharing degree ", sharing);
    if constexpr (Ar::loading)
        m.sharing = sharingDegree(sharing);
    ar("mem_latency", m.memLatency);
    ar("num_mem_ctrls", m.numMemCtrls);
    ar("mem_issue_interval", m.memIssueInterval);
    ar("mem_overlap_latency", m.memOverlapLatency);
    ar("dir_cache_enabled", m.dirCacheEnabled);
    ar("dir_cache_entries", m.dirCacheEntries);
    ar("dir_cache_assoc", m.dirCacheAssoc);
    ar("dir_latency", m.dirLatency);
    ar("clean_forwarding", m.cleanForwarding);
    ar("ideal_noc", m.idealNoc);
    ar("ideal_noc_latency", m.idealNocLatency);
    ar("flat_intra_group", m.flatIntraGroup);
    ar("intra_group_latency", m.intraGroupLatency);
    ar("flit_bytes", m.flitBytes);
    ar("vcs_per_vnet", m.vcsPerVnet);
    ar("vc_buffer_flits", m.vcBufferFlits);
    ar("num_vnets", m.numVnets);
}

/** A fault, QoS or dyn-sched plan as its grammar string. */
template <class Ar, class Plan>
void
planIo(Ar &ar, const char *key, Plan &plan)
{
    std::string spec = plan.spec();
    ar(key, spec);
    if constexpr (Ar::loading) {
        std::string err;
        CONSIM_ASSERT(spec.empty() || Plan::parse(spec, plan, &err),
                      "checkpoint context: bad ", key, " spec '", spec,
                      "': ", err);
    }
}

/**
 * The run config: @p res as resolved, plus the as-configured
 * (pre-env-resolution) values of the four resolvable knobs from
 * @p raw, so a resume can echo the original config verbatim in its
 * consim.run.v1 envelope while still running under the resolved
 * values. Loading sets @p raw to @p res with those four replaced.
 */
template <class Ar, class C>
void
configIo(Ar &ar, C &res, C &raw)
{
    ar("machine", [&] { machineIo(ar, res.machine); });
    ar("workloads", res.workloads);
    for (const WorkloadKind k : res.workloads)
        CONSIM_ASSERT(static_cast<int>(k) >= 0 && static_cast<int>(k) <= 5,
                      "checkpoint context: bad workload kind ",
                      static_cast<int>(k));
    ar("vm_threads", res.vmThreads);
    ar("policy", res.policy);
    CONSIM_ASSERT(static_cast<int>(res.policy) >= 0 &&
                      static_cast<int>(res.policy) <= 3,
                  "checkpoint context: bad scheduling policy ",
                  static_cast<int>(res.policy));
    ar("seed", res.seed);
    ar("warmup_cycles", res.warmupCycles);
    ar("measure_cycles", res.measureCycles);
    ar("migration_interval_cycles", res.migrationIntervalCycles);
    ar("timeslice_cycles", res.timesliceCycles);
    ar("watchdog_interval_cycles", res.watchdogIntervalCycles);
    ar("cycle_deadline", res.cycleDeadline);
    ar("ckpt_every_cycles", res.ckptEveryCycles);
    planIo(ar, "faults", res.faults);
    planIo(ar, "qos", res.qos);
    planIo(ar, "dyn_sched", res.dynSched);
    if constexpr (Ar::loading)
        raw = res;
    ar("raw_warmup_cycles", raw.warmupCycles);
    ar("raw_measure_cycles", raw.measureCycles);
    ar("raw_watchdog_interval_cycles", raw.watchdogIntervalCycles);
    ar("raw_ckpt_every_cycles", raw.ckptEveryCycles);
}

/** The experiment context a snapshot carries. */
struct CkptContext
{
    RunConfig res;
    RunConfig raw;
    std::string phase;
    std::vector<std::uint64_t> migRng; ///< empty when threads stay put
};

template <class Ar, class X>
void
contextIo(Ar &ar, X &ctx)
{
    ar("config", [&] { configIo(ar, ctx.res, ctx.raw); });
    ar("phase", ctx.phase);
    if (ar.opt("mig_rng", !ctx.migRng.empty()))
        ar("mig_rng", ctx.migRng);
}

/**
 * @return the experiment context of snapshot @p ckpt, refusing other
 * schemas and snapshots saved outside runExperiment.
 */
CkptContext
readContext(const json::Value &ckpt)
{
    checkCkptSchema(ckpt);
    const json::Value *ctx = ckpt.find("context");
    CONSIM_ASSERT(ctx && ctx->find("config"),
                  "checkpoint has no experiment context (saved outside "
                  "runExperiment?); cannot seed a resume");
    CkptContext out;
    json::Loader ar(*ctx, "checkpoint context");
    contextIo(ar, out);
    return out;
}

// --- experiment rig and phase driver ------------------------------

/**
 * Resolve every env-defaulted knob so the config is self-contained:
 * the checkpoint context embeds the resolved copy, making a resume
 * independent of the environment it runs in.
 */
RunConfig
resolveConfig(const RunConfig &cfg)
{
    RunConfig res = cfg;
    res.warmupCycles =
        cfg.warmupCycles ? cfg.warmupCycles : defaultWarmupCycles();
    // 0 stays 0 when the env is unset too: the run.v1 echo emits the
    // knob only when configured, and the Core falls back to its
    // built-in default quantum.
    res.timesliceCycles = cfg.timesliceCycles
                              ? cfg.timesliceCycles
                              : envU64("CONSIM_TIMESLICE", 0);
    res.measureCycles =
        cfg.measureCycles ? cfg.measureCycles : defaultMeasureCycles();
    res.watchdogIntervalCycles = cfg.watchdogIntervalCycles
                                     ? cfg.watchdogIntervalCycles
                                     : defaultWatchdogIntervalCycles();
    res.ckptEveryCycles = cfg.ckptEveryCycles
                              ? cfg.ckptEveryCycles
                              : defaultCheckpointIntervalCycles();
    return res;
}

/** Re-arm operational knobs (resolved config; fault plan excluded). */
void
armSystem(System &sys, const RunConfig &res)
{
    sys.setWatchdogInterval(res.watchdogIntervalCycles);
    if (res.timesliceCycles != 0)
        sys.setTimeslice(res.timesliceCycles);
    if (res.cycleDeadline != 0)
        sys.setCycleDeadline(res.cycleDeadline);
    if (res.ckptEveryCycles != 0)
        sys.setCheckpointInterval(res.ckptEveryCycles);
    // runJobs / CONSIM_RUN_JOBS sized the removed tile-parallel
    // engine: the env value is still parsed strictly (garbage stays
    // fatal) for one release, then ignored.
    if (res.runJobs == 0)
        (void)defaultRunJobs();
}

/** Experiment context embedded verbatim in periodic snapshots. */
json::Value
phaseContext(const RunConfig &res, const RunConfig &raw,
             const char *phase, const Rng *mig)
{
    CkptContext ctx{res, raw, phase, {}};
    if (mig) {
        const auto st = mig->state();
        ctx.migRng.assign(st.begin(), st.end());
    }
    json::Value v;
    json::Saver ar(v);
    contextIo(ar, ctx);
    return v;
}

/**
 * Drive one phase from @p done to @p total phase-relative cycles,
 * refreshing the checkpoint context before every run() chunk (the
 * migration RNG mutates only between chunks, so the context captured
 * at chunk start is exact for any snapshot inside it).
 *
 * Resume subtlety: a periodic snapshot landing exactly on an interior
 * migration boundary is taken before the swap (run() returns first,
 * then the driver swaps), so a resume starting on such a boundary
 * must redo the swap — with the pre-swap RNG state the context
 * carries.
 */
void
runOnePhase(System &sys, const RunConfig &res, const RunConfig &raw,
            const char *phase, Cycle total, Cycle done, Rng *mig)
{
    const Cycle interval = res.migrationIntervalCycles;
    if (mig && done > 0 && done < total && done % interval == 0)
        sys.swapRandomThreads(*mig);
    while (done < total) {
        sys.setCheckpointContext(phaseContext(res, raw, phase, mig));
        Cycle next = total;
        if (mig)
            next = std::min(total, (done / interval + 1) * interval);
        sys.run(next - done);
        done = next;
        if (mig && done < total)
            sys.swapRandomThreads(*mig);
    }
}

/**
 * Read the paper's metrics out of the hierarchical stats registry
 * ("sys.vmNN.*", "sys.net.*") rather than component structs, so
 * RunResult and every other registry consumer (dumpStats, JSON
 * export) see exactly the same numbers by construction.
 */
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
            CONSIM_ASSERT(c, "registry: vm counter '", name,
                          "' missing");
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
        r.cyclesPerTransaction =
            r.transactions
                ? static_cast<double>(measure) /
                      static_cast<double>(r.transactions)
                : static_cast<double>(measure);
        r.missRate = r.l2Accesses
                         ? static_cast<double>(r.l2Misses) /
                               static_cast<double>(r.l2Accesses)
                         : 0.0;
        const stats::Average *lat = g->findAverage("miss_latency");
        CONSIM_ASSERT(lat, "registry: vm miss_latency missing");
        r.avgMissLatency = lat->mean();
        const std::uint64_t c2c = r.c2cClean + r.c2cDirty;
        r.c2cFraction = r.l2Misses
                            ? static_cast<double>(c2c) /
                                  static_cast<double>(r.l2Misses)
                            : 0.0;
        r.c2cDirtyShare = c2c ? static_cast<double>(r.c2cDirty) /
                                    static_cast<double>(c2c)
                              : 0.0;
        out.vms.push_back(r);
    }
    const stats::Average *net_lat = root.findAverage("net.latency");
    const stats::Counter *net_pkts =
        root.findCounter("net.packets_ejected");
    CONSIM_ASSERT(net_lat && net_pkts, "registry: net stats missing");
    out.netAvgLatency = net_lat->mean();
    out.netPackets = net_pkts->value();
    out.replication = sys.replicationSnapshot();
    out.occupancy = sys.occupancySnapshot();
    out.dynMigrations = sys.dynMigrations();
    return out;
}

} // namespace

ExperimentRig
buildExperimentRig(const RunConfig &cfg)
{
    ExperimentRig rig;
    CONSIM_ASSERT(cfg.vmThreads.empty() ||
                      cfg.vmThreads.size() == cfg.workloads.size(),
                  "vmThreads must be empty or give one entry per VM (",
                  cfg.vmThreads.size(), " entries for ",
                  cfg.workloads.size(), " VMs)");
    // The run's VM-window width is the smallest that fits the
    // largest instance (requiredVmSpanBits): runs whose VMs all fit
    // the default keep byte-identical addresses to the fixed-width
    // implementation, and over-committed scale runs (say 96 threads
    // per VM at 256 cores) widen every window in lockstep.
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
    std::vector<int> threads_per_vm;
    for (std::size_t i = 0; i < cfg.workloads.size(); ++i) {
        const auto &prof = WorkloadProfile::get(cfg.workloads[i]);
        const int nthreads =
            i < cfg.vmThreads.size() ? cfg.vmThreads[i] : 0;
        rig.storage.push_back(std::make_unique<VirtualMachine>(
            prof, static_cast<VmId>(i),
            cfg.seed * 1000003ull + i * 7919ull, nthreads,
            span_bits));
        rig.vms.push_back(rig.storage.back().get());
        threads_per_vm.push_back(rig.storage.back()->numThreads());
    }
    rig.placements = scheduleThreads(cfg.machine, threads_per_vm,
                                     cfg.policy, cfg.seed);
    return rig;
}

RunResult
runExperiment(const RunConfig &cfg)
{
    const RunConfig res = resolveConfig(cfg);
    ExperimentRig rig = buildExperimentRig(res);
    System sys(res.machine, rig.vms, rig.placements);
    armSystem(sys, res);
    if (res.qos.enabled())
        sys.setQosConfig(res.qos);
    if (res.dynSched.enabled())
        sys.setDynSched(res.dynSched);
    if (!res.faults.empty())
        sys.setFaultPlan(res.faults);
    Rng mig_rng(res.seed ^ 0xd15ea5e);
    Rng *mig = res.migrationIntervalCycles ? &mig_rng : nullptr;
    // Cross-component audits fire at measurement-window boundaries
    // when CONSIM_CHECK=full; they are free otherwise.
    const auto audit = [&] {
        if (CONSIM_CHECK_ACTIVE(Full))
            sys.auditWindow();
    };
    runOnePhase(sys, res, cfg, "warmup", res.warmupCycles, 0, mig);
    audit();
    sys.resetStats();
    runOnePhase(sys, res, cfg, "measure", res.measureCycles, 0, mig);
    audit();
    return extractResult(sys, rig.vms, res.measureCycles);
}

RunConfig
configFromCheckpoint(const json::Value &ckpt)
{
    return readContext(ckpt).raw;
}

RunResult
resumeExperiment(const json::Value &ckpt)
{
    // The embedded config is already env-resolved (resolveConfig ran
    // before the snapshot), so no environment lookups happen here.
    const CkptContext ctx = readContext(ckpt);
    const RunConfig &res = ctx.res;
    const RunConfig &raw = ctx.raw;

    ExperimentRig rig = buildExperimentRig(res);
    System sys(res.machine, rig.vms, rig.placements);
    // The QoS config must be reinstalled before restore: the loaders
    // check the MC token-bucket layout and the dynamic repartitioner
    // state against an already-configured machine, then overwrite the
    // mutable parts (dyn_ways, miss-curve samples, buckets). Same for
    // the dyn-sched config and its epoch baselines.
    if (res.qos.enabled())
        sys.setQosConfig(res.qos);
    if (res.dynSched.enabled())
        sys.setDynSched(res.dynSched);
    sys.restoreCheckpoint(ckpt);
    // Re-arm operational knobs against the restored clock. The fault
    // plan is deliberately NOT re-armed: one-shot faults that already
    // fired are baked into the restored state, runtime flags (drop
    // countdowns, memburst windows) were restored directly, and
    // pending wedge events ride in the serialized event queue. The
    // cycle deadline is not re-armed either — the restored clock
    // typically sits at or past it, and a resume exists precisely to
    // finish the work beyond the original attempt's budget (re-arming
    // would deterministically re-trip). The watchdog stays armed, so
    // a genuinely wedged resume still fails.
    RunConfig arm = res;
    arm.cycleDeadline = 0;
    armSystem(sys, arm);

    Rng mig_rng(res.seed ^ 0xd15ea5e);
    Rng *mig = nullptr;
    if (res.migrationIntervalCycles != 0) {
        const std::vector<std::uint64_t> &st = ctx.migRng;
        CONSIM_ASSERT(st.size() == 4, "resume: bad mig_rng state");
        mig_rng.setState({st[0], st[1], st[2], st[3]});
        mig = &mig_rng;
    }

    const std::string &phase = ctx.phase;
    const Cycle now = sys.now();
    const auto audit = [&] {
        if (CONSIM_CHECK_ACTIVE(Full))
            sys.auditWindow();
    };
    if (phase == "warmup") {
        CONSIM_ASSERT(now <= res.warmupCycles,
                      "resume: clock ", now, " past warmup window");
        runOnePhase(sys, res, raw, "warmup", res.warmupCycles, now,
                    mig);
        audit();
        sys.resetStats();
        runOnePhase(sys, res, raw, "measure", res.measureCycles, 0,
                    mig);
    } else {
        CONSIM_ASSERT(phase == "measure", "resume: unknown phase '",
                      phase, "'");
        CONSIM_ASSERT(now >= res.warmupCycles &&
                          now - res.warmupCycles <= res.measureCycles,
                      "resume: clock ", now,
                      " outside the measurement window");
        runOnePhase(sys, res, raw, "measure", res.measureCycles,
                    now - res.warmupCycles, mig);
    }
    audit();
    return extractResult(sys, rig.vms, res.measureCycles);
}

RunResult
averageRunResults(std::vector<RunResult> runs)
{
    CONSIM_ASSERT(!runs.empty(), "need at least one run");
    RunResult acc = std::move(runs.front());
    double packets = static_cast<double>(acc.netPackets);
    for (std::size_t r = 1; r < runs.size(); ++r) {
        const RunResult &b = runs[r];
        CONSIM_ASSERT(b.vms.size() == acc.vms.size(),
                      "seed runs disagree on VM count");
        for (std::size_t i = 0; i < b.vms.size(); ++i) {
            auto &a = acc.vms[i];
            const auto &v = b.vms[i];
            a.transactions += v.transactions;
            a.instructions += v.instructions;
            a.l1Misses += v.l1Misses;
            a.l2Accesses += v.l2Accesses;
            a.l2Misses += v.l2Misses;
            a.c2cClean += v.c2cClean;
            a.c2cDirty += v.c2cDirty;
            a.mcThrottleStalls += v.mcThrottleStalls;
            a.cyclesPerTransaction += v.cyclesPerTransaction;
            a.missRate += v.missRate;
            a.avgMissLatency += v.avgMissLatency;
            a.c2cFraction += v.c2cFraction;
            a.c2cDirtyShare += v.c2cDirtyShare;
            a.slowdownVsIsolated += v.slowdownVsIsolated;
        }
        acc.netAvgLatency += b.netAvgLatency;
        packets += static_cast<double>(b.netPackets);
        acc.dynMigrations += b.dynMigrations;
    }
    const double n = static_cast<double>(runs.size());
    for (auto &v : acc.vms) {
        v.cyclesPerTransaction /= n;
        v.missRate /= n;
        v.avgMissLatency /= n;
        v.c2cFraction /= n;
        v.c2cDirtyShare /= n;
        v.slowdownVsIsolated /= n;
    }
    acc.netAvgLatency /= n;
    acc.netPackets = static_cast<std::uint64_t>(packets / n + 0.5);
    acc.seedsUsed = static_cast<int>(runs.size());
    // acc.replication / acc.occupancy keep the first run's snapshot
    // (see RunResult docs).
    return acc;
}

RunResult
runAveraged(RunConfig cfg, const std::vector<std::uint64_t> &seeds)
{
    return runSweepAveraged({cfg}, seeds).front();
}

RunConfig
isolationConfig(WorkloadKind kind, SchedPolicy policy,
                SharingDegree sharing)
{
    RunConfig cfg;
    cfg.machine.sharing = sharing;
    cfg.workloads = {kind};
    cfg.policy = policy;
    return cfg;
}

RunConfig
mixConfig(const Mix &mix, SchedPolicy policy, SharingDegree sharing)
{
    RunConfig cfg;
    cfg.machine.sharing = sharing;
    cfg.workloads = mix.vms;
    cfg.vmThreads = mix.threads;
    cfg.policy = policy;
    return cfg;
}

} // namespace consim
