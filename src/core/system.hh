/**
 * @file
 * System: the whole tiled CMP. Owns the cores, private caches, L2
 * banks, directory slices, memory controllers, and the interconnect;
 * implements the Fabric interface the components talk through; binds
 * VM threads to cores per a schedule; and drives the global clock.
 */

#ifndef CONSIM_CORE_SYSTEM_HH
#define CONSIM_CORE_SYSTEM_HH

#include <array>
#include <memory>
#include <ostream>
#include <vector>

#include "common/check.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "common/stats.hh"

#include "core/event_queue.hh"
#include "core/fault.hh"
#include "core/qos.hh"

#include "coherence/directory.hh"
#include "coherence/fabric.hh"
#include "coherence/l1_controller.hh"
#include "coherence/l2_bank.hh"
#include "coherence/memory_controller.hh"
#include "core/scheduler.hh"
#include "core/vm.hh"
#include "cpu/core.hh"
#include "noc/network.hh"

namespace consim
{

class LockstepTeam;

/** Chip-wide replication snapshot (paper Fig. 12). */
struct ReplicationSnapshot
{
    std::uint64_t validLines = 0;      ///< valid L2 lines chip-wide
    std::uint64_t replicatedLines = 0; ///< lines whose block has >1 copy
    std::uint64_t distinctBlocks = 0;
    /** per-VM valid/replicated line counts. */
    std::vector<std::uint64_t> validPerVm;
    std::vector<std::uint64_t> replicatedPerVm;

    double
    replicatedFraction() const
    {
        return validLines ? static_cast<double>(replicatedLines) /
                                static_cast<double>(validLines)
                          : 0.0;
    }

    double
    replicatedFractionVm(VmId vm) const
    {
        const auto v = validPerVm.at(vm);
        return v ? static_cast<double>(replicatedPerVm.at(vm)) /
                       static_cast<double>(v)
                 : 0.0;
    }
};

/** Per-partition occupancy snapshot (paper Fig. 13). */
struct OccupancySnapshot
{
    /** lines[group][vm] = valid lines of that VM in that partition. */
    std::vector<std::vector<std::uint64_t>> lines;
    std::vector<std::uint64_t> capacity; ///< total lines per partition

    /** Fraction of partition @p g's valid+free capacity held by vm. */
    double share(GroupId g, VmId vm) const
    {
        return capacity.at(g)
                   ? static_cast<double>(lines.at(g).at(vm)) /
                         static_cast<double>(capacity.at(g))
                   : 0.0;
    }
};

/** The simulated chip. */
class System : public Fabric
{
  public:
    /**
     * @param cfg        machine configuration (validated here)
     * @param vms        consolidated workload instances (not owned);
     *                   vms[i]->id() must equal i
     * @param placements static thread-to-core bindings
     */
    System(const MachineConfig &cfg,
           std::vector<VirtualMachine *> vms,
           const std::vector<ThreadPlacement> &placements);
    ~System() override;

    // --- Fabric interface ---
    /** Current cycle: the running tile lane's clock inside a
     *  parallel window, the global clock otherwise. */
    Cycle now() const override;
    void send(Msg m) override;
    void schedule(Cycle delay, EventFn fn) override;
    /** Typed events go straight into the calendar queue (the
     *  fallback closure is dropped), keeping the queue serializable.
     *  The event is keyed (src, seq) from its owning tile's
     *  sequence counter. */
    void scheduleEvent(SimEvent ev, Cycle delay,
                       EventFn fallback) override;
    const MachineConfig &config() const override { return cfg_; }
    GroupId groupOfTile(CoreId tile) const override
    {
        return groupOf_[tile];
    }
    CoreId bankTileFor(GroupId g, BlockAddr block) const override;
    CoreId homeTileFor(BlockAddr block) const override;
    CoreId memTileFor(BlockAddr block) const override;
    VmId vmOfBlock(BlockAddr block) const override
    {
        return static_cast<VmId>(block >> windows_.spanBits());
    }
    Cycle memFaultExtraLatency() const override;
    std::uint64_t qosWayMask(VmId vm) const override;
    void qosRecordThrottleStall(VmId vm) override;
    void recordL2Access(VmId vm) override;
    void recordL2Miss(VmId vm, bool c2c, bool c2c_dirty) override;
    void recordL1Miss(VmId vm, Cycle latency) override;
    void recordTransaction(VmId vm) override;
    void recordInstructions(VmId vm, std::uint64_t n) override;

    // --- simulation control ---

    /** Advance one cycle. */
    void tick();

    /** Run for @p cycles cycles. */
    void run(Cycle cycles);

    /**
     * Worker threads for run(): 1 (the default) keeps the serial
     * per-cycle loop; >1 enables the conservative-lookahead parallel
     * engine, which partitions the chip into per-tile lanes, advances
     * them in lock-step windows of windowCycles(), and exchanges
     * cross-tile events only at window boundaries. Event keys
     * (src, seq) make the merged order a pure function of machine
     * state, so results are byte-identical to the serial engine.
     * Clamped to [1, numCores]. Runs with a live drop-response fault
     * or pending Opaque (closure) events fall back to serial.
     */
    void setRunJobs(int jobs);
    int runJobs() const { return runJobs_; }

    /** Lookahead window: the minimum cross-tile event latency. */
    Cycle windowCycles() const { return window_; }

    /**
     * Tests: run until every queue drains or @p max_cycles elapse.
     * @return true when the machine quiesced.
     */
    bool runUntilQuiescent(Cycle max_cycles);

    /** Reset all measurement state (end of warmup). */
    void resetStats();

    /**
     * Root of the hierarchical statistics registry: the whole
     * machine as one tree ("sys.tileNN.{core,l1,l2bank,dir,mc}",
     * "sys.net", "sys.vmNN"). RunResult extraction, dumpStats, and
     * JSON export all read this tree.
     */
    stats::Group &statsRoot() { return statsRoot_; }
    const stats::Group &statsRoot() const { return statsRoot_; }

    /**
     * Dynamic-scheduling extension (paper SSVII): migrate by swapping
     * the threads of two random cores (one may be idle). Mimics a
     * hypervisor reassigning virtual CPUs over time; the migrated
     * threads restart cold in their new L1s and pull their working
     * sets across partitions. Cores blocked on a miss are skipped.
     * @return true when a swap happened.
     */
    bool swapRandomThreads(Rng &rng);

    /** Dump the whole stats tree as "sys.path.stat value" lines. */
    void dumpStats(std::ostream &os) const;

    // --- component access (tests, benches, snapshots) ---
    Core &core(CoreId t) { return *cores_.at(t); }
    L1Controller &l1(CoreId t) { return *l1s_.at(t); }
    L2Bank &bank(CoreId t) { return *banks_.at(t); }
    DirectorySlice &dir(CoreId t) { return *dirs_.at(t); }
    Network &network() { return *net_; }
    int numVms() const { return static_cast<int>(vms_.size()); }
    VirtualMachine &vm(VmId v) { return *vms_.at(v); }

    /**
     * Core @p t's wake cycle: tick() skips the core before it (see
     * Core). Tests write it to prove checkInvariants() catches a
     * late one.
     */
    Cycle &coreWake(CoreId t) { return coreWake_.at(t); }

    /** Walk every L2 line on chip (snapshot building). */
    ReplicationSnapshot replicationSnapshot() const;
    OccupancySnapshot occupancySnapshot() const;

    /** Run protocol invariant checks over all components, and check
     *  that no core's wake cycle is later than its next work. */
    void checkInvariants() const;

    /**
     * Strong cross-check, valid only when quiesced: the full-map
     * directory must agree exactly with the partition caches (every
     * recorded sharer/owner holds the line, no cache holds a line
     * the directory does not know about), and every valid L1 line
     * must be covered by its partition's presence tracking
     * (inclusion). Panics on violation.
     */
    void checkGlobalCoherence() const;

    /** @return true when nothing is in flight anywhere. */
    bool quiesced() const;

    // --- hardening layer ---

    /**
     * Install a deterministic fault plan (call before running).
     * Wedge events whose cycle already passed fire immediately;
     * drop/memburst events arm their respective hooks.
     */
    void setFaultPlan(const FaultPlan &plan);

    /**
     * Enable the forward-progress watchdog: every @p interval cycles
     * of run(), verify that (a) the machine as a whole made progress
     * (events executed, packets delivered, or instructions retired)
     * unless it is quiesced, and (b) no core with a bound thread sat
     * blocked across the whole interval without retiring anything.
     * Throws SimError(Watchdog) with a `consim.diag.v1` dump on
     * violation. 0 disables (the default; runExperiment turns it on).
     */
    void setWatchdogInterval(Cycle interval);

    /**
     * Preemption quantum for over-committed cores (those holding
     * more than one software context). 0 restores the built-in
     * default (Core::kDefaultTimesliceCycles). No effect on cores
     * with a single context.
     */
    void
    setTimeslice(Cycle interval)
    {
        for (auto &c : cores_)
            c->setTimeslice(interval);
    }

    /**
     * Abort run() with SimError(Deadline) when the simulated clock
     * reaches @p deadline (absolute cycle) with work still to do.
     * 0 disables. Sweep workers use this as a per-point budget.
     */
    void setCycleDeadline(Cycle deadline) { deadline_ = deadline; }

    /** Age limit for the stuck-transaction audit (default 20000). */
    void setStuckTxnLimit(Cycle limit) { stuckLimit_ = limit; }

    // --- per-VM QoS (isolation) ---

    /**
     * Install the per-VM QoS configuration (call before running).
     * Static mode partitions the shared resources once: the protected
     * VM gets `protectedWays` exclusive L2 ways per set, `reservedVcs`
     * reserved VCs per vnet with priority switch allocation, and
     * every other VM's memory reads are token-bucket throttled at the
     * controllers. Dynamic mode starts from the same partition and
     * re-sizes the protected way allocation at every `epochCycles`
     * boundary from the observed miss/occupancy curves. Validated
     * against the machine config (ways vs associativity, VCs vs
     * vcsPerVnet, VM id range); throws SimError on mismatch.
     */
    void setQosConfig(const QosConfig &qos);
    const QosConfig &qosConfig() const { return qos_; }

    /** Current protected-VM way allocation (== protectedWays in
     *  static mode; moves at epoch boundaries in dynamic mode). */
    int qosDynWays() const { return qosDynWays_; }

    // --- dynamic scheduling (online thread migration) ---

    /**
     * Install the dynamic-scheduling policy (call before running).
     * At every `epochCycles` boundary — a service point both engines
     * land on the same absolute cycles — the policy reads the epoch's
     * per-core / per-VM / per-group counter deltas from the stats
     * registry and proposes at most one thread swap, which is applied
     * through the same rebinding the random-migration hook uses.
     * Policies are deterministic (no RNG), so serial and `--run-jobs`
     * runs migrate identically and checkpoints only carry the epoch
     * baselines.
     */
    void setDynSched(const DynSchedConfig &dyn);
    const DynSchedConfig &dynSchedConfig() const { return dynSched_; }

    /** Thread migrations performed by the dynamic scheduler. */
    std::uint64_t dynMigrations() const { return dynMigrations_; }

    /**
     * Window-boundary audit (run under CONSIM_CHECK=full): NoC
     * credit/flit conservation, stuck-transaction (leaked MSHR
     * equivalent) detection in every L1/bank/directory, per-component
     * protocol invariants, and a directory-vs-cache sharer-state
     * consistency audit that skips blocks with in-flight activity
     * (safe on a non-quiesced machine, unlike
     * checkGlobalCoherence()). Throws SimError on violation.
     */
    void auditWindow() const;

    /**
     * Full machine snapshot as a `consim.diag.v1` JSON document:
     * per-core blocked state, outstanding L1 misses, active bank and
     * directory transactions, event-queue depth, and the router
     * credit map.
     */
    json::Value diagJson(const std::string &reason) const;

    // --- checkpoint / resume (`consim.ckpt.v5`) ---

    /**
     * Serialize the complete deterministic machine state (cycle,
     * event queue with per-source ordering keys, caches, transaction
     * tables, NoC, RNG streams, stats registry) as a
     * `consim.ckpt.v5` document. The embedded
     * experiment context (setCheckpointContext) rides along so the
     * experiment layer can resume its warmup/measure loop. Throws
     * SimError(Invariant) if an Opaque event is pending.
     */
    json::Value saveCheckpoint() const;

    /**
     * Restore state saved by saveCheckpoint() into this freshly
     * constructed System. The System must have been built from the
     * same MachineConfig, VM set, and placements as the saved one;
     * resuming then reproduces the uninterrupted run byte for byte.
     */
    void restoreCheckpoint(const json::Value &doc);

    /**
     * Periodic snapshotting: every @p interval cycles of run(), save
     * a checkpoint into a two-deep ring; the most recent one is
     * attached to every watchdog/deadline SimError. 0 disables (the
     * default; `CONSIM_CKPT` / --ckpt-every turn it on).
     */
    void setCheckpointInterval(Cycle interval);

    /**
     * Experiment-layer context (run config echo, phase, migration
     * RNG state) embedded verbatim in every snapshot.
     */
    void setCheckpointContext(json::Value ctx)
    {
        ckptCtx_ = std::move(ctx);
    }

    /** Most recent periodic snapshot text ("" when none taken). */
    const std::string &latestCheckpoint() const
    {
        return ckptRing_[ckptLatest_];
    }

  private:
    friend struct CkptAccess;

    /** Dispatch a due typed event into its owning component. */
    void execEvent(SimEvent &ev);

    /** Take a periodic snapshot into the ring. */
    void takeSnapshot();

    // --- parallel engine (tile lanes) ---

    /**
     * Mesh ejection -> destination-unit handoff latency, applied in
     * both engines: a packet ejected at cycle e is handled at
     * e + netHandoff_. Modelling the NI->protocol handoff as a
     * scheduled (NET-keyed) event is what lets the parallel engine
     * replay the mesh lazily — the handoff bounds how far ahead of
     * the mesh clock the tiles may run, so it must be >= the
     * lookahead window.
     *
     * The handoff scales with mesh diameter (max(3, (X+Y)/4), set in
     * the constructor): any cross-tile message already pays at least
     * a diameter's worth of hop latency on a large mesh, so a deeper
     * NI handoff is invisible in relative timing there while it lets
     * the tile-parallel engine run proportionally wider windows
     * instead of pinning at 3 cycles. 4x4 and 8x4 meshes keep the
     * historical value of 3 (golden run hashes are unchanged).
     */
    Cycle netHandoff_ = 3;

    /**
     * One tile's private execution lane: its own clock, calendar
     * queue, sequence counter for events sourced by this tile, and
     * deferred side effects (cross-tile sends, mesh injections,
     * shared-statistics deltas) the coordinator applies at window
     * boundaries. Everything here is touched only by the lane's
     * worker inside a window, only by the coordinator outside one.
     */
    struct TileLane
    {
        CoreId tile = 0;
        Cycle now = 0;          ///< lane-local clock
        std::uint64_t seq = 0;  ///< per-source counter for src==tile
        CalendarQueue q;

        /** Cross-tile event discovered mid-window; merged into the
         *  destination lane at the next window boundary. */
        struct Out
        {
            Cycle when;
            SimEvent ev;
        };
        std::vector<Out> outbox;

        /** Mesh injections logged for the coordinator's replay. */
        std::vector<Msg> meshOut;
        std::size_t meshOutHead = 0;

        /** Deferred per-VM statistics (shared VmStats objects). */
        struct VmDelta
        {
            std::uint64_t l2Accesses = 0;
            std::uint64_t l2Misses = 0;
            std::uint64_t c2cClean = 0;
            std::uint64_t c2cDirty = 0;
            std::uint64_t l1Misses = 0;
            std::uint64_t transactions = 0;
            std::uint64_t instructions = 0;
            std::uint64_t mcThrottleStalls = 0;
            double missLatSum = 0.0;
            std::uint64_t missLatCount = 0;
        };
        std::vector<VmDelta> vmDelta;

        /** Deferred ideal-network (transport bypass) statistics. */
        std::uint64_t netInjects = 0;
        std::uint64_t netEjects = 0;
        std::uint64_t netDataN = 0;
        std::uint64_t netCtrlN = 0;
        double netLatSum = 0.0;
        double netDataSum = 0.0;
        double netCtrlSum = 0.0;
    };

    /**
     * The lane a worker thread is currently executing, or null on
     * the coordinator / serial path. Fabric calls consult it so
     * components need no notion of which engine is driving them:
     * inside a parallel window, now() is the lane clock and every
     * side effect lands in lane-local state; otherwise everything
     * goes through the global structures exactly as before.
     */
    static thread_local TileLane *tlsLane_;

    /** Derive the lookahead window from the machine config. */
    Cycle computeWindow() const;
    /** @return true when this run() may use the parallel engine. */
    bool canRunParallel() const;
    /** Build lanes_ / team_ on first parallel run(). */
    void ensureLanes();
    /** Tile whose lane executes @p ev. */
    CoreId execTileOf(const SimEvent &ev) const;
    /** Move pending global events into their lanes. */
    void scatter();
    /** Merge lanes back into global state (queue, seq, stats). */
    void gather();
    /** Replay the mesh serially up to (not including) @p target. */
    void replayMeshTo(Cycle target);
    /** Move window-boundary cross-tile events into their lanes. */
    void mergeOutboxes();
    /** Run one lane across the current window (worker threads). */
    void laneRunWindow(TileLane &lane);
    /** The parallel counterpart of run()'s chunked loop. */
    void runParallel(Cycle cycles);

    /** Per-group bank lookup table with the modulo strength-reduced
     *  for power-of-two member counts (all standard sharing degrees). */
    struct GroupLut
    {
        std::vector<CoreId> tiles;
        std::uint64_t size = 0;
        std::uint64_t mask = 0; ///< size - 1 when pow2, else 0
        bool pow2 = false;
    };

    void deliver(const Msg &m);
    void watchdogCheck();
    void auditSharerState() const;

    /** Dynamic-QoS epoch length (0 when no epochs are needed). */
    Cycle qosEpochInterval() const
    {
        return qos_.mode == QosMode::Dynamic ? qos_.epochCycles : 0;
    }
    /** Re-size the protected way allocation at an epoch boundary. */
    void qosRepartition();

    /** Dynamic-scheduling epoch length (0 when disabled). */
    Cycle dynEpochInterval() const
    {
        return dynSched_.enabled() ? dynSched_.epochCycles : 0;
    }
    /** Read the epoch-delta sample and advance the baselines. */
    DynSample dynTakeSample();
    /** Sample, decide, and apply at most one swap (epoch boundary). */
    void dynSchedEpoch();
    /** Exchange two cores' bindings via deferred rebinds. */
    void applySwap(const ThreadSwap &swap);

    MachineConfig cfg_;
    std::vector<VirtualMachine *> vms_;

    std::vector<GroupId> groupOf_;                 ///< per tile
    std::vector<GroupLut> membersOf_;              ///< per group
    std::vector<CoreId> mcTiles_;

    VmWindows windows_; ///< run's VM windows (decode, stray checks)
    std::unique_ptr<Network> net_;
    std::vector<std::unique_ptr<L1Controller>> l1s_;
    std::vector<std::unique_ptr<Core>> cores_;
    /** Per core: the first cycle tick() runs it (Core::nextWork or
     *  earlier; derived, never serialized). Each core writes only
     *  its own slot, so tile lanes never share one. */
    std::vector<Cycle> coreWake_;
    std::vector<std::unique_ptr<L2Bank>> banks_;
    std::vector<std::unique_ptr<DirectorySlice>> dirs_;
    std::vector<std::unique_ptr<MemoryController>> mcs_; ///< by index
    std::vector<int> mcIndexOfTile_; ///< tile -> mc index or -1

    Cycle now_ = 0;
    CalendarQueue events_;

    /**
     * Per-source sequence counters backing the (src, seq) event
     * ordering keys: one per tile, then the network (netSrc_) and
     * the system itself (sysSrc_). Both engines draw from the same
     * counters in the same per-source order, which is what makes
     * their event orders — and therefore their results — identical.
     */
    std::vector<std::uint64_t> seqBySrc_;
    std::int32_t netSrc_ = 0;
    std::int32_t sysSrc_ = 0;

    // --- parallel-engine state ---
    int runJobs_ = 1;
    bool parallelActive_ = false; ///< lanes own the pending events
    bool netBypass_ = false;      ///< ideal NoC modelled as events
    Cycle window_ = 1;            ///< lookahead window width
    Cycle netNow_ = 0;            ///< mesh replay position
    Cycle netTickCycle_ = 0;      ///< cycle net_->tick() is running
    Cycle windowStart_ = 0;       ///< current window [start, start+len)
    Cycle windowLen_ = 0;
    std::vector<std::unique_ptr<TileLane>> lanes_;
    std::unique_ptr<LockstepTeam> team_;

    // --- hardening state ---
    FaultPlan faultPlan_;
    Cycle watchdogInterval_ = 0;   ///< 0 = watchdog off
    Cycle nextWatchdogCheck_ = 0;  ///< absolute cycle of next check
    Cycle deadline_ = 0;           ///< 0 = no deadline
    Cycle stuckLimit_ = 20000;     ///< stuck-transaction age limit
    /** Watchdog snapshot at the previous interval boundary. */
    struct WatchdogSnap
    {
        std::uint64_t executed = 0;
        std::uint64_t ejected = 0;
        std::uint64_t retiredSum = 0;
        std::vector<std::uint64_t> retired; ///< per core
        std::vector<char> blocked;          ///< per core
    };
    WatchdogSnap wdSnap_;
    bool dropArmed_ = false;         ///< drop-nth-response fault live
    std::uint64_t dropCountdown_ = 0; ///< responses until the drop
    bool memBurstArmed_ = false;
    Cycle memBurstStart_ = 0;
    Cycle memBurstEnd_ = 0;
    Cycle memBurstExtra_ = 0;

    // --- QoS state ---
    QosConfig qos_;
    int qosDynWays_ = 0;       ///< current protected way count
    /** Epoch-boundary miss-curve samples (dynamic repartitioner). */
    std::uint64_t qosLastMissTotal_ = 0; ///< protected-VM L2 misses
    std::uint64_t qosPrevDelta_ = 0;     ///< last epoch's miss delta

    // --- dynamic-scheduling state ---
    DynSchedConfig dynSched_;
    std::unique_ptr<MigrationPolicy> dynPolicy_;
    std::uint64_t dynMigrations_ = 0;
    /** Previous-epoch counter baselines (delta = now - baseline). */
    std::vector<std::uint64_t> dynLastRetired_;     ///< per core
    /** Per VM: {l2Accesses, l2Misses, c2cClean + c2cDirty}. */
    std::vector<std::array<std::uint64_t, 3>> dynLastVm_;
    /** Per group: {l2Hits, l2Misses} summed over member banks. */
    std::vector<std::array<std::uint64_t, 2>> dynLastGroup_;
    /**
     * Migration feedback loop: every applied swap is evaluated two
     * epochs later against the chip miss rate it was supposed to
     * improve; a swap that did not help is reverted and the policy
     * backs off exponentially (steady workloads converge to almost
     * no churn, phase changes re-engage quickly).
     */
    std::uint32_t dynHold_ = 0;    ///< epochs left to sit out
    std::uint32_t dynBackoff_ = 1; ///< next hold after a failed swap
    ThreadSwap dynEval_;           ///< applied swap awaiting verdict
    std::uint64_t dynPreMiss_ = 0; ///< pre-swap epoch chip L2 misses
    std::uint64_t dynPreAcc_ = 0;  ///< pre-swap epoch chip accesses

    // --- checkpoint state ---
    Cycle ckptInterval_ = 0;      ///< 0 = periodic snapshots off
    Cycle nextCkpt_ = 0;          ///< absolute cycle of next snapshot
    json::Value ckptCtx_;         ///< experiment context for snapshots
    std::string ckptRing_[2];     ///< latest two snapshot texts
    int ckptLatest_ = 0;

    stats::Group statsRoot_{"sys"};
    /** Per-tile registry nodes ("tileNN") under statsRoot_. */
    std::vector<std::unique_ptr<stats::Group>> tileGroups_;
};

} // namespace consim

#endif // CONSIM_CORE_SYSTEM_HH
