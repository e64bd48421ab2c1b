/**
 * @file
 * In-order, blocking, single-issue core model (paper Table III: 16
 * in-order cores mimicking Niagara). Non-memory instructions retire
 * at 1 IPC; memory references access the private hierarchy through
 * the L1 controller and stall the core until the fill returns.
 *
 * Wake-indexed ticking: the System keeps one wake cycle per core in
 * a dense array and calls tick() only from that cycle on. A core
 * writes its wake cycle at the end of every tick: cycleNever while
 * it is unbound (with no rebind pending), blocked on a miss or
 * wedged, otherwise busyUntil_, the first cycle its tick can do
 * anything (a compute burst ends, a hit's latency elapses, a
 * deferred rebind or timeslice rotation may land). Every path that
 * changes those inputs from outside a tick (missComplete,
 * bindThread/enqueueContext, scheduleRebind, wedge) rewrites it,
 * and checkpoint restore resets it to "poll now" (0). Between wake
 * cycles tick() would return without touching any state, so
 * skipping those calls changes nothing the core simulates.
 */

#ifndef CONSIM_CPU_CORE_HH
#define CONSIM_CPU_CORE_HH

#include <vector>

#include "coherence/fabric.hh"
#include "coherence/l1_controller.hh"
#include "common/stats.hh"
#include "cpu/instr_stream.hh"

namespace consim
{

/** Per-core statistic counters. */
struct CoreStats
{
    stats::Counter instructions;
    stats::Counter memRefs;
    stats::Counter transactions;
    stats::Counter stallCycles; ///< cycles blocked on a miss

    /** Register every member into @p g (hierarchical registry). */
    void
    registerIn(stats::Group &g)
    {
        g.add("instructions", &instructions);
        g.add("mem_refs", &memRefs);
        g.add("transactions", &transactions);
        g.add("stall_cycles", &stallCycles);
    }
};

/**
 * One hardware context. Idle when no stream is bound.
 *
 * Over-commit: a core may hold several software contexts (more VM
 * threads than cores, as a consolidation hypervisor would schedule).
 * enqueueContext() appends to a run queue; the core round-robins
 * through it on fixed timeslice epochs, switching only at clean
 * instruction boundaries (never mid-miss, never mid-burst), so the
 * rotation is deterministic and checkpoint-exact.
 */
class Core
{
  public:
    /** Default preemption quantum for over-committed cores. */
    static constexpr Cycle kDefaultTimesliceCycles = 10'000;

    /** @param wake this core's slot in the System's wake array. */
    Core(Fabric &fabric, CoreId tile, L1Controller &l1, Cycle &wake);

    /**
     * Bind a thread to this core (static binding, as in the paper).
     * @param stream endless instruction supply; nullptr unbinds.
     * @param vm     the VM the thread belongs to.
     */
    void bindThread(InstrStream *stream, VmId vm);

    /**
     * Append a software context to the run queue and bind it when it
     * is the first. With more than one context the core time-slices
     * between them (see class comment).
     */
    void enqueueContext(InstrStream *stream, VmId vm);

    /**
     * Dynamic-scheduling migration: rebind this hardware context to
     * @p stream / @p vm at the next clean instruction boundary. A
     * core that is between instructions switches on its next tick; a
     * core blocked on an outstanding miss finishes the in-flight
     * reference first (the fill retires against the departing
     * thread's VM) and switches when the fill returns. Never legal on
     * wedged or time-multiplexed cores.
     */
    void scheduleRebind(InstrStream *stream, VmId vm);

    /** @return true while a deferred rebind awaits a boundary. */
    bool rebindPending() const { return rebindPending_; }

    /** Set the preemption quantum; 0 restores the default. */
    void
    setTimeslice(Cycle interval)
    {
        timeslice_ = interval ? interval : kDefaultTimesliceCycles;
    }

    /** @return true when more than one context shares this core. */
    bool multiplexed() const { return contexts_.size() > 1; }

    /** @return number of queued software contexts. */
    int numContexts() const
    {
        return static_cast<int>(contexts_.size());
    }

    /** Advance one cycle, then write the wake cycle. */
    void
    tick()
    {
        step();
        wake_ = nextWork();
    }

    /**
     * @return the first cycle at which tick() can do work:
     * cycleNever while unbound with no rebind pending, blocked or
     * wedged; otherwise busyUntil_ (work is due now when it has
     * passed). The wake slot may be earlier, never later.
     */
    Cycle
    nextWork() const
    {
        if (blocked_ || wedged_ || (stream_ == nullptr && !rebindPending_))
            return cycleNever;
        return busyUntil_;
    }

    /** @return true when no thread is bound. */
    bool idle() const { return stream_ == nullptr; }

    /** @return true while a miss is outstanding (or wedged). */
    bool blocked() const { return blocked_ || wedged_; }

    /**
     * Fault injection: stop retiring forever (a wedged hardware
     * context). The core reports blocked() from here on, so the
     * watchdog's per-core progress audit flags it.
     */
    void
    wedge()
    {
        wedged_ = true;
        wake_ = nextWork();
    }

    /** @return true when the core was wedged by fault injection. */
    bool wedged() const { return wedged_; }

    /** Monotonic retired-instruction count (never reset; watchdog). */
    std::uint64_t retiredTotal() const { return retiredTotal_; }

    /** Cycle the current miss began (diagnostics; valid if blocked). */
    Cycle blockStart() const { return blockStart_; }

    VmId vm() const { return vm_; }
    CoreId tile() const { return tile_; }
    InstrStream *stream() const { return stream_; }

    CoreStats &coreStats() { return stats_; }
    const CoreStats &coreStats() const { return stats_; }

    /** Registry node ("core") holding this core's stats. */
    stats::Group &statsGroup() { return statsGroup_; }

  private:
    /** Checkpoint layer restores raw fields (bindThread would reset
     *  the in-flight slice and blocked state). */
    friend struct CkptAccess;

    /** The body of tick(): one cycle of work, if any is due. */
    void step();
    void missComplete();
    void rotateContext(Cycle now);
    void installRebind();

    /** One schedulable software context (over-committed cores). */
    struct Context
    {
        InstrStream *stream = nullptr;
        VmId vm = invalidVm;
    };

    Fabric &fab_;
    CoreId tile_;
    L1Controller &l1_;
    Cycle &wake_; ///< slot in the System's wake array
    InstrStream *stream_ = nullptr;
    VmId vm_ = invalidVm;

    bool blocked_ = false;
    bool wedged_ = false;
    bool rebindPending_ = false;
    InstrStream *rebindStream_ = nullptr;
    VmId rebindVm_ = invalidVm;
    std::uint64_t retiredTotal_ = 0;
    bool haveSlice_ = false;
    WorkSlice slice_;
    Cycle busyUntil_ = 0;
    Cycle blockStart_ = 0;

    // Over-commit run queue. Empty or single-entry on dedicated
    // cores; rotation state is checkpointed so a resume continues
    // the same schedule.
    std::vector<Context> contexts_;
    std::size_t ctxPos_ = 0;
    Cycle timeslice_ = kDefaultTimesliceCycles;
    Cycle nextSlice_ = 0; ///< next rotation boundary (absolute)

    CoreStats stats_;
    stats::Group statsGroup_{"core"};
};

} // namespace consim

#endif // CONSIM_CPU_CORE_HH
