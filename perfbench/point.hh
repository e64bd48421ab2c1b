/**
 * @file
 * One simulation point driven phase by phase through the simulator's
 * public API, with a host-time measurement around every call.
 *
 * runPoint performs the same sequence runExperiment does (VM
 * construction, thread placement, System construction, arming, warmup
 * run, stats reset, measure run, registry extraction, teardown) so
 * that each step can be timed from outside without editing src/. Its
 * result is checked against a digest produced by runExperiment itself,
 * so any drift between the two sequences fails the benchmark.
 */

#ifndef PERFBENCH_POINT_HH
#define PERFBENCH_POINT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.hh"
#include "core/experiment.hh"
#include "trace.hh"

namespace perfbench
{

using consim::Cycle;
using consim::RunConfig;
using consim::RunResult;

/** Host seconds spent in each call of one point (or a sum of points). */
struct PhaseTimes
{
    double vmBuild = 0.0;  ///< VirtualMachine construction
    double schedule = 0.0; ///< scheduleThreads
    double ctor = 0.0;     ///< System constructor
    double arm = 0.0;      ///< watchdog/timeslice/jobs/snapshot knobs
    double warmup = 0.0;   ///< warmup System::run calls
    double measure = 0.0;  ///< measure-window System::run calls
    double extract = 0.0;  ///< registry walk, snapshots, digest
    double teardown = 0.0; ///< System and VM destruction
    double wall = 0.0;     ///< whole point

    double setup() const { return vmBuild + schedule + ctor + arm; }
    void add(const PhaseTimes &o);
};

/**
 * Simulated work of the measure window read from statsRoot(): raw
 * counter sums, and (sum, count) pairs for averages. Deterministic, so
 * two runs of one config must produce identical maps.
 */
using LayerCounts = std::map<std::string, double>;

void addCounts(LayerCounts &to, const LayerCounts &from);

struct PointOptions
{
    /** >0: run the measure window in run() calls of this many cycles
     *  and time each one. */
    Cycle chunkCycles = 0;
    /** Walk the L2 at the start of the measure window to report how
     *  full the warmup left it. */
    bool fillWalk = false;
    /** Time an explicit saveCheckpoint() plus encode at the end of
     *  the measure window (the work of one periodic snapshot). */
    bool saveCkpt = false;
};

struct PointResult
{
    PhaseTimes t;
    Cycle measureCycles = 0;
    std::uint64_t instructions = 0; ///< retired in the measure window
    std::uint64_t transactions = 0; ///< committed in the measure window
    std::uint64_t digest = 0;
    LayerCounts counts;
    double l2Valid = 0.0;    ///< valid L2 lines at measure start
    double l2Capacity = 0.0; ///< L2 lines on chip
    std::vector<double> chunkMs;
    double ckptSave = 0.0; ///< seconds: saveCheckpoint + encode
    std::string ckpt;      ///< the encoded snapshot (saveCkpt)
};

/**
 * FNV-1a 64-bit over the `consim.run.v1` envelope exactly as
 * `consim_run --json` writes it (and as tests/test_scale_model.cc's
 * golden points pin it): the single-seed result folded through
 * averageRunResults, two-space indent, trailing newline.
 */
std::uint64_t runDigest(const RunConfig &cfg, const RunResult &r);

/**
 * Run @p cfg phase by phase. Windows must be explicit (nonzero).
 * Throws consim::SimError like runExperiment.
 */
PointResult runPoint(const RunConfig &cfg, Tracer &tr,
                     const PointOptions &opt);

/**
 * Build a fresh System for @p cfg and time restoreCheckpoint of
 * @p ckpt alone. @return seconds spent restoring.
 */
double timeRestore(const RunConfig &cfg, const consim::json::Value &ckpt,
                   Tracer &tr);

} // namespace perfbench

#endif // PERFBENCH_POINT_HH
