/**
 * @file
 * consim's performance benchmark program.
 *
 *   consim_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                    --reference FILE [--trace-out FILE]
 *   consim_perfbench --write-reference FILE
 *
 * A run repeats the workload's job for up to S seconds and
 * prints the median of each metric over the repetitions. Every point's
 * `consim.run.v1` envelope is hashed and compared with the digest the
 * library's own entry points (runExperiment / runSweepEx) produced for the
 * same config, kept in the reference file. --trace 1 spends half the
 * time on untraced repetitions and half on traced ones, and reports
 * per-layer metrics instead of end-to-end ones. The last stdout line
 * is the result object; NOTES.md defines every metric and workload.
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "bench_util.hh"
#include "common/check.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "core/experiment.hh"
#include "core/mix.hh"
#include "exec/sweep.hh"
#include "exec/thread_pool.hh"
#include "point.hh"
#include "trace.hh"

namespace
{

using namespace consim;
using namespace perfbench;

// --- workloads ----------------------------------------------------

/** Distinct simulation seeds; --seed N selects 1 + N % kSeedSlots,
 *  and the reference file holds one digest set per slot. */
constexpr std::uint64_t kSeedSlots = 8;

/** Host workers for fig_sweep's pool (fewer when the host has fewer). */
constexpr int kSweepWorkers = 4;

/** Measure-window run() chunks per traced repetition (>= 1000 keeps
 *  ten samples beyond p99). */
constexpr Cycle kChunksPerRep = 1000;

// paper16: long measure window on the paper's chip.
constexpr Cycle kPaperWarmup = 300'000;
constexpr Cycle kPaperMeasure = 900'000;
// scale256: long enough to commit transactions at 256 cores.
constexpr Cycle kScaleWarmup = 60'000;
constexpr Cycle kScaleMeasure = 90'000;
// fig_sweep: warmup several times the measure window, as the paper's
// 4M/3M defaults weight set-up and warm-up against measurement.
constexpr Cycle kSweepWarmup = 200'000;
constexpr Cycle kSweepMeasure = 50'000;
// ckpt_resume: snapshot ring every kCkptEvery cycles; the deadline
// sits on a snapshot boundary in the middle of the measure window.
constexpr Cycle kCkptWarmup = 200'000;
constexpr Cycle kCkptMeasure = 400'000;
constexpr Cycle kCkptEvery = 200'000;
constexpr Cycle kCkptDeadline = kCkptWarmup + kCkptMeasure / 2;

const char *const kWorkloads[] = {"paper16", "scale256", "fig_sweep",
                                  "ckpt_resume"};

RunConfig
paperPoint(std::uint64_t seed, Cycle warmup, Cycle measure)
{
    RunConfig cfg = mixConfig(Mix::byName("Mix 5"),
                              SchedPolicy::RoundRobin,
                              SharingDegree::Shared4);
    cfg.seed = seed;
    cfg.warmupCycles = warmup;
    cfg.measureCycles = measure;
    cfg.runJobs = 1;
    return cfg;
}

/** The points of @p workload's job under simulation seed @p seed. */
std::vector<RunConfig>
pointsFor(const std::string &workload, std::uint64_t seed)
{
    if (workload == "paper16")
        return {paperPoint(seed, kPaperWarmup, kPaperMeasure)};
    if (workload == "scale256") {
        // bench/fig16_scale256's 256-core machine: 1.5x over-committed.
        RunConfig cfg = mixConfig(Mix::byName("Mix 1"),
                                  SchedPolicy::Affinity,
                                  SharingDegree::Shared16);
        cfg.machine.meshX = 16;
        cfg.machine.meshY = 16;
        cfg.vmThreads = {96, 96, 96, 96};
        cfg.seed = seed;
        cfg.warmupCycles = kScaleWarmup;
        cfg.measureCycles = kScaleMeasure;
        cfg.runJobs = 1;
        return {cfg};
    }
    if (workload == "fig_sweep") {
        std::vector<RunConfig> pts;
        for (const int degree : {1, 2, 4, 8, 16}) {
            for (const SchedPolicy pol :
                 {SchedPolicy::Affinity, SchedPolicy::RoundRobin}) {
                RunConfig cfg = mixConfig(Mix::byName("Mix 5"), pol,
                                          sharingDegree(degree));
                cfg.seed = seed;
                cfg.warmupCycles = kSweepWarmup;
                cfg.measureCycles = kSweepMeasure;
                cfg.runJobs = 1;
                pts.push_back(cfg);
            }
        }
        return pts;
    }
    if (workload == "ckpt_resume") {
        RunConfig cfg = paperPoint(seed, kCkptWarmup, kCkptMeasure);
        cfg.ckptEveryCycles = kCkptEvery;
        return {cfg};
    }
    return {};
}

/** Reject windows the library would silently replace by defaults. */
bool
windowsHonest(const std::vector<RunConfig> &pts, std::string &why)
{
    for (const RunConfig &c : pts) {
        if (c.warmupCycles == 0 || c.measureCycles == 0) {
            why = "a zero warmup or measure window (the library would "
                  "run its 4M/3M default instead)";
            return false;
        }
        if (c.ckptEveryCycles != 0 &&
            (kCkptDeadline <= c.warmupCycles ||
             kCkptDeadline >= c.warmupCycles + c.measureCycles ||
             kCkptDeadline % c.ckptEveryCycles != 0)) {
            why = "a checkpoint deadline outside the measure window or "
                  "off a snapshot boundary";
            return false;
        }
    }
    return true;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
    return buf;
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::max<std::size_t>(rank, 1) - 1];
}

// --- one repetition of a workload's job ---------------------------

/** Everything one repetition measured. */
struct Rep
{
    double wall = 0.0;    ///< wall_s: the job as a user runs it
    double repWall = 0.0; ///< the whole repetition, checks included
    PhaseTimes t;         ///< summed over phase-driven points
    double measureCycles = 0.0;
    double coreCycles = 0.0; ///< measure cycles x cores, summed
    double instructions = 0.0;
    double transactions = 0.0;
    LayerCounts counts;
    std::vector<double> chunkMs;
    double l2Valid = 0.0;
    double l2Capacity = 0.0;
    std::vector<double> pointWalls;
    int workers = 1;
    double poolWall = 0.0; ///< wall of the phase-driven points
    double ckptSaves = 0.0; ///< periodic snapshots the job took
    int attempted = 0;
    int failed = 0;
    std::vector<Span> spans;

    void
    absorb(const PointResult &p)
    {
        t.add(p.t);
        measureCycles += static_cast<double>(p.measureCycles);
        instructions += static_cast<double>(p.instructions);
        transactions += static_cast<double>(p.transactions);
        addCounts(counts, p.counts);
        chunkMs.insert(chunkMs.end(), p.chunkMs.begin(), p.chunkMs.end());
        l2Valid += p.l2Valid;
        l2Capacity += p.l2Capacity;
        pointWalls.push_back(p.t.wall);
    }
};

/** What the layer probes on the job's first point measured. */
struct Probe
{
    double speedupJ2 = 0.0;
    double ckptSave = 0.0;
    double ckptBytes = 0.0;
    double ckptParse = 0.0;
    double ckptRestore = 0.0;
};

/** The benchmark's run context: reference digests and failure log. */
struct Bench
{
    std::string workload;
    std::uint64_t simSeed = 1;
    const json::Value *ref = nullptr; ///< digest list for this slot

    /** Count one correctness check on @p rep; report a failure. */
    void
    check(Rep &rep, bool ok, const std::string &what) const
    {
        ++rep.attempted;
        if (ok)
            return;
        ++rep.failed;
        auto rec = json::Value::object();
        rec.set("record", "failure");
        rec.set("workload", workload);
        rec.set("check", what);
        std::printf("%s\n", rec.dump().c_str());
        std::fflush(stdout);
    }

    std::string
    refDigest(std::size_t i) const
    {
        return ref && i < ref->size() ? ref->at(i).str() : "missing";
    }

    /** Check a finished point: digest and committed transactions. */
    void
    checkPoint(Rep &rep, std::size_t i, std::uint64_t digest,
               std::uint64_t txns, const char *path) const
    {
        const std::string want = refDigest(i);
        const std::string got = hex(digest);
        const std::string label =
            workload + " point " + std::to_string(i) + " (" + path + ")";
        if (txns == 0) {
            check(rep, false,
                  label + ": measure window committed no transactions");
        } else {
            check(rep, got == want,
                  label + ": digest " + got + " != reference " + want);
        }
    }

    /** Run one phase-driven point, charging failures to @p rep. */
    std::optional<PointResult>
    point(Rep &rep, std::size_t i, const RunConfig &cfg, Tracer &tr,
          const PointOptions &opt) const
    {
        try {
            PointResult p = runPoint(cfg, tr, opt);
            checkPoint(rep, i, p.digest, p.transactions, "phase-driven");
            return p;
        } catch (const std::exception &e) {
            check(rep, false, workload + " point " + std::to_string(i) +
                                  ": " + e.what());
            return std::nullopt;
        }
    }
};

int
sweepWorkers()
{
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    return std::max(1, std::min(kSweepWorkers, hw));
}

int
coresOf(const RunConfig &cfg)
{
    return cfg.machine.numCores();
}

PointOptions
pointOptions(const std::vector<RunConfig> &pts, bool traced)
{
    PointOptions opt;
    if (traced) {
        const Cycle per_point =
            (kChunksPerRep + pts.size() - 1) / pts.size();
        opt.chunkCycles =
            std::max<Cycle>(1, pts.front().measureCycles / per_point);
        opt.fillWalk = true;
    }
    return opt;
}

/** paper16 / scale256: the points one after another on this thread. */
void
serialJob(const Bench &b, const std::vector<RunConfig> &pts, Rep &rep,
          Tracer &tr, bool traced)
{
    const PointOptions opt = pointOptions(pts, traced);
    {
        Tracer::Scope job(tr, "job", &rep.wall);
        for (std::size_t i = 0; i < pts.size(); ++i) {
            if (auto p = b.point(rep, i, pts[i], tr, opt)) {
                rep.absorb(*p);
                rep.coreCycles += static_cast<double>(p->measureCycles) *
                                  coresOf(pts[i]);
            }
        }
    }
    rep.poolWall = rep.wall;
}

/** fig_sweep: the sweep through runSweepEx (timed as wall_s), then the
 *  same points phase-driven on a pool of the same width. */
void
sweepJob(const Bench &b, const std::vector<RunConfig> &pts, Rep &rep,
         Tracer &tr, bool traced, Clock::time_point epoch, int run_base)
{
    rep.workers = sweepWorkers();
    SweepOptions sopt;
    sopt.jobs = rep.workers;
    std::vector<SweepRun> runs;
    {
        Tracer::Scope s(tr, "exec.run_sweep", &rep.wall);
        runs = runSweepEx(pts, sopt);
    }
    for (std::size_t i = 0; i < pts.size(); ++i) {
        const SweepRun &r = runs[i];
        if (!r.ok) {
            b.check(rep, false,
                    b.workload + " point " + std::to_string(i) +
                        " (runSweep): " + r.errorKind + ": " +
                        r.errorMessage);
            continue;
        }
        std::uint64_t txns = 0;
        for (const VmResult &v : r.result.vms)
            txns += v.transactions;
        b.checkPoint(rep, i, runDigest(pts[i], r.result), txns,
                     "runSweep");
    }

    const PointOptions opt = pointOptions(pts, traced);
    std::vector<Tracer> tracers;
    for (std::size_t i = 0; i < pts.size(); ++i)
        tracers.emplace_back(traced, run_base + static_cast<int>(i),
                             epoch);
    std::vector<std::optional<PointResult>> results(pts.size());
    std::vector<std::string> errors(pts.size());
    {
        Tracer::Scope s(tr, "exec.pool_pass", &rep.poolWall);
        ThreadPool pool(rep.workers);
        for (std::size_t i = 0; i < pts.size(); ++i) {
            pool.submit([&, i] {
                try {
                    results[i] = runPoint(pts[i], tracers[i], opt);
                } catch (const std::exception &e) {
                    errors[i] = e.what();
                }
            });
        }
        pool.wait();
    }
    for (std::size_t i = 0; i < pts.size(); ++i) {
        if (!results[i]) {
            b.check(rep, false, b.workload + " point " +
                                    std::to_string(i) +
                                    " (phase-driven): " + errors[i]);
            continue;
        }
        const PointResult &p = *results[i];
        b.checkPoint(rep, i, p.digest, p.transactions, "phase-driven");
        rep.absorb(p);
        rep.coreCycles +=
            static_cast<double>(p.measureCycles) * coresOf(pts[i]);
        appendSpans(rep.spans, tracers[i].spans());
    }
}

/** ckpt_resume: an uninterrupted run with the snapshot ring on, then
 *  the same config tripped by a cycle deadline and finished by
 *  resumeExperiment from the attached snapshot. */
void
ckptJob(const Bench &b, const std::vector<RunConfig> &pts, Rep &rep,
        Tracer &tr, bool traced)
{
    const RunConfig &base = pts.front();
    Tracer::Scope job(tr, "job", &rep.wall);
    if (auto p = b.point(rep, 0, base, tr, pointOptions(pts, traced))) {
        rep.absorb(*p);
        rep.coreCycles +=
            static_cast<double>(p->measureCycles) * coresOf(base);
        rep.poolWall = p->t.wall;
    }
    const Cycle total = base.warmupCycles + base.measureCycles;
    rep.ckptSaves = static_cast<double>(
        total / kCkptEvery + kCkptDeadline / kCkptEvery +
        (total - kCkptDeadline) / kCkptEvery);

    const std::string label = b.workload + " point 0 (resumed)";
    try {
        RunConfig trip = base;
        trip.cycleDeadline = kCkptDeadline;
        std::string text;
        {
            Tracer::Scope s(tr, "experiment.run_to_deadline");
            try {
                runExperiment(trip);
            } catch (const SimError &e) {
                if (e.kind() == SimErrorKind::Deadline)
                    text = e.ckpt();
                else
                    throw;
            }
        }
        if (text.empty()) {
            b.check(rep, false, label + ": the deadline did not trip "
                                        "with a snapshot attached");
            return;
        }
        json::Value doc;
        std::string err;
        bool parsed = false;
        {
            Tracer::Scope s(tr, "checkpoint.parse");
            parsed = json::parse(text, doc, &err);
        }
        if (!parsed) {
            b.check(rep, false, label + ": snapshot does not parse: " +
                                    err);
            return;
        }
        RunResult r;
        {
            Tracer::Scope s(tr, "experiment.resume");
            r = resumeExperiment(doc);
        }
        std::uint64_t txns = 0;
        for (const VmResult &v : r.vms)
            txns += v.transactions;
        b.checkPoint(rep, 0, runDigest(base, r), txns, "resumed");
    } catch (const std::exception &e) {
        b.check(rep, false, label + ": " + e.what());
    }
}

Rep
runRep(const Bench &b, const std::vector<RunConfig> &pts, bool traced,
       Clock::time_point epoch, int &next_run)
{
    Rep rep;
    Tracer tr(traced, next_run++, epoch);
    const auto t0 = Clock::now();
    if (b.workload == "fig_sweep") {
        sweepJob(b, pts, rep, tr, traced, epoch, next_run);
        next_run += static_cast<int>(pts.size());
    } else if (b.workload == "ckpt_resume") {
        ckptJob(b, pts, rep, tr, traced);
    } else {
        serialJob(b, pts, rep, tr, traced);
    }
    rep.repWall = secondsBetween(t0, Clock::now());
    appendSpans(rep.spans, tr.spans());
    return rep;
}

/** Repeat the job while one more repetition, as long as the last one,
 *  still ends within @p seconds (at least once), so a run never
 *  overshoots its time by a whole repetition. */
std::vector<Rep>
repeat(const Bench &b, const std::vector<RunConfig> &pts, bool traced,
       double seconds, Clock::time_point epoch, int &next_run)
{
    std::vector<Rep> reps;
    const auto t0 = Clock::now();
    double last = 0.0;
    do {
        const Rep &r =
            reps.emplace_back(runRep(b, pts, traced, epoch, next_run));
        auto rec = json::Value::object();
        rec.set("record", "rep");
        rec.set("traced", traced);
        rec.set("wall_s", r.wall);
        rec.set("setup_s", r.t.setup());
        rec.set("warmup_s", r.t.warmup);
        rec.set("measure_s", r.t.measure);
        std::printf("%s\n", rec.dump().c_str());
        last = r.repWall;
    } while (secondsBetween(t0, Clock::now()) + last <= seconds);
    return reps;
}

template <typename Fn>
double
medianOf(const std::vector<Rep> &reps, Fn &&fn)
{
    std::vector<double> v;
    for (const Rep &r : reps)
        v.push_back(fn(r));
    return median(v);
}

void
setMetric(json::Value &metrics, const char *name, double value,
          const char *unit)
{
    auto m = json::Value::object();
    m.set("value", std::isfinite(value) ? value : 0.0);
    m.set("unit", unit);
    metrics.set(name, std::move(m));
}

double
ratio(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

void
endToEndMetrics(json::Value &m, const std::vector<Rep> &reps)
{
    setMetric(m, "wall_s", medianOf(reps, [](const Rep &r) {
                  return r.wall;
              }),
              "s");
    setMetric(m, "setup_s", medianOf(reps, [](const Rep &r) {
                  return r.t.setup();
              }),
              "s");
    setMetric(m, "warmup_s", medianOf(reps, [](const Rep &r) {
                  return r.t.warmup;
              }),
              "s");
    setMetric(m, "sim_cycles_per_s", medianOf(reps, [](const Rep &r) {
                  return ratio(r.measureCycles, r.t.measure);
              }),
              "cycles/s");
    setMetric(m, "sim_instr_per_s", medianOf(reps, [](const Rep &r) {
                  return ratio(r.instructions, r.t.measure);
              }),
              "instr/s");
    setMetric(m, "peak_rss_mb", peakRssMb(), "MB");
}

void
layerMetrics(json::Value &m, const std::vector<Rep> &traced,
             const std::vector<Rep> &untraced, const Probe &probe)
{
    const auto med = [&](auto fn) { return medianOf(traced, fn); };
    setMetric(m, "workload.vm_build_s",
              med([](const Rep &r) { return r.t.vmBuild; }), "s");
    setMetric(m, "core.schedule_s",
              med([](const Rep &r) { return r.t.schedule; }), "s");
    setMetric(m, "core.system_ctor_s",
              med([](const Rep &r) { return r.t.ctor; }), "s");
    setMetric(m, "core.warmup_s",
              med([](const Rep &r) { return r.t.warmup; }), "s");
    setMetric(m, "core.measure_s",
              med([](const Rep &r) { return r.t.measure; }), "s");
    setMetric(m, "core.host_ns_per_core_cycle", med([](const Rep &r) {
                  return ratio(r.t.measure * 1e9, r.coreCycles);
              }),
              "ns");
    std::vector<double> chunks;
    for (const Rep &r : traced)
        chunks.insert(chunks.end(), r.chunkMs.begin(), r.chunkMs.end());
    setMetric(m, "core.chunk_ms_p50", percentile(chunks, 50), "ms");
    setMetric(m, "core.chunk_ms_p99", percentile(chunks, 99), "ms");
    setMetric(m, "core.chunk_ms_max", percentile(chunks, 100), "ms");
    setMetric(m, "core.chunk_n", static_cast<double>(chunks.size()),
              "count");
    setMetric(m, "core.extract_s",
              med([](const Rep &r) { return r.t.extract; }), "s");
    setMetric(m, "core.teardown_s",
              med([](const Rep &r) { return r.t.teardown; }), "s");
    setMetric(m, "core.parallel_speedup_j2", probe.speedupJ2, "x");
    setMetric(m, "exec.pool_efficiency", med([](const Rep &r) {
                  double busy = 0.0;
                  for (const double w : r.pointWalls)
                      busy += w;
                  return ratio(busy, r.workers * r.poolWall);
              }),
              "ratio");
    setMetric(m, "exec.point_wall_s_max", med([](const Rep &r) {
                  return r.pointWalls.empty()
                             ? 0.0
                             : *std::max_element(r.pointWalls.begin(),
                                                 r.pointWalls.end());
              }),
              "s");
    setMetric(m, "checkpoint.save_s", probe.ckptSave, "s");
    setMetric(m, "checkpoint.bytes", probe.ckptBytes, "bytes");
    setMetric(m, "checkpoint.parse_s", probe.ckptParse, "s");
    setMetric(m, "checkpoint.restore_s", probe.ckptRestore, "s");

    // Simulated counts repeat exactly, so one repetition speaks for all.
    const LayerCounts &c = traced.front().counts;
    const auto get = [&c](const char *k) {
        const auto it = c.find(k);
        return it == c.end() ? 0.0 : it->second;
    };
    for (const char *k :
         {"cpu.instructions", "cpu.stall_cycles", "cache.l1_misses",
          "cache.l2_hits", "cache.l2_misses", "cache.l2_fill_retries",
          "coherence.dir_requests", "coherence.forwards",
          "coherence.invalidations", "coherence.queued_requests",
          "coherence.c2c_clean", "coherence.c2c_dirty",
          "coherence.mc_reads", "noc.packets", "noc.flit_hops",
          "noc.link_busy_cycles"})
        setMetric(m, k, get(k), "count");
    setMetric(m, "cache.l2_fill_frac",
              ratio(traced.front().l2Valid, traced.front().l2Capacity),
              "ratio");
    const double dh = get("coherence.dir_cache_hits");
    setMetric(m, "coherence.dir_cache_hit_frac",
              ratio(dh, dh + get("coherence.dir_cache_misses")), "ratio");
    setMetric(m, "coherence.mc_queue_delay_mean",
              ratio(get("coherence.mc_queue_delay.sum"),
                    get("coherence.mc_queue_delay.n")),
              "cycles");
    setMetric(m, "noc.latency_mean",
              ratio(get("noc.latency.sum"), get("noc.latency.n")),
              "cycles");
    setMetric(m, "trace.overhead_ratio",
              ratio(medianOf(traced, [](const Rep &r) { return r.repWall; }),
                    medianOf(untraced,
                             [](const Rep &r) { return r.repWall; })),
              "ratio");
}

/**
 * Layer probes on the job's first point, outside the timed
 * repetitions: a serial run that ends with an explicit snapshot, whose
 * parse and restore into a fresh System are timed, then the same point
 * at runJobs = 2, whose digest must match. @return the serial / two-job
 * measure-time ratio.
 */
Probe
probeFirstPoint(const Bench &b, const RunConfig &cfg, Rep &rep,
                Clock::time_point epoch, int run)
{
    Tracer tr(true, run, epoch);
    PointOptions opt;
    opt.saveCkpt = true;
    Probe found;
    if (auto serial = b.point(rep, 0, cfg, tr, opt)) {
        found.ckptSave = serial->ckptSave;
        found.ckptBytes = static_cast<double>(serial->ckpt.size());
        json::Value doc;
        std::string err;
        bool parsed = false;
        {
            Tracer::Scope s(tr, "checkpoint.parse", &found.ckptParse);
            parsed = json::parse(serial->ckpt, doc, &err);
        }
        serial->ckpt = std::string();
        b.check(rep, parsed,
                b.workload + " point 0 snapshot does not parse: " + err);
        if (parsed)
            found.ckptRestore = timeRestore(cfg, doc, tr);
        RunConfig two = cfg;
        two.runJobs = 2;
        if (auto par = b.point(rep, 0, two, tr, PointOptions{}))
            found.speedupJ2 = ratio(serial->t.measure, par->t.measure);
    }
    appendSpans(rep.spans, tr.spans());
    return found;
}

void
printHost(const Bench &b, std::uint64_t seed, double seconds, bool traced)
{
    std::printf("{\"record\":\"host\",");
    benchutil::printHostMeta();
    std::printf(",\"workload\":\"%s\",\"seed\":%" PRIu64
                ",\"sim_seed\":%" PRIu64 ",\"build_type\":\"%s\","
                "\"workers\":%d,\"seconds\":%g,\"trace\":%d}\n",
                b.workload.c_str(), seed, b.simSeed, PERFBENCH_BUILD_TYPE,
                b.workload == "fig_sweep" ? sweepWorkers() : 1,
                seconds, traced ? 1 : 0);
    std::fflush(stdout);
}

/** Digests of every workload and seed slot, computed by the library's
 *  own entry points (runExperiment, runSweepEx). */
int
writeReference(const std::string &path)
{
    auto digests = json::Value::object();
    for (const char *w : kWorkloads) {
        auto slots = json::Value::array();
        for (std::uint64_t slot = 0; slot < kSeedSlots; ++slot) {
            const auto pts = pointsFor(w, 1 + slot);
            auto list = json::Value::array();
            std::vector<RunResult> results;
            if (std::string(w) == "fig_sweep") {
                SweepOptions sopt;
                sopt.jobs = kSweepWorkers;
                for (const SweepRun &r : runSweepEx(pts, sopt)) {
                    if (!r.ok) {
                        std::fprintf(stderr, "%s slot %" PRIu64 ": %s\n",
                                     w, slot, r.errorMessage.c_str());
                        return 1;
                    }
                    results.push_back(r.result);
                }
            } else {
                for (const RunConfig &c : pts)
                    results.push_back(runExperiment(c));
            }
            for (std::size_t i = 0; i < pts.size(); ++i) {
                std::uint64_t txns = 0;
                for (const VmResult &v : results[i].vms)
                    txns += v.transactions;
                if (txns == 0) {
                    std::fprintf(stderr,
                                 "%s slot %" PRIu64 " point %zu commits "
                                 "no transactions\n",
                                 w, slot, i);
                    return 1;
                }
                list.push(hex(runDigest(pts[i], results[i])));
            }
            slots.push(std::move(list));
            std::fprintf(stderr, "%s slot %" PRIu64 " done\n", w, slot);
        }
        digests.set(w, std::move(slots));
    }
    auto doc = json::Value::object();
    doc.set("schema", "consim.perfbench.ref.v1");
    doc.set("seed_slots", kSeedSlots);
    doc.set("digests", std::move(digests));
    std::ofstream out(path);
    doc.write(out, 1);
    out << "\n";
    return out.good() ? 0 : 1;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "consim_perfbench: %s\n"
                 "usage: consim_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --reference FILE "
                 "[--trace-out FILE]\n"
                 "       consim_perfbench --write-reference FILE\n"
                 "workloads: paper16 scale256 fig_sweep ckpt_resume\n",
                 msg);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    logging::setVerbose(false);
    // A broken invariant becomes a counted failure, not an abort.
    check::setLevel(check::Level::Basic);

    std::string workload, ref_path, trace_out, write_ref;
    std::uint64_t seed = 0;
    int seconds = 0;
    int trace = -1;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        if (a == "--workload")
            workload = v;
        else if (a == "--seed")
            have_seed = parseU64(v, seed);
        else if (a == "--seconds") {
            if (!parseIntInRange(v, 1, 3600, seconds))
                usage("--seconds must be 1..3600");
        } else if (a == "--trace") {
            if (!parseIntInRange(v, 0, 1, trace))
                usage("--trace must be 0 or 1");
        } else if (a == "--reference")
            ref_path = v;
        else if (a == "--trace-out")
            trace_out = v;
        else if (a == "--write-reference")
            write_ref = v;
        else
            usage(("unknown flag " + a).c_str());
    }
    if (!write_ref.empty())
        return writeReference(write_ref);
    if (!have_seed)
        usage("--seed must be an unsigned integer");
    if (seconds == 0 || trace < 0 || ref_path.empty())
        usage("--seconds, --trace and --reference are required");

    Bench b;
    b.workload = workload;
    const std::uint64_t slot = seed % kSeedSlots;
    b.simSeed = 1 + slot;
    const std::vector<RunConfig> pts = pointsFor(workload, b.simSeed);
    if (pts.empty())
        usage(("unknown workload '" + workload + "'").c_str());
    std::string why;
    if (!windowsHonest(pts, why)) {
        std::fprintf(stderr, "consim_perfbench: %s has %s\n",
                     workload.c_str(), why.c_str());
        return 2;
    }

    json::Value ref;
    {
        std::ifstream in(ref_path);
        std::stringstream ss;
        ss << in.rdbuf();
        std::string err;
        if (!in || !json::parse(ss.str(), ref, &err)) {
            std::fprintf(stderr, "consim_perfbench: cannot read %s %s\n",
                         ref_path.c_str(), err.c_str());
            return 2;
        }
        const json::Value *d = ref.find("digests");
        const json::Value *w = d ? d->find(workload) : nullptr;
        if (!w || w->size() != kSeedSlots) {
            std::fprintf(stderr,
                         "consim_perfbench: %s has no %" PRIu64
                         " digest slots for %s\n",
                         ref_path.c_str(), kSeedSlots, workload.c_str());
            return 2;
        }
        b.ref = &w->at(slot);
    }

    printHost(b, seed, seconds, trace == 1);
    const auto epoch = Clock::now();
    int next_run = 0;
    std::vector<Rep> untraced, traced;
    auto metrics = json::Value::object();
    if (trace == 0) {
        untraced = repeat(b, pts, false, seconds, epoch, next_run);
        endToEndMetrics(metrics, untraced);
    } else {
        untraced = repeat(b, pts, false, seconds / 2.0, epoch, next_run);
        traced = repeat(b, pts, true, seconds / 2.0, epoch, next_run);
        const Probe probe = probeFirstPoint(b, pts.front(), traced.back(),
                                            epoch, next_run++);
        layerMetrics(metrics, traced, untraced, probe);
    }

    // Every repetition must have simulated exactly the same work.
    std::vector<Rep> all = untraced;
    all.insert(all.end(), traced.begin(), traced.end());
    Rep &last = all.back();
    bool repeatable = true;
    for (const Rep &r : all)
        repeatable = repeatable && r.counts == all.front().counts;
    b.check(last, repeatable,
            workload + ": simulated counts differ between repetitions");

    int attempted = 0, failed = 0;
    for (const Rep &r : all) {
        attempted += r.attempted;
        failed += r.failed;
    }

    auto summary = json::Value::object();
    summary.set("record", "summary");
    summary.set("repetitions_untraced", untraced.size());
    summary.set("repetitions_traced", traced.size());
    // Identical in every repetition (the counts-repeat check).
    summary.set("transactions_per_rep", all.front().transactions);
    summary.set("checkpoint_saves_per_rep", all.front().ckptSaves);
    summary.set("failed_frac",
                ratio(static_cast<double>(failed), attempted));
    if (trace == 1) {
        std::vector<Span> spans;
        for (const Rep &r : all)
            appendSpans(spans, r.spans);
        auto self = json::Value::object();
        for (const auto &[name, s] : selfTimes(spans))
            self.set(name, s);
        summary.set("self_s", std::move(self));
        summary.set("counts_repeat", repeatable);
        summary.set("spans", spans.size());
        if (!trace_out.empty()) {
            std::ofstream out(trace_out);
            writeSpans(out, spans);
            summary.set("spans_file", trace_out);
        }
    }
    std::printf("%s\n", summary.dump().c_str());

    auto result = json::Value::object();
    result.set("correct", failed == 0);
    result.set("attempted", attempted);
    result.set("failed", failed);
    result.set("metrics", std::move(metrics));
    std::printf("%s\n", result.dump().c_str());
    return 0;
}
