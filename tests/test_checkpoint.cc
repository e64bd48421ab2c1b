/**
 * @file
 * Checkpoint/resume (`consim.ckpt.v5`) tests: resume byte-identity
 * across every sharing degree and scheduling policy (including the
 * migration-boundary corner), watchdog-trip checkpoints under fault
 * injection, the sweep engine's resume-before-reseed retry ladder and
 * its seed-honesty reporting, and the strict env parsing the
 * experiment defaults rely on.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/check.hh"
#include "common/json.hh"
#include "core/checkpoint.hh"
#include "core/experiment.hh"
#include "core/fault.hh"
#include "core/mix.hh"
#include "core/report.hh"
#include "exec/sweep.hh"

using namespace consim;

namespace
{

/** A small two-VM point: fast, yet exercises sharing and the NoC. */
RunConfig
smallConfig(SharingDegree sharing, SchedPolicy policy)
{
    RunConfig cfg =
        mixConfig(Mix::byName("Mix 1"), policy, sharing);
    cfg.seed = 7;
    cfg.warmupCycles = 10'000;
    cfg.measureCycles = 20'000;
    cfg.watchdogIntervalCycles = 5'000;
    return cfg;
}

/**
 * Trip @p cfg with a mid-run cycle deadline while snapshotting every
 * @p every cycles, resume the attached pre-trip checkpoint, and
 * require the resumed run's `consim.run.v1` envelope to be
 * byte-identical to the uninterrupted run's.
 */
void
expectResumeByteIdentity(const RunConfig &cfg, Cycle deadline,
                         Cycle every)
{
    const RunResult full = runExperiment(cfg);
    const std::string full_doc = runResultJson(cfg, full).dump(2);

    RunConfig trip = cfg;
    trip.cycleDeadline = deadline;
    trip.ckptEveryCycles = every;
    try {
        runExperiment(trip);
        FAIL() << "deadline did not trip";
    } catch (const SimError &e) {
        ASSERT_EQ(e.kind(), SimErrorKind::Deadline);
        ASSERT_FALSE(e.ckpt().empty())
            << "no pre-trip checkpoint attached";
        json::Value doc;
        std::string err;
        ASSERT_TRUE(json::parse(e.ckpt(), doc, &err)) << err;

        // The embedded config echo round-trips to the original.
        const RunConfig echoed = configFromCheckpoint(doc);
        EXPECT_EQ(toJson(echoed).dump(), toJson(trip).dump());

        const RunResult resumed = resumeExperiment(doc);
        // Same (deadline-free) config echo on both sides: equality
        // holds iff every result bit matches.
        EXPECT_EQ(runResultJson(cfg, resumed).dump(2), full_doc);
    }
}

} // namespace

// ---------------------------------------------------------------- //
// Resume byte-identity across the paper's configuration axes.       //
// ---------------------------------------------------------------- //

TEST(CheckpointResume, ByteIdenticalAcrossSharingDegrees)
{
    for (const SharingDegree d :
         {SharingDegree::Private, SharingDegree::Shared2,
          SharingDegree::Shared4, SharingDegree::Shared8,
          SharingDegree::Shared16}) {
        SCOPED_TRACE(toString(d));
        // Latest snapshot lands mid-measure (cycle 18000).
        expectResumeByteIdentity(
            smallConfig(d, SchedPolicy::Affinity), 20'000, 6'000);
    }
}

TEST(CheckpointResume, ByteIdenticalAcrossSchedulingPolicies)
{
    for (const SchedPolicy p :
         {SchedPolicy::RoundRobin, SchedPolicy::Affinity,
          SchedPolicy::AffinityRR, SchedPolicy::Random}) {
        SCOPED_TRACE(toString(p));
        expectResumeByteIdentity(
            smallConfig(SharingDegree::Shared4, p), 20'000, 6'000);
    }
    // And over the ideal NoC, whose fixed-latency arrivals ride in
    // the snapshot's event queue as NetDeliver events.
    RunConfig ideal =
        smallConfig(SharingDegree::Shared4, SchedPolicy::Affinity);
    ideal.machine.idealNoc = true;
    expectResumeByteIdentity(ideal, 20'000, 6'000);
}

TEST(CheckpointResume, ByteIdenticalWhenSnapshotLandsInWarmup)
{
    // Deadline 8000 < warmup 10000: the latest snapshot (6000) sits
    // in the warmup phase, so the resume finishes warmup, resets
    // stats, and runs the whole measurement window.
    expectResumeByteIdentity(
        smallConfig(SharingDegree::Shared4, SchedPolicy::Affinity),
        8'000, 3'000);
}

TEST(CheckpointResume, ByteIdenticalUnderMigration)
{
    RunConfig cfg =
        smallConfig(SharingDegree::Shared4, SchedPolicy::Affinity);
    cfg.migrationIntervalCycles = 6'000;
    // Snapshot at absolute 22000 = 12000 cycles into the measurement
    // phase — exactly an interior migration boundary. The snapshot is
    // taken before the swap, so the resume must redo it with the
    // pre-swap RNG state carried in the context.
    expectResumeByteIdentity(cfg, 23'000, 11'000);
}

TEST(CheckpointResume, ByteIdenticalAt64Cores)
{
    // The scale model's word-array snapshots (CoreSets instead of the
    // old fixed 16-bit masks) must uphold the same byte-identity
    // contract beyond the paper's chip: 64 cores, 8-way sharing.
    RunConfig cfg = smallConfig(SharingDegree::Shared8,
                                SchedPolicy::Affinity);
    cfg.machine.meshX = 8;
    cfg.machine.meshY = 8;
    expectResumeByteIdentity(cfg, 20'000, 6'000);

    // And on a 16x8 mesh, whose ejection handoff is (16+8)/4 = 6
    // cycles instead of 3, with 32 round-robin threads per VM: the
    // snapshot holds Deliver events further ahead of the clock.
    cfg.machine.meshX = 16;
    cfg.machine.meshY = 8;
    cfg.policy = SchedPolicy::RoundRobin;
    cfg.vmThreads = {32, 32, 32, 32};
    expectResumeByteIdentity(cfg, 20'000, 6'000);
}

TEST(CheckpointResume, HeterogeneousVmThreadsSurviveTheContext)
{
    // vm_threads rides in the checkpoint context: the resumed rig
    // must rebuild the same 2/4/8-thread VMs, and configFromCheckpoint
    // must echo the override (checked inside the helper via the
    // config-echo dump comparison).
    RunConfig cfg = smallConfig(SharingDegree::Shared4,
                                SchedPolicy::Affinity);
    cfg.machine.meshX = 8;
    cfg.machine.meshY = 4;
    cfg.workloads = {WorkloadKind::SpecJbb, WorkloadKind::TpcW,
                     WorkloadKind::TpcH};
    cfg.vmThreads = {2, 4, 8};
    expectResumeByteIdentity(cfg, 20'000, 6'000);
}

TEST(CheckpointSchemaDeathTest, OldSnapshotsRefusedWithExplanation)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // Pre-scale-model snapshots encode sharers as fixed 16-bit masks
    // and cannot be widened faithfully; the refusal must say so
    // rather than die decoding the machine section.
    json::Value v2 = json::Value::object();
    v2.set("schema", "consim.ckpt.v2");
    EXPECT_DEATH(resumeExperiment(v2), "fixed 16-bit masks");
    json::Value v1 = json::Value::object();
    v1.set("schema", "consim.ckpt.v1");
    EXPECT_DEATH(resumeExperiment(v1), "re-run the original");
    EXPECT_DEATH(resumeExperiment(json::Value::object()),
                 "not a consim.ckpt.v5 document");

    // A v4-shaped snapshot: a real trip snapshot relabelled v4, whose
    // context predates the dyn_sched key. Reading its config for a
    // resume must give the same explanation, not trip over the
    // missing key first.
    RunConfig trip =
        smallConfig(SharingDegree::Shared4, SchedPolicy::Affinity);
    trip.cycleDeadline = 8'000;
    trip.ckptEveryCycles = 4'000;
    json::Value v4;
    try {
        runExperiment(trip);
        FAIL() << "deadline did not trip";
    } catch (const SimError &e) {
        ASSERT_TRUE(json::parse(e.ckpt(), v4));
    }
    v4.set("schema", "consim.ckpt.v4");
    json::Value *config = v4.find("context")->find("config");
    json::Value old_config = json::Value::object();
    for (const auto &[key, value] : config->members())
        if (key != "dyn_sched")
            old_config.set(key, value);
    *config = std::move(old_config);
    EXPECT_DEATH(configFromCheckpoint(v4),
                 "lack the migration-policy runtime state");
    EXPECT_DEATH(resumeExperiment(v4),
                 "lack the migration-policy runtime state");
}

// ---------------------------------------------------------------- //
// Watchdog trips under fault injection carry a resumable snapshot.  //
// ---------------------------------------------------------------- //

TEST(CheckpointResume, WatchdogTripCheckpointIsRestorable)
{
    RunConfig cfg =
        smallConfig(SharingDegree::Shared4, SchedPolicy::Affinity);
    ASSERT_TRUE(
        FaultPlan::parse("wedge:core=0,at=15000", cfg.faults));
    cfg.watchdogIntervalCycles = 2'000;
    cfg.ckptEveryCycles = 5'000;
    try {
        runExperiment(cfg);
        FAIL() << "wedge did not trip the watchdog";
    } catch (const SimError &e) {
        ASSERT_EQ(e.kind(), SimErrorKind::Watchdog);
        ASSERT_FALSE(e.ckpt().empty());
        json::Value doc;
        ASSERT_TRUE(json::parse(e.ckpt(), doc));
        // The wedge is part of the machine state (fired flag or
        // pending event, not a re-armed plan), so a resume faithfully
        // reproduces the stall and trips the watchdog again instead
        // of silently dropping the fault.
        try {
            resumeExperiment(doc);
            FAIL() << "resumed run lost the wedge fault";
        } catch (const SimError &again) {
            EXPECT_EQ(again.kind(), SimErrorKind::Watchdog);
        }
    }
}

TEST(CheckpointResume, DroppedFootprintBlockFailsRestore)
{
    // A footprint's count is the size of its touched set, so restore
    // recounts the set instead of trusting the stored count: a
    // snapshot that lost one touched index must be refused.
    RunConfig cfg =
        smallConfig(SharingDegree::Shared4, SchedPolicy::Affinity);
    cfg.cycleDeadline = 8'000;
    cfg.ckptEveryCycles = 4'000;
    json::Value doc;
    try {
        runExperiment(cfg);
        FAIL() << "deadline did not trip";
    } catch (const SimError &e) {
        ASSERT_TRUE(json::parse(e.ckpt(), doc));
    }

    const check::Level saved_level = check::level();
    check::setLevel(check::Level::Basic); // asserts throw, not abort

    // Control: the untouched snapshot restores and runs to the end.
    EXPECT_NO_THROW(resumeExperiment(doc));

    const json::Value *vms = doc.find("vms");
    ASSERT_NE(vms, nullptr);
    json::Value edited = json::Value::array();
    for (std::size_t v = 0; v < vms->size(); ++v) {
        json::Value vm = vms->at(v);
        if (v == 0) {
            json::Value *fp = vm.find("footprint");
            ASSERT_NE(fp, nullptr);
            const json::Value *touched = fp->find("touched");
            ASSERT_GT(touched->size(), 1u);
            json::Value kept = json::Value::array();
            for (std::size_t i = 1; i < touched->size(); ++i)
                kept.push(touched->at(i));
            fp->set("touched", std::move(kept));
        }
        edited.push(std::move(vm));
    }
    doc.set("vms", std::move(edited));

    try {
        resumeExperiment(doc);
        ADD_FAILURE() << "restore accepted a dropped footprint block";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("footprint count"),
                  std::string::npos)
            << e.what();
    }
    check::setLevel(saved_level);
}

// ---------------------------------------------------------------- //
// Sweep retry ladder: resume first, reseed only after.              //
// ---------------------------------------------------------------- //

TEST(SweepRetry, ResumesFromPreTripSnapshotUnderConfiguredSeed)
{
    RunConfig cfg =
        smallConfig(SharingDegree::Shared4, SchedPolicy::Affinity);
    const RunResult full = runExperiment(cfg);

    RunConfig trip = cfg;
    trip.cycleDeadline = 18'000;
    trip.ckptEveryCycles = 6'000;
    SweepOptions opts;
    opts.jobs = 1;
    opts.maxRetries = 1;
    const std::vector<SweepRun> runs = runSweepEx({trip}, opts);
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_TRUE(runs[0].ok);
    EXPECT_EQ(runs[0].retries, 1);
    EXPECT_TRUE(runs[0].resumed);
    // Seed honesty: the resume kept the configured seed, so the
    // result answers the configured question...
    EXPECT_EQ(runs[0].effectiveSeed, trip.seed);
    // ...bit-for-bit: the salvaged point equals the uninterrupted
    // run of the same seed.
    EXPECT_EQ(runResultJson(cfg, runs[0].result).dump(2),
              runResultJson(cfg, full).dump(2));

    // And consim.sweep.v2 reports the recovery.
    const json::Value doc = sweepResultsJson({trip}, runs);
    const json::Value &p = doc.find("points")->at(0);
    EXPECT_TRUE(p.find("ok")->boolean());
    ASSERT_NE(p.find("effective_seed"), nullptr);
    EXPECT_EQ(p.find("effective_seed")->asUint(), trip.seed);
    ASSERT_NE(p.find("resumed"), nullptr);
    EXPECT_TRUE(p.find("resumed")->boolean());
}

TEST(SweepRetry, WithoutSnapshotsFallsBackToMutatedSeed)
{
    // No periodic snapshots: the deterministic wedge fails every
    // attempt, and the ladder's later rungs run under mutated seeds
    // (recorded faithfully even though they also fail).
    RunConfig cfg =
        smallConfig(SharingDegree::Shared4, SchedPolicy::Affinity);
    ASSERT_TRUE(
        FaultPlan::parse("wedge:core=0,at=15000", cfg.faults));
    cfg.watchdogIntervalCycles = 2'000;
    SweepOptions opts;
    opts.jobs = 1;
    opts.maxRetries = 1;
    const std::vector<SweepRun> runs = runSweepEx({cfg}, opts);
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_FALSE(runs[0].ok);
    EXPECT_FALSE(runs[0].resumed);
    EXPECT_EQ(runs[0].retries, opts.maxRetries);
    EXPECT_EQ(runs[0].errorKind, "watchdog");
    EXPECT_TRUE(runs[0].ckpt.empty());
}

// ---------------------------------------------------------------- //
// Averaged sweeps disclose how many seeds survived.                 //
// ---------------------------------------------------------------- //

TEST(SweepAveraged, PoisonedSeedGroupYieldsEmptyResultNotNan)
{
    RunConfig clean =
        smallConfig(SharingDegree::Shared4, SchedPolicy::Affinity);
    RunConfig poisoned = clean;
    ASSERT_TRUE(FaultPlan::parse("wedge:core=0,at=15000",
                                 poisoned.faults));
    poisoned.watchdogIntervalCycles = 2'000;

    const std::vector<std::uint64_t> seeds = {1, 2};
    SweepOptions opts;
    opts.jobs = 2;
    opts.maxRetries = 0;
    const auto results =
        runSweepAveraged({clean, poisoned}, seeds, opts);
    ASSERT_EQ(results.size(), 2u);

    // Clean config: both seeds averaged in, and the result says so.
    EXPECT_GT(results[0].vms.size(), 0u);
    EXPECT_EQ(results[0].seedsUsed, 2);
    for (const auto &vm : results[0].vms) {
        EXPECT_EQ(vm.cyclesPerTransaction, vm.cyclesPerTransaction)
            << "NaN leaked into an averaged metric";
    }

    // Fault-poisoned config: every seed failed; the salvage result is
    // a well-formed empty (no division by zero), marked as covering
    // zero seeds.
    EXPECT_EQ(results[1].vms.size(), 0u);
    EXPECT_EQ(results[1].seedsUsed, 0);
    EXPECT_EQ(results[1].netPackets, 0u);
    EXPECT_EQ(results[1].netAvgLatency, 0.0);

    // seeds_used reaches the JSON envelope only for averaged results.
    const json::Value ok_doc = runResultJson(clean, results[0]);
    ASSERT_NE(ok_doc.find("result")->find("seeds_used"), nullptr);
    EXPECT_EQ(
        ok_doc.find("result")->find("seeds_used")->asUint(), 2u);
    const RunResult single = runExperiment(clean);
    const json::Value single_doc = runResultJson(clean, single);
    EXPECT_EQ(single_doc.find("result")->find("seeds_used"), nullptr);
}

// ---------------------------------------------------------------- //
// Protocol-message codec.                                           //
// ---------------------------------------------------------------- //

TEST(CheckpointCodec, MsgRoundTrips)
{
    Msg m;
    m.type = MsgType::GetS;
    m.block = 0x12345678u;
    m.srcTile = 3;
    m.dstTile = 14;
    m.srcUnit = Unit::L1;
    m.dstUnit = Unit::Dir;
    m.reqCore = 3;
    m.reqBankTile = 9;
    m.reqGroup = 2;
    m.vm = 1;
    m.isWrite = true;
    m.dirtyData = true;
    m.c2cTransfer = true;
    m.ackCount = -2;
    m.injectCycle = 987654321u;
    Msg back;
    ckptLoad(back, ckptSave(m));
    EXPECT_EQ(back.type, m.type);
    EXPECT_EQ(back.block, m.block);
    EXPECT_EQ(back.srcTile, m.srcTile);
    EXPECT_EQ(back.dstTile, m.dstTile);
    EXPECT_EQ(back.srcUnit, m.srcUnit);
    EXPECT_EQ(back.dstUnit, m.dstUnit);
    EXPECT_EQ(back.reqCore, m.reqCore);
    EXPECT_EQ(back.reqBankTile, m.reqBankTile);
    EXPECT_EQ(back.reqGroup, m.reqGroup);
    EXPECT_EQ(back.vm, m.vm);
    EXPECT_EQ(back.isWrite, m.isWrite);
    EXPECT_EQ(back.dirtyData, m.dirtyData);
    EXPECT_EQ(back.c2cTransfer, m.c2cTransfer);
    EXPECT_EQ(back.ackCount, m.ackCount);
    EXPECT_EQ(back.injectCycle, m.injectCycle);
}

// ---------------------------------------------------------------- //
// Strict env parsing for the experiment defaults.                   //
// ---------------------------------------------------------------- //

namespace
{

/** Set an env var for one scope, restoring the old value on exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            old_ = old;
        ::setenv(name, value, 1);
    }
    ~ScopedEnv()
    {
        if (old_.empty())
            ::unsetenv(name_);
        else
            ::setenv(name_, old_.c_str(), 1);
    }

  private:
    const char *name_;
    std::string old_;
};

} // namespace

TEST(EnvDefaults, WellFormedValuesApply)
{
    {
        ScopedEnv e("CONSIM_WARMUP", "123456");
        EXPECT_EQ(defaultWarmupCycles(), 123456u);
    }
    {
        // Explicit 0 is meaningful (disable) for the watchdog.
        ScopedEnv e("CONSIM_WATCHDOG", "0");
        EXPECT_EQ(defaultWatchdogIntervalCycles(), 0u);
    }
    {
        ScopedEnv e("CONSIM_CKPT", "250000");
        EXPECT_EQ(defaultCheckpointIntervalCycles(), 250000u);
    }
    EXPECT_EQ(defaultCheckpointIntervalCycles(), 0u);
}

TEST(EnvDefaultsDeathTest, MalformedValuesAreFatal)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    {
        ScopedEnv e("CONSIM_WARMUP", "4m");
        EXPECT_EXIT(defaultWarmupCycles(),
                    ::testing::ExitedWithCode(1), "CONSIM_WARMUP");
    }
    {
        ScopedEnv e("CONSIM_MEASURE", "");
        EXPECT_EXIT(defaultMeasureCycles(),
                    ::testing::ExitedWithCode(1), "CONSIM_MEASURE");
    }
    {
        ScopedEnv e("CONSIM_WATCHDOG", "-5");
        EXPECT_EXIT(defaultWatchdogIntervalCycles(),
                    ::testing::ExitedWithCode(1), "CONSIM_WATCHDOG");
    }
    {
        ScopedEnv e("CONSIM_CKPT", "1e6");
        EXPECT_EXIT(defaultCheckpointIntervalCycles(),
                    ::testing::ExitedWithCode(1), "CONSIM_CKPT");
    }
}

TEST(EnvDefaultsDeathTest, ZeroWindowsAreFatal)
{
    // An empty window is never what the user meant, and silently
    // running the 4M/3M default instead would hide the typo.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    {
        ScopedEnv e("CONSIM_WARMUP", "0");
        EXPECT_EXIT(defaultWarmupCycles(),
                    ::testing::ExitedWithCode(1), "CONSIM_WARMUP=0");
    }
    {
        ScopedEnv e("CONSIM_MEASURE", "0");
        EXPECT_EXIT(defaultMeasureCycles(),
                    ::testing::ExitedWithCode(1), "CONSIM_MEASURE=0");
    }
}
