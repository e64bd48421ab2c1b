/**
 * @file
 * Per-VM QoS / isolation tests: strict `--qos` spec parsing (and the
 * fault-catalog strictness it shares its error style with), the
 * way-restricted victim scan, router VC reservation admission, the
 * QoS guarantees under CONSIM_CHECK=full (way masks honoured, token
 * buckets conserved, unreserved VMs never starved), serial-vs-
 * parallel byte-identity of a bully run, and `consim.ckpt.v5`
 * round-tripping of the QoS runtime state.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/cache_array.hh"
#include "common/check.hh"
#include "common/json.hh"
#include "core/experiment.hh"
#include "core/fault.hh"
#include "core/qos.hh"
#include "core/report.hh"
#include "noc/router.hh"
#include "workload/profile.hh"

using namespace consim;

namespace
{

/** Pin the check level for one scope, restoring the old level. */
class ScopedCheckLevel
{
  public:
    explicit ScopedCheckLevel(check::Level l) : old_(check::level())
    {
        check::setLevel(l);
    }
    ~ScopedCheckLevel() { check::setLevel(old_); }

  private:
    check::Level old_;
};

/**
 * The isolation scenario the benches use, shrunk for test speed: a
 * protected SPECjbb VM plus three bully antagonists on a bandwidth-
 * constrained 16-core chip with a small (2 MB) LLC, so every QoS
 * mechanism (way masks, VC reservation, MC token buckets) actually
 * engages inside a short window.
 */
RunConfig
bullyConfig(const std::string &qos_spec)
{
    RunConfig cfg;
    cfg.machine.sharing = sharingDegree(16);
    cfg.machine.memIssueInterval = 96;
    cfg.machine.l2TotalBytes = 2ull << 20;
    cfg.workloads = {WorkloadKind::SpecJbb, WorkloadKind::Bully,
                     WorkloadKind::Bully, WorkloadKind::Bully};
    cfg.seed = 7;
    cfg.warmupCycles = 20'000;
    cfg.measureCycles = 60'000;
    if (!qos_spec.empty()) {
        QosConfig q;
        std::string err;
        EXPECT_TRUE(QosConfig::parse(qos_spec, q, &err)) << err;
        cfg.qos = q;
    }
    return cfg;
}

} // namespace

// ---------------------------------------------------------------- //
// Spec parsing: strict grammar, catalog-style errors.               //
// ---------------------------------------------------------------- //

TEST(QosParse, DefaultsAndRoundTrip)
{
    QosConfig q;
    EXPECT_FALSE(q.enabled());
    EXPECT_EQ(q.spec(), "off");

    std::string err;
    ASSERT_TRUE(QosConfig::parse("static:vm=0,ways=4", q, &err)) << err;
    EXPECT_TRUE(q.enabled());
    EXPECT_EQ(q.mode, QosMode::Static);
    EXPECT_EQ(q.protectedVm, 0);
    EXPECT_EQ(q.protectedWays, 4);
    EXPECT_EQ(q.reservedVcs, 1);   // defaults
    EXPECT_EQ(q.mcTokens, 8u);
    EXPECT_EQ(q.mcRefillCycles, 64u);

    // spec() is parseable back to an identical config.
    QosConfig q2;
    ASSERT_TRUE(QosConfig::parse(
        "dynamic:vm=2,ways=3,vcs=0,tokens=2,refill=128,epoch=5000", q,
        &err))
        << err;
    ASSERT_TRUE(QosConfig::parse(q.spec(), q2, &err)) << err;
    EXPECT_EQ(q.spec(), q2.spec());
    EXPECT_EQ(q.toJson().dump(), q2.toJson().dump());
    EXPECT_EQ(q2.epochCycles, 5000u);
    EXPECT_EQ(q2.reservedVcs, 0);

    ASSERT_TRUE(QosConfig::parse("off", q, &err)) << err;
    EXPECT_FALSE(q.enabled());
}

TEST(QosParse, RejectsMalformedSpecsWithGrammar)
{
    const struct
    {
        const char *spec;
        const char *expect;
    } bad[] = {
        {"banana:vm=0,ways=1", "unknown qos mode"},
        {"static:ways=4", "vm is required"},
        {"static:vm=0", "ways is required"},
        {"static:vm=0,ways=4,epoch=100",
         "epoch is only valid in dynamic mode"},
        {"static:vm=0,ways=4,foo=1", "unknown qos parameter 'foo'"},
        {"static:vm=0,ways=x", "bad number 'x' for ways"},
        {"off:vm=1", "takes no parameters"},
        {"static:vm=0,ways=0", "ways must be >= 1"},
        {"dynamic:vm=0,ways=2,epoch=0", "epoch must be >= 1"},
        {"static:vm=0,ways=4,tokens=0", "tokens must be >= 1"},
    };
    for (const auto &b : bad) {
        SCOPED_TRACE(b.spec);
        QosConfig q;
        std::string err;
        EXPECT_FALSE(QosConfig::parse(b.spec, q, &err));
        EXPECT_NE(err.find(b.expect), std::string::npos) << err;
        // Every rejection teaches the full grammar.
        EXPECT_NE(err.find("valid:"), std::string::npos) << err;
        EXPECT_NE(err.find("dynamic:vm=V"), std::string::npos) << err;
    }
}

// ---------------------------------------------------------------- //
// Fault-plan strictness (shares the catalog-error style).           //
// ---------------------------------------------------------------- //

TEST(FaultPlanStrict, RejectsUnknownKindsAndParameters)
{
    FaultPlan plan;
    std::string err;
    EXPECT_FALSE(FaultPlan::parse("drop:core=1", plan, &err));
    EXPECT_NE(err.find("drop does not take parameter 'core'"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("wedge:core=C,at=CYCLE"), std::string::npos)
        << err;

    EXPECT_FALSE(FaultPlan::parse("wedge", plan, &err));
    EXPECT_NE(err.find("wedge: missing parameter 'core'"),
              std::string::npos)
        << err;

    EXPECT_FALSE(
        FaultPlan::parse("wedge:core=1,at=5,core=2", plan, &err));
    EXPECT_NE(err.find("duplicate parameter 'core'"),
              std::string::npos)
        << err;

    EXPECT_FALSE(FaultPlan::parse("typo:nth=1", plan, &err));
    EXPECT_NE(err.find("unknown fault kind 'typo'"),
              std::string::npos)
        << err;

    // Well-formed plans still parse.
    EXPECT_TRUE(FaultPlan::parse("wedge:core=3,at=250000;drop:nth=800",
                                 plan, &err))
        << err;
    EXPECT_EQ(plan.events.size(), 2u);
}

// ---------------------------------------------------------------- //
// Way-restricted victim selection.                                  //
// ---------------------------------------------------------------- //

TEST(VictimInWays, RestrictsReplacementToMaskedWays)
{
    // One 8-way set is enough; two sets keep setIndex honest.
    CacheGeometry geom;
    geom.sizeBytes = static_cast<std::uint64_t>(blockBytes) * 16;
    geom.assoc = 8;
    CacheArray<CacheLineBase> array(geom);

    // Empty set: the first masked way wins, not way 0.
    CacheLineBase *slot = array.victimInWays(0, 0xF0);
    EXPECT_EQ(array.wayOf(0, slot), 4);

    // Fill the set with blocks 0, 2, 4, ... (set 0 of 2), touching in
    // install order so way 0 holds the globally-LRU line.
    for (int w = 0; w < 8; ++w) {
        CacheLineBase *v = array.victim(2 * w);
        array.install(v, 2 * w);
        EXPECT_EQ(array.wayOf(2 * w, v), w);
    }

    // Unrestricted: victimInWays(all ways) agrees with victim().
    EXPECT_EQ(array.victimInWays(16, 0xFF), array.victim(16));
    EXPECT_EQ(array.wayOf(16, array.victim(16)), 0);

    // Restricted to the high half: the masked LRU (way 4), even
    // though ways 0..3 hold strictly older lines.
    slot = array.victimInWays(16, 0xF0);
    EXPECT_EQ(array.wayOf(16, slot), 4);

    // Refresh way 4; the masked LRU moves to way 5.
    array.touch(array.lookup(2 * 4));
    slot = array.victimInWays(16, 0xF0);
    EXPECT_EQ(array.wayOf(16, slot), 5);

    // A single-way mask is a direct-mapped partition.
    slot = array.victimInWays(16, 1u << 7);
    EXPECT_EQ(array.wayOf(16, slot), 7);

    // An empty mask is a wiring bug: recoverable invariant failure.
    ScopedCheckLevel lvl(check::Level::Basic);
    EXPECT_THROW(array.victimInWays(16, 0), SimError);
}

// ---------------------------------------------------------------- //
// Router VC reservation admission.                                  //
// ---------------------------------------------------------------- //

TEST(RouterQos, ReservedVcsAdmitOnlyTheProtectedVm)
{
    NocParams params; // 3 vnets x 2 VCs, 8-flit buffers
    NetworkStats stats;
    MeshShared shared(1, params);
    Router router(0, params, &stats, &shared);
    router.setQos(0, 1);

    // Unprotected traffic is confined to the shared VC 0 of its vnet.
    int vc = -1;
    ASSERT_TRUE(router.canAccept(PortLocal, 0, 1, 1, &vc));
    EXPECT_EQ(vc, 0);
    // The protected VM prefers its reserved VC 1.
    ASSERT_TRUE(router.canAccept(PortLocal, 0, 1, 0, &vc));
    EXPECT_EQ(vc, 1);

    // Fill the shared VC: unprotected traffic has nowhere to go (it
    // must NOT spill into the reservation) while the protected VM
    // still gets in.
    router.reserve(PortLocal, 0, params.vcBufferFlits);
    EXPECT_FALSE(router.canAccept(PortLocal, 0, 1, 1, nullptr));
    ASSERT_TRUE(router.canAccept(PortLocal, 0, 1, 0, &vc));
    EXPECT_EQ(vc, 1);

    // Other vnets are unaffected by vnet 0's congestion.
    ASSERT_TRUE(router.canAccept(PortLocal, 1, 1, 1, &vc));
    EXPECT_EQ(vc, params.vcsPerVnet);

    // Fill the reservation too: the protected VM falls back to the
    // shared VCs (here full), so it reports no space rather than
    // claiming an over-full VC.
    router.reserve(PortLocal, 1, params.vcBufferFlits);
    EXPECT_FALSE(router.canAccept(PortLocal, 0, 1, 0, nullptr));

    // Zero reservation restores the original first-fit scan exactly:
    // every VM may use every VC.
    Router plain(0, params, &stats, &shared);
    plain.setQos(invalidVm, 0);
    ASSERT_TRUE(plain.canAccept(PortLocal, 0, 1, 1, &vc));
    EXPECT_EQ(vc, 0);
    plain.reserve(PortLocal, 0, params.vcBufferFlits);
    ASSERT_TRUE(plain.canAccept(PortLocal, 0, 1, 1, &vc));
    EXPECT_EQ(vc, 1);
}

// ---------------------------------------------------------------- //
// QoS guarantees under CONSIM_CHECK=full.                           //
// ---------------------------------------------------------------- //

TEST(QosGuarantees, FullCheckBullyRunHoldsEveryInvariant)
{
    // CONSIM_CHECK=full arms the L2 fill-time way-mask audit and the
    // MC token-conservation audit on every event, plus the window-
    // boundary coherence/NoC audits. A clean run IS the assertion
    // that no fill ever violated its VM's way mask and no bucket
    // over-issued its window.
    ScopedCheckLevel lvl(check::Level::Full);
    RunConfig cfg =
        bullyConfig("static:vm=0,ways=2,vcs=1,tokens=1,refill=512");
    // Long enough for the protected VM to retire whole 400-ref
    // transactions under the constrained memory system.
    cfg.measureCycles = 200'000;
    const RunResult r = runExperiment(cfg);
    ASSERT_EQ(r.vms.size(), 4u);

    // Token buckets throttle the bullies, never the protected VM.
    EXPECT_EQ(r.vms[0].mcThrottleStalls, 0u);
    std::uint64_t bully_stalls = 0;
    for (std::size_t v = 1; v < r.vms.size(); ++v)
        bully_stalls += r.vms[v].mcThrottleStalls;
    EXPECT_GT(bully_stalls, 0u);

    // VC reservation + throttling never starve the unreserved VMs:
    // every bully keeps retiring instructions and missing into the
    // LLC it is (mostly) masked out of. (A throttled bully completes
    // few whole 1000-ref transactions in this short window, so
    // forward progress — not transaction count — is the guarantee.)
    for (std::size_t v = 1; v < r.vms.size(); ++v) {
        SCOPED_TRACE(v);
        EXPECT_GT(r.vms[v].instructions, 0u);
        EXPECT_GT(r.vms[v].l2Misses, 0u);
    }
    EXPECT_GT(r.vms[0].transactions, 0u);
}

TEST(QosGuarantees, DynamicRepartitionerStaysWithinBounds)
{
    // The dynamic mode must also survive full checking (masks move at
    // epoch boundaries), and the metrics flow into the run result the
    // same way.
    ScopedCheckLevel lvl(check::Level::Full);
    const RunConfig cfg = bullyConfig(
        "dynamic:vm=0,ways=2,vcs=1,tokens=1,refill=512,epoch=10000");
    const RunResult r = runExperiment(cfg);
    ASSERT_EQ(r.vms.size(), 4u);
    EXPECT_EQ(r.vms[0].mcThrottleStalls, 0u);
    for (std::size_t v = 1; v < r.vms.size(); ++v)
        EXPECT_GT(r.vms[v].instructions, 0u);
}

// ---------------------------------------------------------------- //
// Envelope stability and conditional QoS reporting.                 //
// ---------------------------------------------------------------- //

TEST(QosEnvelope, QosFieldsAppearOnlyWhenEnabled)
{
    const RunConfig off = bullyConfig("");
    const RunResult r_off = runExperiment(off);
    const json::Value doc_off = runResultJson(off, r_off);
    EXPECT_EQ(doc_off.find("config")->find("qos"), nullptr);
    for (std::size_t v = 0; v < r_off.vms.size(); ++v) {
        EXPECT_EQ(doc_off.find("result")
                      ->find("vms")
                      ->at(v)
                      .find("mc_throttle_stalls"),
                  nullptr);
    }

    const RunConfig on =
        bullyConfig("static:vm=0,ways=2,vcs=1,tokens=1,refill=512");
    const RunResult r_on = runExperiment(on);
    const json::Value doc_on = runResultJson(on, r_on);
    const json::Value *qos = doc_on.find("config")->find("qos");
    ASSERT_NE(qos, nullptr);
    EXPECT_EQ(qos->find("mode")->str(), "static");
    // At least one bully reports its throttle stalls.
    bool any = false;
    for (std::size_t v = 1; v < r_on.vms.size(); ++v) {
        if (doc_on.find("result")
                ->find("vms")
                ->at(v)
                .find("mc_throttle_stalls"))
            any = true;
    }
    EXPECT_TRUE(any);
}

// ---------------------------------------------------------------- //
// Parallel-engine byte-identity with QoS enabled.                   //
// ---------------------------------------------------------------- //

TEST(QosParallelRun, BullyRunByteIdenticalAcrossRunJobs)
{
    // QoS epochs are service points: both engines must land the
    // repartitioner on the same absolute cycles, and the MC buckets
    // must fill identically, for the envelopes to match bit-for-bit.
    RunConfig cfg = bullyConfig(
        "dynamic:vm=0,ways=2,vcs=1,tokens=1,refill=512,epoch=10000");
    cfg.runJobs = 1;
    const std::string serial =
        runResultJson(cfg, runExperiment(cfg)).dump(2);
    for (const int jobs : {2, 5}) {
        SCOPED_TRACE(jobs);
        RunConfig par = cfg;
        par.runJobs = jobs;
        // The config echo never includes runJobs, so dumps are equal
        // iff every result bit matches.
        EXPECT_EQ(runResultJson(cfg, runExperiment(par)).dump(2),
                  serial);
    }
}

// ---------------------------------------------------------------- //
// consim.ckpt.v5: QoS runtime state round-trips.                    //
// ---------------------------------------------------------------- //

TEST(QosCheckpoint, V4RoundTripsBucketAndRepartitionerState)
{
    // Trip a dynamic-QoS bully run mid-measurement and resume the
    // attached snapshot: the restored run re-creates the token-bucket
    // windows and the repartitioner's dyn_ways/miss-curve samples, so
    // the envelope must be byte-identical to the uninterrupted run.
    const RunConfig cfg = bullyConfig(
        "dynamic:vm=0,ways=2,vcs=1,tokens=1,refill=512,epoch=10000");
    const std::string full =
        runResultJson(cfg, runExperiment(cfg)).dump(2);

    RunConfig trip = cfg;
    trip.cycleDeadline = 60'000; // mid-measure (warmup 20k + 60k of 80k)
    trip.ckptEveryCycles = 15'000;
    try {
        runExperiment(trip);
        FAIL() << "deadline did not trip";
    } catch (const SimError &e) {
        ASSERT_EQ(e.kind(), SimErrorKind::Deadline);
        ASSERT_FALSE(e.ckpt().empty());
        json::Value doc;
        std::string err;
        ASSERT_TRUE(json::parse(e.ckpt(), doc, &err)) << err;
        EXPECT_EQ(doc.find("schema")->str(), "consim.ckpt.v5");
        // The snapshot carries the QoS machine section and the
        // per-MC bucket arrays.
        ASSERT_NE(doc.find("machine"), nullptr);
        EXPECT_NE(doc.find("machine")->find("qos"), nullptr);
        // The embedded config echoes the qos spec.
        const RunConfig echoed = configFromCheckpoint(doc);
        EXPECT_EQ(echoed.qos.spec(), cfg.qos.spec());
        const RunResult resumed = resumeExperiment(doc);
        EXPECT_EQ(runResultJson(cfg, resumed).dump(2), full);
    }
}

TEST(QosCheckpointDeathTest, V3RefusedWithQosExplanation)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // v3 snapshots predate the QoS runtime state (MC token buckets,
    // repartitioner way allocation); the refusal must say so.
    json::Value v3 = json::Value::object();
    v3.set("schema", "consim.ckpt.v3");
    EXPECT_DEATH(resumeExperiment(v3), "lack the QoS runtime state");
}
