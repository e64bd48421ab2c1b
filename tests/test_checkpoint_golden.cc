/**
 * @file
 * `consim.ckpt.v5` byte-level contract: golden FNV-1a hashes of
 * snapshot text across configurations that together reach every
 * optional section of the document, save -> restore -> save
 * byte-identity on a freshly built System, and a table of every
 * restore-time refusal, each triggered by one edit of a valid
 * snapshot.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <regex>
#include <string>
#include <vector>

#include "common/check.hh"
#include "common/json.hh"
#include "core/experiment.hh"
#include "core/fault.hh"
#include "core/mix.hh"
#include "core/qos.hh"
#include "core/system.hh"
#include "fnv1a.hh"

namespace consim
{
namespace
{

/** The two-VM, 16-core point the resume tests use. */
RunConfig
meshConfig()
{
    RunConfig cfg = mixConfig(Mix::byName("Mix 1"), SchedPolicy::Affinity,
                              SharingDegree::Shared4);
    cfg.seed = 7;
    cfg.warmupCycles = 10'000;
    cfg.measureCycles = 20'000;
    cfg.watchdogIntervalCycles = 5'000;
    return cfg;
}

/** A dynamic-QoS bully run: repartitioner state and MC buckets. */
RunConfig
qosConfig()
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
    EXPECT_TRUE(QosConfig::parse(
        "dynamic:vm=0,ways=2,vcs=1,tokens=1,refill=512,epoch=10000",
        cfg.qos));
    return cfg;
}

/** Three 4-thread Bursty VMs under a migration policy. */
RunConfig
dynSchedConfig()
{
    RunConfig cfg;
    cfg.machine.sharing = sharingDegree(2);
    cfg.machine.l2TotalBytes = 2ull << 20;
    cfg.workloads = {WorkloadKind::Bursty, WorkloadKind::Bursty,
                     WorkloadKind::Bursty};
    cfg.vmThreads = {4, 4, 4};
    cfg.seed = 7;
    cfg.warmupCycles = 20'000;
    cfg.measureCycles = 60'000;
    EXPECT_TRUE(DynSchedConfig::parse("contention-aware,epoch=5000",
                                      cfg.dynSched));
    return cfg;
}

/** 24 threads on 16 cores: half the cores rotate two contexts. */
RunConfig
overCommitConfig()
{
    RunConfig cfg = meshConfig();
    cfg.vmThreads = {6, 6, 6, 6};
    cfg.timesliceCycles = 2'000;
    return cfg;
}

RunConfig
idealConfig()
{
    RunConfig cfg = meshConfig();
    cfg.machine.idealNoc = true;
    return cfg;
}

RunConfig
migrationConfig()
{
    RunConfig cfg = meshConfig();
    cfg.migrationIntervalCycles = 6'000;
    return cfg;
}

/** Every fault kind armed but not yet fired at the snapshot. */
RunConfig
faultConfig()
{
    RunConfig cfg = meshConfig();
    EXPECT_TRUE(FaultPlan::parse("memburst:at=15000,len=10000,extra=20;"
                                 "drop:nth=1000000;"
                                 "wedge:core=0,at=900000",
                                 cfg.faults));
    return cfg;
}

/** Run @p cfg into a cycle-deadline trip; @return the text of the
 *  latest snapshot attached to the trip. */
std::string
tripSnapshot(RunConfig cfg, Cycle deadline, Cycle every)
{
    cfg.cycleDeadline = deadline;
    cfg.ckptEveryCycles = every;
    try {
        runExperiment(cfg);
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Deadline) << e.what();
        return e.ckpt();
    }
    ADD_FAILURE() << "deadline did not trip";
    return {};
}

json::Value
parsed(const std::string &text)
{
    json::Value doc;
    std::string err;
    EXPECT_TRUE(json::parse(text, doc, &err)) << err;
    return doc;
}

/** A fresh System for @p doc, configured the way resumeExperiment
 *  configures one before restoring. */
struct Rebuilt
{
    ExperimentRig rig;
    std::unique_ptr<System> sys;
};

Rebuilt
rebuild(const json::Value &doc)
{
    const RunConfig cfg = configFromCheckpoint(doc);
    Rebuilt r;
    r.rig = buildExperimentRig(cfg);
    r.sys = std::make_unique<System>(cfg.machine, r.rig.vms,
                                     r.rig.placements);
    if (cfg.qos.enabled())
        r.sys->setQosConfig(cfg.qos);
    if (cfg.dynSched.enabled())
        r.sys->setDynSched(cfg.dynSched);
    return r;
}

const json::Value &
machineOf(const json::Value &doc)
{
    return *doc.find("machine");
}

/** @return true when any element of @p arr has member @p key. */
bool
anyHas(const json::Value &arr, const char *key)
{
    for (const json::Value &e : arr.items())
        if (e.find(key))
            return true;
    return false;
}

struct GoldenSnapshot
{
    const char *name;
    RunConfig cfg;
    Cycle deadline;
    Cycle every;
    /** The optional part of the document this point exists for. */
    std::function<bool(const json::Value &)> reaches;
    std::uint64_t hash;
};

std::vector<GoldenSnapshot>
goldenSnapshots()
{
    return {
        {"mesh", meshConfig(), 20'000, 6'000,
         [](const json::Value &d) {
             return machineOf(d).find("net")->find("kind")->str() ==
                    "mesh";
         },
         0xda8fd5e1b697dc0cull},
        {"ideal-noc", idealConfig(), 20'000, 6'000,
         [](const json::Value &d) {
             return machineOf(d).find("net")->find("kind")->str() ==
                    "ideal";
         },
         0x2a9d84498fb5033bull},
        {"dynamic-qos", qosConfig(), 40'000, 15'000,
         [](const json::Value &d) {
             return machineOf(d).find("qos") &&
                    anyHas(*machineOf(d).find("mcs"), "buckets");
         },
         0x906b65948d639feeull},
        {"dyn-sched", dynSchedConfig(), 60'000, 15'000,
         [](const json::Value &d) {
             const json::Value *dyn = machineOf(d).find("dyn_sched");
             return dyn && (dyn->find("eval") ||
                            anyHas(*machineOf(d).find("cores"),
                                   "rebind_vm"));
         },
         0x33d568356c6e0298ull},
        {"over-commit", overCommitConfig(), 20'000, 6'000,
         [](const json::Value &d) {
             return anyHas(*machineOf(d).find("cores"), "ctx_pos");
         },
         0x191fd3ea9807a47aull},
        {"migration", migrationConfig(), 20'000, 6'000,
         [](const json::Value &d) {
             return d.find("context")->find("mig_rng") != nullptr;
         },
         0x06291a81d990eb99ull},
        {"faults", faultConfig(), 20'000, 6'000,
         [](const json::Value &d) {
             const json::Value &f = *machineOf(d).find("faults");
             return f.find("drop_armed")->boolean() &&
                    f.find("memburst_armed")->boolean();
         },
         0x39b5fa3c48d313eaull},
    };
}

} // namespace

TEST(CheckpointGolden, SnapshotTextPinnedAndResavedByteIdentically)
{
    for (const GoldenSnapshot &g : goldenSnapshots()) {
        SCOPED_TRACE(g.name);
        const std::string text =
            tripSnapshot(g.cfg, g.deadline, g.every);
        ASSERT_FALSE(text.empty());
        const json::Value doc = parsed(text);
        EXPECT_TRUE(g.reaches(doc))
            << "snapshot misses the section this point exists for";
        EXPECT_EQ(fnv1a(text), g.hash)
            << "consim.ckpt.v5 text changed";

        // Restore into a fresh System and save again: same bytes.
        Rebuilt r = rebuild(doc);
        r.sys->restoreCheckpoint(doc);
        r.sys->setCheckpointContext(*doc.find("context"));
        EXPECT_EQ(r.sys->saveCheckpoint().dump(1), text);
    }
}

namespace
{

json::Value &
machineOf(json::Value &doc)
{
    return *doc.find("machine");
}

/** Drop the last element of array @p arr. */
void
dropLast(json::Value &arr)
{
    json::Value kept = json::Value::array();
    for (std::size_t i = 0; i + 1 < arr.size(); ++i)
        kept.push(arr.at(i));
    arr = std::move(kept);
}

/** @return the first element of @p arr that has member @p key. */
json::Value &
firstWith(json::Value &arr, const char *key)
{
    for (std::size_t i = 0; i < arr.size(); ++i)
        if (arr.at(i).find(key))
            return arr.at(i);
    ADD_FAILURE() << "no element with \"" << key << "\"";
    return arr.at(0);
}

struct Refusal
{
    const char *what;
    const json::Value *snapshot;
    std::function<void(json::Value &)> edit;
    /** ECMAScript pattern the refusal message must contain. */
    const char *message;
};

} // namespace

TEST(CheckpointRefusal, EachRestoreTimeCheckRefusesItsEditWithItsMessage)
{
    const json::Value mesh = parsed(tripSnapshot(meshConfig(), 20'000, 6'000));
    const json::Value over =
        parsed(tripSnapshot(overCommitConfig(), 20'000, 6'000));
    const json::Value qos = parsed(tripSnapshot(qosConfig(), 40'000, 15'000));
    const auto drop = [](const char *section) {
        return [section](json::Value &d) {
            dropLast(*machineOf(d).find(section));
        };
    };
    const Refusal refusals[] = {
        {"mesh geometry", &mesh,
         [](json::Value &d) {
             json::Value m = json::Value::array();
             m.push(8);
             m.push(2);
             machineOf(d).set("mesh", std::move(m));
         },
         "mesh geometry mismatch"},
        {"core count", &mesh, drop("cores"),
         "core count mismatch|\"cores\" count mismatch"},
        {"L1 count", &mesh, drop("l1s"),
         "L1 count mismatch|\"l1s\" count mismatch"},
        {"bank count", &mesh, drop("banks"),
         "bank count mismatch|\"banks\" count mismatch"},
        {"directory count", &mesh, drop("dirs"),
         "directory count mismatch|\"dirs\" count mismatch"},
        {"MC count", &mesh, drop("mcs"),
         "MC count mismatch|\"mcs\" count mismatch"},
        {"router count", &mesh,
         [](json::Value &d) {
             dropLast(*machineOf(d).find("net")->find("routers"));
         },
         "router count mismatch|\"routers\" count mismatch"},
        {"router VC layout", &mesh,
         [](json::Value &d) {
             dropLast(*machineOf(d)
                           .find("net")
                           ->find("routers")
                           ->at(0)
                           .find("inputs"));
         },
         "router VC layout mismatch|\"inputs\" count mismatch"},
        {"router packet counts", &mesh,
         [](json::Value &d) {
             json::Value &r =
                 machineOf(d).find("net")->find("routers")->at(5);
             r.set("buffered", r.find("buffered")->asUint() + 1);
         },
         "packet counts disagree with its queues"},
        {"ctx_pos out of range", &over,
         [](json::Value &d) {
             firstWith(*machineOf(d).find("cores"), "ctx_pos")
                 .set("ctx_pos", 99);
         },
         "ctx_pos 99 out of range"},
        {"MC bucket count", &qos,
         [](json::Value &d) {
             dropLast(*firstWith(*machineOf(d).find("mcs"), "buckets")
                           .find("buckets"));
         },
         "token-bucket count mismatch|\"buckets\" count mismatch"},
        {"qos section without QoS", &mesh,
         [](json::Value &d) {
             json::Value q = json::Value::object();
             q.set("dyn_ways", 2);
             q.set("last_miss_total", 0u);
             q.set("prev_delta", 0u);
             machineOf(d).set("qos", std::move(q));
         },
         "carries QoS runtime state"},
        {"dyn_sched section without dyn-sched", &mesh,
         [](json::Value &d) {
             machineOf(d).set("dyn_sched", json::Value::object());
         },
         "carries dynamic-scheduling runtime state"},
        {"bad message record", &mesh,
         [](json::Value &d) {
             json::Value &pending =
                 *machineOf(d).find("events")->find("pending");
             for (std::size_t i = 0; i < pending.size(); ++i) {
                 if (pending.at(i).size() == 7) {
                     dropLast(pending.at(i).at(6));
                     return;
                 }
             }
             ADD_FAILURE() << "no pending event carries a message";
         },
         "bad message record"},
        {"line slot out of range", &mesh,
         [](json::Value &d) {
             json::Value &lines = *machineOf(d)
                                       .find("l1s")
                                       ->at(0)
                                       .find("l1")
                                       ->find("lines");
             ASSERT_GT(lines.size(), 0u);
             lines.at(0).at(0) = json::Value(std::uint64_t{1} << 40);
         },
         "line slot out of range"},
    };

    const check::Level saved_level = check::level();
    check::setLevel(check::Level::Basic); // asserts throw, not abort
    for (const Refusal &r : refusals) {
        SCOPED_TRACE(r.what);
        json::Value doc = *r.snapshot;
        r.edit(doc);
        Rebuilt fresh = rebuild(doc);
        try {
            fresh.sys->restoreCheckpoint(doc);
            ADD_FAILURE() << "restore accepted the edited snapshot";
        } catch (const SimError &e) {
            EXPECT_TRUE(std::regex_search(e.what(), std::regex(r.message)))
                << e.what();
        }
    }

    // A System restores once: the loaders fill fresh, empty state.
    {
        SCOPED_TRACE("fresh System");
        Rebuilt used = rebuild(mesh);
        used.sys->restoreCheckpoint(mesh);
        try {
            used.sys->restoreCheckpoint(mesh);
            ADD_FAILURE() << "a second restore was accepted";
        } catch (const SimError &e) {
            EXPECT_NE(std::string(e.what()).find("needs a fresh System"),
                      std::string::npos)
                << e.what();
        }
    }
    check::setLevel(saved_level);
}

} // namespace consim
