/**
 * @file
 * Tests of the golden-vs-faulty experiment harness.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "apps/app.hh"
#include "core/experiment.hh"
#include "traffic/traffic.hh"

using namespace clumsy;
using namespace clumsy::core;

namespace
{

using Frame = std::vector<std::pair<std::string, std::uint64_t>>;

/**
 * The per-key grouping comparison exactly as ValueRecorder computed it
 * for every packet before the equal-frame shortcut: the reference the
 * recorder's answer must match in content and order.
 */
std::vector<std::string>
referenceCompare(const Frame &a, const Frame &b)
{
    auto group = [](const Frame &frame) {
        std::map<std::string, std::vector<std::uint64_t>> m;
        for (const auto &kv : frame)
            m[kv.first].push_back(kv.second);
        return m;
    };
    const auto mine = group(a);
    const auto theirs = group(b);
    std::vector<std::string> mismatched;
    for (const auto &kv : mine) {
        auto it = theirs.find(kv.first);
        if (it == theirs.end() || it->second != kv.second)
            mismatched.push_back(kv.first);
    }
    for (const auto &kv : theirs) {
        if (!mine.count(kv.first))
            mismatched.push_back(kv.first);
    }
    return mismatched;
}

/** A random frame over a small key alphabet (so keys repeat). */
Frame
randomFrame(std::mt19937_64 &rng)
{
    static const char *const kKeys[] = {
        "x", "ttl", "checksum", "radix_path", "session_evicted"};
    Frame f(rng() % 9);
    for (auto &kv : f) {
        kv.first = kKeys[rng() % std::size(kKeys)];
        kv.second = rng() % 4; // small values: accidental equality too
    }
    return f;
}

/** @p f perturbed the ways a faulty run's frame can differ. */
Frame
mutate(Frame f, std::mt19937_64 &rng)
{
    switch (rng() % 7) {
      case 0: // identical: the common case
        break;
      case 1: // reordered across keys (per-key order may survive)
        std::shuffle(f.begin(), f.end(), rng);
        break;
      case 2: // a mark repeated
        if (!f.empty())
            f.insert(f.begin() + static_cast<std::ptrdiff_t>(
                                     rng() % f.size()),
                     f[rng() % f.size()]);
        break;
      case 3: // a mark missing (shorter frame)
        if (!f.empty())
            f.erase(f.begin() +
                    static_cast<std::ptrdiff_t>(rng() % f.size()));
        break;
      case 4: // a value corrupted
        if (!f.empty())
            f[rng() % f.size()].second ^= 1 + rng() % 3;
        break;
      case 5: // an extra mark (longer frame, maybe a new key)
        f.emplace_back(rng() % 2 ? "extra" : "x", rng() % 4);
        break;
      case 6: // unrelated frame
        f = randomFrame(rng);
        break;
    }
    return f;
}

/**
 * The marks of one run (golden, or faulty trial @p trial) as the
 * harness makes them, recorded in @p mode: the same processor, fault
 * planes and trace as runGolden() / runFaultyTrial(), stopping at the
 * first fatal.
 */
ValueRecorder
recordRun(const AppFactory &factory, const ExperimentConfig &config,
          bool golden, unsigned trial, ValueRecorder::Mode mode)
{
    ValueRecorder rec(mode);
    auto app = factory();
    ClumsyProcessor proc(makeRunProcessorConfig(config, golden, trial));
    proc.setInjectionEnabled(!golden &&
                             config.plane != FaultPlane::DataOnly);
    app->initialize(proc);
    const auto src =
        traffic::makeSource(resolveTraceConfig(config, *app), 0);
    proc.setInjectionEnabled(!golden &&
                             config.plane != FaultPlane::ControlOnly);
    net::Packet pkt;
    for (std::uint64_t i = 0;
         i < config.numPackets && !proc.fatalOccurred(); ++i) {
        src->nextInto(pkt);
        proc.beginPacket();
        rec.beginPacket();
        app->processPacket(proc, pkt, rec);
        if (proc.fatalOccurred())
            break;
        proc.endPacket();
    }
    return rec;
}

} // namespace

TEST(ValueRecorder, ComparesByKeyedSequences)
{
    ValueRecorder a, b;
    a.beginPacket();
    a.record("x", 1);
    a.record("x", 2);
    a.record("y", 9);
    b.beginPacket();
    b.record("y", 9);
    b.record("x", 1);
    b.record("x", 2);
    // Inter-key order is irrelevant; per-key sequences must match.
    EXPECT_TRUE(a.comparePacket(0, b).empty());
}

TEST(ValueRecorder, DetectsValueAndShapeMismatches)
{
    ValueRecorder a, b;
    a.beginPacket();
    a.record("x", 1);
    a.record("z", 3);
    b.beginPacket();
    b.record("x", 2);     // wrong value
    b.record("extra", 1); // key a lacks
    const auto bad = a.comparePacket(0, b);
    EXPECT_EQ(bad.size(), 3u); // x, z (missing), extra (unexpected)
}

TEST(ValueRecorder, PerKeyOrderMatters)
{
    ValueRecorder a, b;
    a.beginPacket();
    a.record("x", 1);
    a.record("x", 2);
    b.beginPacket();
    b.record("x", 2);
    b.record("x", 1);
    EXPECT_FALSE(a.comparePacket(0, b).empty());
}

/**
 * The equal-frame shortcut and the flat frame log answer exactly what
 * the per-key grouping did, in content and order: random frame pairs
 * with reordered, repeated, missing and corrupted marks and length
 * mismatches, stored at different frame indices in the two recorders
 * so frame boundaries in the flat log are exercised too.
 */
TEST(ValueRecorder, CompareMatchesPerKeyGroupingReference)
{
    std::mt19937_64 rng(20041204);
    ValueRecorder mine, theirs;
    std::vector<Frame> myFrames, theirFrames;
    std::vector<std::size_t> theirIndex; ///< my frame i -> their frame
    for (unsigned i = 0; i < 3000; ++i) {
        // Interleave unrelated frames on the other side so the paired
        // frames sit at different indices.
        if (rng() % 3 == 0) {
            theirFrames.push_back(randomFrame(rng));
            theirs.beginPacket();
            for (const auto &[key, value] : theirFrames.back())
                theirs.record(key, value);
        }
        myFrames.push_back(randomFrame(rng));
        theirFrames.push_back(mutate(myFrames.back(), rng));
        theirIndex.push_back(theirFrames.size() - 1);
        mine.beginPacket();
        for (const auto &[key, value] : myFrames.back())
            mine.record(key.c_str(), value); // the literal-key overload
        theirs.beginPacket();
        for (const auto &[key, value] : theirFrames.back())
            theirs.record(key, value);
    }
    unsigned equal = 0, differing = 0;
    for (std::size_t i = 0; i < myFrames.size(); ++i) {
        const std::size_t j = theirIndex[i];
        const auto want = referenceCompare(myFrames[i], theirFrames[j]);
        ASSERT_EQ(mine.comparePacket(i, theirs, j), want) << "frame " << i;
        ASSERT_EQ(theirs.comparePacket(j, mine, i),
                  referenceCompare(theirFrames[j], myFrames[i]))
            << "frame " << i;
        (want.empty() ? equal : differing) += 1;
    }
    // Both outcomes are well represented.
    EXPECT_GT(equal, 500u);
    EXPECT_GT(differing, 500u);
    // The one-index form compares frame i with frame i.
    for (std::size_t i = 0; i < 50; ++i)
        EXPECT_EQ(mine.comparePacket(i, theirs),
                  referenceCompare(myFrames[i], theirFrames[i]));
}

/**
 * A Full-mode recorder keeps (key id, value) marks and folds them into
 * the digest only when asked; the fold must give the digest a
 * Digest-mode recorder accumulates as it records. Checked on a golden
 * run and a faulty trial of every app, and on seeded random frames
 * whose keys arrive through the std::string overload, through c_str()
 * of strings that later move, and through one buffer whose text
 * changes under a fixed pointer.
 */
TEST(ValueRecorder, FullDigestMatchesDigestMode)
{
    std::vector<std::string> names = apps::allAppNames();
    for (const std::string &ext : apps::extensionAppNames())
        names.push_back(ext);
    ASSERT_EQ(names.size(), 10u);
    unsigned diverged = 0;
    for (const std::string &app : names) {
        const AppFactory factory = apps::appFactory(app);
        ExperimentConfig cfg;
        cfg.numPackets = 120;
        cfg.cr = 0.25;
        cfg.scheme = mem::RecoveryScheme::NoDetection;
        cfg.faultScale = 30.0;
        const GoldenRecord golden = runGolden(factory, cfg);
        const ValueRecorder full =
            recordRun(factory, cfg, true, 0, ValueRecorder::Mode::Full);
        const ValueRecorder digest =
            recordRun(factory, cfg, true, 0, ValueRecorder::Mode::Digest);
        EXPECT_EQ(full.digest(), digest.digest()) << app;
        EXPECT_EQ(golden.recorder.digest(), digest.digest()) << app;
        EXPECT_EQ(digest.packetCount(), cfg.numPackets) << app;

        const ValueRecorder trialFull =
            recordRun(factory, cfg, false, 1, ValueRecorder::Mode::Full);
        const ValueRecorder trialDigest =
            recordRun(factory, cfg, false, 1, ValueRecorder::Mode::Digest);
        EXPECT_EQ(trialFull.packetCount(), trialDigest.packetCount())
            << app;
        EXPECT_EQ(trialFull.digest(), trialDigest.digest()) << app;
        diverged += trialDigest.digest() != digest.digest();
    }
    EXPECT_GT(diverged, 5u); // the trials' faults reach the marks

    std::mt19937_64 rng(20261020);
    ValueRecorder full, byString;
    ValueRecorder digest(ValueRecorder::Mode::Digest);
    std::vector<std::string> owned; // grows: earlier c_str()s move
    std::string buffer;             // one pointer, changing text
    std::vector<Frame> frames;
    for (unsigned i = 0; i < 2000; ++i) {
        Frame f = randomFrame(rng);
        // Keys past the small-string buffer too.
        if (rng() % 4 == 0)
            f.emplace_back("a_key_longer_than_fifteen_chars", rng() % 4);
        full.beginPacket();
        byString.beginPacket();
        digest.beginPacket();
        for (const auto &[key, value] : f) {
            switch (rng() % 3) {
              case 0:
                full.record(key, value);
                break;
              case 1:
                owned.push_back(key);
                full.record(owned.back().c_str(), value);
                break;
              case 2:
                buffer = key;
                full.record(buffer.c_str(), value);
                break;
            }
            byString.record(key, value);
            digest.record(key.c_str(), value);
        }
        frames.push_back(std::move(f));
    }
    EXPECT_EQ(full.digest(), digest.digest());
    EXPECT_EQ(byString.digest(), digest.digest());
    for (std::size_t i = 0; i < frames.size(); ++i)
        ASSERT_TRUE(full.comparePacket(i, byString).empty()) << i;

    // A moved frame boundary moves the digest.
    ValueRecorder shifted;
    for (std::size_t i = 0; i < frames.size(); ++i) {
        if (i != 7)
            shifted.beginPacket();
        for (const auto &[key, value] : frames[i])
            shifted.record(key, value);
    }
    EXPECT_NE(shifted.digest(), full.digest());
}

TEST(Experiment, ZeroFaultScaleYieldsNoErrors)
{
    ExperimentConfig cfg;
    cfg.numPackets = 60;
    cfg.faultScale = 0.0;
    cfg.cr = 0.25;
    const auto res = runExperiment(apps::appFactory("route"), cfg);
    EXPECT_EQ(res.anyErrorProb, 0.0);
    EXPECT_EQ(res.fatalProb, 0.0);
    EXPECT_DOUBLE_EQ(res.fallibility, 1.0);
    EXPECT_EQ(res.faulty.faultsInjected, 0u);
}

TEST(Experiment, BoostedFaultsProduceErrors)
{
    ExperimentConfig cfg;
    cfg.numPackets = 120;
    cfg.faultScale = 400.0;
    cfg.cr = 0.25;
    const auto res = runExperiment(apps::appFactory("crc"), cfg);
    EXPECT_GT(res.faulty.faultsInjected, 0u);
    EXPECT_GT(res.anyErrorProb, 0.0);
    EXPECT_GT(res.fallibility, 1.0);
    EXPECT_FALSE(res.errorProbByType.empty());
    EXPECT_GT(res.errorProbByType.count("crc_accum"), 0u);
}

TEST(Experiment, ControlPlaneGatingLimitsInjection)
{
    // With faults confined to the control plane, the per-packet data
    // path must stay untouched after initialization completes.
    ExperimentConfig cfg;
    cfg.numPackets = 50;
    cfg.plane = FaultPlane::ControlOnly;
    cfg.faultScale = 50.0;
    cfg.cr = 0.25;
    const auto res = runExperiment(apps::appFactory("crc"), cfg);
    // crc's control plane builds the 256-entry table; the injector
    // must have been disabled for the (much larger) data plane.
    const auto controlAccesses = 256 * 2; // rough upper bound scale
    EXPECT_LT(res.faulty.faultsInjected + 1,
              static_cast<std::uint64_t>(controlAccesses));
}

TEST(Experiment, DataPlaneOnlyLeavesInitClean)
{
    ExperimentConfig cfg;
    cfg.numPackets = 40;
    cfg.plane = FaultPlane::DataOnly;
    cfg.faultScale = 1000.0;
    cfg.cr = 0.25;
    const auto res = runExperiment(apps::appFactory("route"), cfg);
    // Initialization errors require init-time corruption... which can
    // still appear via later writebacks; but the route table audit of
    // untouched entries must dominate toward zero.
    EXPECT_GE(res.anyErrorProb, 0.0); // harness ran
    EXPECT_GT(res.faulty.faultsInjected, 0u);
}

TEST(Experiment, GoldenMetricsPopulated)
{
    ExperimentConfig cfg;
    cfg.numPackets = 30;
    const auto res = runExperiment(apps::appFactory("tl"), cfg);
    EXPECT_EQ(res.app, "tl");
    EXPECT_EQ(res.golden.packetsProcessed, 30u);
    EXPECT_GT(res.golden.instructions, 0u);
    EXPECT_GT(res.golden.dcacheAccesses, 0u);
    EXPECT_GT(res.golden.cyclesPerPacket, 0.0);
    EXPECT_GT(res.golden.energyPerPacketPj, 0.0);
    EXPECT_FALSE(res.golden.fatal);
}

TEST(Experiment, TrialsAverage)
{
    ExperimentConfig cfg;
    cfg.numPackets = 40;
    cfg.trials = 3;
    cfg.faultScale = 100.0;
    cfg.cr = 0.25;
    const auto res = runExperiment(apps::appFactory("md5"), cfg);
    EXPECT_GE(res.fallibility, 1.0);
    EXPECT_LE(res.anyErrorProb, 1.0);
}

TEST(Experiment, TraceSeedChangesWorkload)
{
    ExperimentConfig a, b;
    a.numPackets = b.numPackets = 25;
    a.traceSeed = 1;
    b.traceSeed = 2;
    const auto ra = runExperiment(apps::appFactory("crc"), a);
    const auto rb = runExperiment(apps::appFactory("crc"), b);
    EXPECT_NE(ra.golden.dcacheAccesses, rb.golden.dcacheAccesses);
}

TEST(Experiment, DynamicFlagBuildsController)
{
    ExperimentConfig cfg;
    cfg.numPackets = 250;
    cfg.dynamicFrequency = true;
    cfg.scheme = mem::RecoveryScheme::TwoStrike;
    const auto res = runExperiment(apps::appFactory("route"), cfg);
    // Quiet runs push the controller to faster levels (switches > 0).
    EXPECT_GT(res.faulty.freqSwitches, 0u);
}

TEST(Experiment, FaultPlaneNames)
{
    EXPECT_EQ(to_string(FaultPlane::ControlOnly), "control plane");
    EXPECT_EQ(to_string(FaultPlane::DataOnly), "data plane");
    EXPECT_EQ(to_string(FaultPlane::Both), "both planes");
}
