/**
 * @file
 * Tests of the streaming traffic subsystem (src/traffic/): the
 * PacketSource contract, trace recording and replay, churn
 * determinism, the statistical shape of the churn model (Zipf
 * rank-frequency, Pareto burst tail, geometric lifetimes), the O(1)-memory digest recorder, the streaming chip
 * harness, and the flows=/churn= sweep axes.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "apps/app.hh"
#include "apps/session.hh"
#include "common/random.hh"
#include "core/experiment.hh"
#include "npu/chip.hh"
#include "npu/config.hh"
#include "sweep/sink.hh"
#include "sweep/spec.hh"
#include "traffic/traffic.hh"

using namespace clumsy;

namespace
{

net::TraceConfig
churnyConfig(std::uint32_t flows = 64, double lifetime = 256.0)
{
    net::TraceConfig tc;
    tc.numFlows = flows;
    tc.churn.enabled = true;
    tc.churn.meanLifetimePackets = lifetime;
    return tc;
}

/** Least-squares slope of log(y) against log(x). */
double
logLogSlope(const std::vector<double> &x, const std::vector<double> &y)
{
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    const double n = static_cast<double>(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double lx = std::log(x[i]);
        const double ly = std::log(y[i]);
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

/** One drawn packet and its arrival time. */
struct Drawn
{
    net::Packet pkt;
    std::int64_t arrival;
};

/** The next @p n packets of @p src, each drawn into a fresh packet. */
std::vector<Drawn>
drawN(traffic::PacketSource &src, int n)
{
    std::vector<Drawn> out;
    for (int i = 0; i < n; ++i) {
        net::Packet pkt = src.next();
        out.push_back({std::move(pkt), src.lastArrivalCycles()});
    }
    return out;
}

void
expectSame(const std::vector<Drawn> &a, const std::vector<Drawn> &b,
           const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].pkt.seq, b[i].pkt.seq) << what << " #" << i;
        ASSERT_EQ(a[i].pkt.ip.toBytes(), b[i].pkt.ip.toBytes())
            << what << " #" << i;
        ASSERT_EQ(a[i].pkt.srcPort, b[i].pkt.srcPort) << what;
        ASSERT_EQ(a[i].pkt.dstPort, b[i].pkt.dstPort) << what;
        ASSERT_EQ(a[i].pkt.payload, b[i].pkt.payload) << what;
        ASSERT_EQ(a[i].arrival, b[i].arrival) << what << " #" << i;
    }
}

/**
 * Trace shapes every source test covers: the static model (plain and
 * HTTP payloads) and a churn model with a ramp and long OFF gaps.
 */
std::vector<std::pair<const char *, net::TraceConfig>>
sourceCases()
{
    net::TraceConfig http;
    http.httpPayloads = true;
    net::TraceConfig churn = churnyConfig(32, 24.0);
    churn.churn.rampPackets = 600;
    churn.churn.rampStartFactor = 5.0;
    churn.churn.minBurst = 2;
    churn.churn.offGapFactor = 9.0;
    return {{"static", net::TraceConfig{}},
            {"static http", http},
            {"churn", churn}};
}

} // namespace

TEST(PacketSource, StaticStreamMatchesBatchGenerate)
{
    // The streaming source must be bit-identical to the test-only
    // batch generate() — that equality is what lets every pre-churn
    // golden trace replay unchanged through the new harness path.
    net::TraceConfig tc;
    net::TraceGenerator batch(tc);
    const auto want = batch.generate(500);

    traffic::StaticSource src(tc, 12);
    for (std::uint64_t i = 0; i < 500; ++i) {
        const net::Packet got = src.next();
        EXPECT_EQ(got.seq, want[i].seq);
        EXPECT_EQ(got.ip.src, want[i].ip.src);
        EXPECT_EQ(got.ip.dst, want[i].ip.dst);
        EXPECT_EQ(got.payload, want[i].payload);
        EXPECT_EQ(src.lastArrivalCycles(),
                  static_cast<std::int64_t>(i) * 12);
    }
}

/**
 * nextInto() over one reused packet replays next()'s stream field for
 * field — static and churn models, random and HTTP payloads — so the
 * harness loops and the line card's split may redraw in place. The
 * reused packet starts dirty (a long payload, odd header fields) to
 * catch any field the in-place draw forgets to overwrite.
 */
TEST(PacketSource, InPlaceDrawsMatchByValueStream)
{
    for (const bool churn : {false, true}) {
        for (const bool http : {false, true}) {
            net::TraceConfig tc = churn ? churnyConfig() : net::TraceConfig{};
            tc.httpPayloads = http;
            const auto byValue = traffic::makeSource(tc, 7);
            const auto inPlace = traffic::makeSource(tc, 7);
            net::Packet pkt;
            pkt.ip.tos = 0x5a;
            pkt.ip.fragOff = 0x1234;
            pkt.ip.ihl = 9;
            pkt.payload.assign(2048, 0xee);
            for (int i = 0; i < 2000; ++i) {
                const net::Packet want = byValue->next();
                inPlace->nextInto(pkt);
                ASSERT_EQ(pkt.seq, want.seq);
                ASSERT_EQ(pkt.ip.toBytes(), want.ip.toBytes())
                    << "churn " << churn << " http " << http << " #" << i;
                ASSERT_EQ(pkt.srcPort, want.srcPort);
                ASSERT_EQ(pkt.dstPort, want.dstPort);
                ASSERT_EQ(pkt.payload, want.payload);
                ASSERT_EQ(inPlace->lastArrivalCycles(),
                          byValue->lastArrivalCycles());
            }
        }
    }
}

/**
 * A clone taken mid-stream continues it: static (random and HTTP
 * payloads) and churn (short lifetimes, a warm-up ramp, short bursts
 * with long OFF gaps) sources. The original draws its next N packets
 * first, then the clone must draw the same N with the same arrival
 * times; and advancing a second clone leaves the original's next
 * packet where it was.
 */
TEST(PacketSource, CloneContinuesTheStream)
{
    for (const auto &[what, tc] : sourceCases()) {
        const std::unique_ptr<traffic::PacketSource> src =
            traffic::makeSource(tc, 7);
        drawN(*src, 137);
        const std::unique_ptr<traffic::PacketSource> copy = src->clone();
        EXPECT_EQ(copy->lastArrivalCycles(), src->lastArrivalCycles())
            << what;
        const std::vector<Drawn> want = drawN(*src, 1000);
        expectSame(drawN(*copy, 1000), want, what);

        const std::unique_ptr<traffic::PacketSource> ahead = src->clone();
        const std::unique_ptr<traffic::PacketSource> still = src->clone();
        drawN(*ahead, 50);
        expectSame(drawN(*src, 1), drawN(*still, 1), what);
    }
}

TEST(PacketSource, ReplayMatchesTheRecordedSource)
{
    for (const auto &[what, tc] : sourceCases()) {
        const std::unique_ptr<traffic::PacketSource> src =
            traffic::makeSource(tc, 7);
        // The model the configuration picks is the one recorded.
        if (tc.churn.enabled)
            ASSERT_NE(dynamic_cast<traffic::ChurnSource *>(src.get()),
                      nullptr);
        else
            ASSERT_NE(dynamic_cast<traffic::StaticSource *>(src.get()),
                      nullptr);
        const std::unique_ptr<traffic::PacketSource> fresh = src->clone();
        const auto rec =
            std::make_shared<const traffic::TraceRecording>(*src, 1000);
        ASSERT_EQ(rec->size(), 1000u) << what;
        const std::vector<Drawn> want = drawN(*fresh, 1000);

        traffic::ReplaySource replay(rec);
        EXPECT_EQ(replay.config().seed, tc.seed) << what;
        expectSame(drawN(replay, 1000), want, what);
        EXPECT_TRUE(replay.atEnd()) << what;

        // A clone continues the replay where it stands, on its own.
        traffic::ReplaySource part(rec);
        drawN(part, 137);
        const std::unique_ptr<traffic::PacketSource> copy = part.clone();
        EXPECT_EQ(copy->lastArrivalCycles(), want[136].arrival) << what;
        const std::vector<Drawn> tail(want.begin() + 137, want.end());
        expectSame(drawN(part, 863), tail, what);
        EXPECT_FALSE(copy->atEnd()) << what;
        expectSame(drawN(*copy, 863), tail, what);

        // In-place draws overwrite every field of a reused packet.
        traffic::ReplaySource inPlace(rec);
        net::Packet pkt;
        pkt.payload.assign(4096, 0xee);
        for (const Drawn &d : want) {
            inPlace.nextInto(pkt);
            ASSERT_EQ(pkt.seq, d.pkt.seq) << what;
            ASSERT_EQ(pkt.ip.toBytes(), d.pkt.ip.toBytes()) << what;
            ASSERT_EQ(pkt.srcPort, d.pkt.srcPort) << what;
            ASSERT_EQ(pkt.dstPort, d.pkt.dstPort) << what;
            ASSERT_EQ(pkt.payload, d.pkt.payload) << what;
            ASSERT_EQ(inPlace.lastArrivalCycles(), d.arrival) << what;
        }
    }
}

TEST(PacketSource, MakeSourcePicksModelFromConfig)
{
    net::TraceConfig tc;
    EXPECT_NE(dynamic_cast<traffic::StaticSource *>(
                  traffic::makeSource(tc, 0).get()),
              nullptr);
    tc.churn.enabled = true;
    EXPECT_NE(dynamic_cast<traffic::ChurnSource *>(
                  traffic::makeSource(tc, 0).get()),
              nullptr);
}

TEST(ChurnSource, DeterministicPerSeed)
{
    const net::TraceConfig tc = churnyConfig();
    traffic::ChurnSource a(tc, 10);
    traffic::ChurnSource b(tc, 10);
    for (int i = 0; i < 3000; ++i) {
        const net::Packet pa = a.next();
        const net::Packet pb = b.next();
        ASSERT_EQ(pa.ip.src, pb.ip.src);
        ASSERT_EQ(pa.ip.dst, pb.ip.dst);
        ASSERT_EQ(pa.srcPort, pb.srcPort);
        ASSERT_EQ(pa.payload, pb.payload);
        ASSERT_EQ(a.lastArrivalCycles(), b.lastArrivalCycles());
    }

    net::TraceConfig other = tc;
    other.seed = 99;
    traffic::ChurnSource c(other, 10);
    bool differs = false;
    traffic::ChurnSource a2(tc, 10);
    for (int i = 0; i < 200 && !differs; ++i)
        differs = c.next().ip.dst != a2.next().ip.dst;
    EXPECT_TRUE(differs);
}

TEST(ChurnSource, ArrivalsNonDecreasingAndGappy)
{
    // OFF periods at burst boundaries must stretch some gaps well
    // beyond the nominal inter-arrival gap.
    net::TraceConfig tc = churnyConfig();
    tc.churn.offGapFactor = 16.0;
    traffic::ChurnSource src(tc, 100);
    std::int64_t prev = 0;
    std::int64_t maxGap = 0;
    for (int i = 0; i < 5000; ++i) {
        src.next();
        const std::int64_t now = src.lastArrivalCycles();
        ASSERT_GE(now, prev);
        maxGap = std::max(maxGap, now - prev);
        prev = now;
    }
    EXPECT_GT(maxGap, 100 * 8);
    EXPECT_GT(src.counters().bursts, 10u);
}

TEST(ChurnSource, FlowsChurnThroughThePopulation)
{
    // Mean lifetime 16 over 20k packets: thousands of flows must have
    // opened and closed while the live population stayed fixed.
    const net::TraceConfig tc = churnyConfig(32, 16.0);
    traffic::ChurnSource src(tc, 0);
    for (int i = 0; i < 20000; ++i)
        src.next();
    EXPECT_EQ(src.flows().size(), 32u);
    EXPECT_GT(src.flows().flowsClosed(), 500u);
    EXPECT_EQ(src.flows().flowsOpened(),
              32u + src.flows().flowsClosed());
}

TEST(ChurnSource, RampFactorDecaysLinearlyToOne)
{
    net::TraceConfig tc = churnyConfig();
    tc.churn.rampPackets = 1000;
    tc.churn.rampStartFactor = 5.0;
    const traffic::ChurnSource src(tc, 10);
    EXPECT_DOUBLE_EQ(src.rampFactor(0), 5.0);
    EXPECT_NEAR(src.rampFactor(500), 3.0, 0.01);
    EXPECT_DOUBLE_EQ(src.rampFactor(1000), 1.0);
    EXPECT_DOUBLE_EQ(src.rampFactor(5000), 1.0);
}

TEST(ChurnStatistics, ZipfRankFrequencySlope)
{
    // Slot ranks are fixed while flows churn through them, so the
    // per-slot packet counts must follow the configured Zipf law:
    // log(count) vs log(rank) slope ~ -s over the head of the ranking.
    net::TraceConfig tc = churnyConfig(64, 4096.0);
    tc.flowZipf = 1.0;
    traffic::ChurnSource src(tc, 0);
    for (int i = 0; i < 200000; ++i)
        src.next();

    std::vector<double> ranks, counts;
    for (std::size_t r = 0; r < 32; ++r) {
        ranks.push_back(static_cast<double>(r + 1));
        counts.push_back(
            static_cast<double>(src.slotPackets()[r]) + 0.5);
    }
    EXPECT_NEAR(logLogSlope(ranks, counts), -1.0, 0.15);
}

TEST(ChurnStatistics, BurstLengthsAreParetoTailed)
{
    // CCDF of the discrete Pareto: P(X >= x) ~ (minBurst/x)^alpha, so
    // the log-log CCDF slope over dyadic thresholds must sit near
    // -alpha.
    net::ChurnConfig churn;
    churn.burstAlpha = 1.5;
    churn.minBurst = 4;
    Rng rng(7);
    const int kDraws = 200000;
    std::vector<std::uint64_t> draws(kDraws);
    for (auto &d : draws) {
        d = traffic::ChurnSource::drawBurst(rng, churn);
        ASSERT_GE(d, churn.minBurst);
    }

    std::vector<double> xs, ccdf;
    for (std::uint64_t x = 4; x <= 256; x *= 2) {
        int ge = 0;
        for (const auto d : draws)
            ge += d >= x;
        xs.push_back(static_cast<double>(x));
        ccdf.push_back(static_cast<double>(ge) / kDraws);
    }
    EXPECT_NEAR(logLogSlope(xs, ccdf), -1.5, 0.3);
}

TEST(ChurnStatistics, LifetimesAreGeometricWithConfiguredMean)
{
    net::ChurnConfig churn;
    churn.meanLifetimePackets = 64.0;
    Rng rng(11);
    double sum = 0;
    std::uint64_t minSeen = ~0ull;
    const int kDraws = 100000;
    for (int i = 0; i < kDraws; ++i) {
        const std::uint64_t d =
            traffic::FlowTable::drawLifetime(rng, churn);
        sum += static_cast<double>(d);
        minSeen = std::min(minSeen, d);
    }
    EXPECT_GE(minSeen, 1u);
    EXPECT_NEAR(sum / kDraws, 64.0, 6.4);
}

TEST(ValueRecorder, DigestModeTracksFullMode)
{
    core::ValueRecorder full;
    core::ValueRecorder digest(core::ValueRecorder::Mode::Digest);
    for (int p = 0; p < 50; ++p) {
        full.beginPacket();
        digest.beginPacket();
        for (int k = 0; k < 4; ++k) {
            full.record("key" + std::to_string(k),
                        static_cast<std::uint64_t>(p * 10 + k));
            digest.record("key" + std::to_string(k),
                          static_cast<std::uint64_t>(p * 10 + k));
        }
    }
    EXPECT_EQ(full.digest(), digest.digest());
    EXPECT_EQ(full.packetCount(), 50u);
    EXPECT_EQ(digest.packetCount(), 50u);

    // Any divergence — a different value, key, or frame boundary —
    // must move the digest.
    core::ValueRecorder other(core::ValueRecorder::Mode::Digest);
    for (int p = 0; p < 50; ++p) {
        other.beginPacket();
        for (int k = 0; k < 4; ++k)
            other.record("key" + std::to_string(k),
                         static_cast<std::uint64_t>(
                             p * 10 + k + (p == 31 && k == 2)));
    }
    EXPECT_NE(other.digest(), full.digest());
}

TEST(ChipStream, MatchesGoldenChipRun)
{
    // The streaming harness is the same chip with the O(packets)
    // bookkeeping removed: chip metrics must match the golden run
    // exactly, and each PE's rolling digest must equal the digest the
    // golden run's Full recorder accumulated over the same frames.
    core::ExperimentConfig cfg;
    cfg.numPackets = 400;
    npu::NpuConfig npuCfg;
    npuCfg.peCount = 2;
    npuCfg.dispatch = npu::DispatchPolicy::FlowHash;

    const auto factory = apps::appFactory("crc");
    const npu::ChipRun golden =
        npu::runChipGolden(factory, cfg, npuCfg);
    const npu::ChipStreamResult stream =
        npu::runChipStream(factory, cfg, npuCfg);

    EXPECT_EQ(sweep::chipMetricsJson(stream.chip),
              sweep::chipMetricsJson(golden.chip));
    ASSERT_EQ(stream.peDigests.size(), golden.recorders.size());
    for (std::size_t pe = 0; pe < stream.peDigests.size(); ++pe)
        EXPECT_EQ(stream.peDigests[pe], golden.recorders[pe].digest());
}

TEST(ChipStream, ByteIdenticalAcrossChipJobs)
{
    core::ExperimentConfig cfg;
    cfg.numPackets = 1500;
    npu::NpuConfig npuCfg;
    npuCfg.peCount = 4;
    npuCfg.dispatch = npu::DispatchPolicy::FlowHash;

    const core::AppFactory factory = [] {
        return std::make_unique<apps::SessionApp>();
    };
    const npu::ChipStreamResult serial =
        npu::runChipStream(factory, cfg, npuCfg);
    npu::NpuConfig parallel = npuCfg;
    parallel.chipJobs = 4;
    const npu::ChipStreamResult threaded =
        npu::runChipStream(factory, cfg, parallel);

    EXPECT_EQ(serial.valueDigest, threaded.valueDigest);
    EXPECT_EQ(serial.peDigests, threaded.peDigests);
    EXPECT_EQ(sweep::chipMetricsJson(serial.chip),
              sweep::chipMetricsJson(threaded.chip));
}

TEST(SweepAxes, FlowsAndChurnExpandAndElide)
{
    const sweep::SweepSpec spec = sweep::SweepSpec::parse(
        "app=crc;flows=64,128;churn=0,512;packets=100;trials=1");
    EXPECT_EQ(spec.cellCount(), 4u);

    const auto cells = sweep::expand(spec);
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[0].flows, 64u);
    EXPECT_EQ(cells[0].churn, 0u);
    EXPECT_EQ(cells[1].churn, 512u);
    EXPECT_EQ(cells[3].flows, 128u);

    // Default values elide from the key so pre-traffic result files
    // resume cleanly; non-defaults must appear.
    EXPECT_EQ(cells[0].key().find("churn="), std::string::npos);
    EXPECT_NE(cells[0].key().find("flows=64"), std::string::npos);
    EXPECT_NE(cells[1].key().find("churn=512"), std::string::npos);

    sweep::SweepCell plain;
    plain.app = "crc";
    EXPECT_EQ(plain.key().find("flows="), std::string::npos);

    const core::ExperimentConfig cfg =
        sweep::makeConfig(spec, cells[1]);
    EXPECT_EQ(cfg.traceFlows, 64u);
    EXPECT_EQ(cfg.churnLifetime, 512u);
}

TEST(TraceValidation, RejectsOutOfRangeParameters)
{
    const auto construct = [](net::TraceConfig tc) {
        net::TraceGenerator gen(tc);
    };

    net::TraceConfig zeroFlows;
    zeroFlows.numFlows = 0;
    EXPECT_EXIT(construct(zeroFlows), ::testing::ExitedWithCode(1),
                "flows must be >= 1");

    net::TraceConfig inverted;
    inverted.minPayload = 200;
    inverted.maxPayload = 100;
    EXPECT_EXIT(construct(inverted), ::testing::ExitedWithCode(1),
                "payload bounds inverted");

    net::TraceConfig badZipf;
    badZipf.flowZipf = -0.5;
    EXPECT_EXIT(construct(badZipf), ::testing::ExitedWithCode(1),
                "flow Zipf exponent must be >= 0");

    net::TraceConfig badLifetime;
    badLifetime.churn.meanLifetimePackets = 0.0;
    EXPECT_EXIT(construct(badLifetime), ::testing::ExitedWithCode(1),
                "mean flow lifetime must be >= 1");

    net::TraceConfig badBurst;
    badBurst.churn.minBurst = 0;
    EXPECT_EXIT(construct(badBurst), ::testing::ExitedWithCode(1),
                "min burst must be >= 1");

    net::TraceConfig badAlpha;
    badAlpha.churn.burstAlpha = 0.0;
    EXPECT_EXIT(construct(badAlpha), ::testing::ExitedWithCode(1),
                "burst tail exponent must be > 0");
}
