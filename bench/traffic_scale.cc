/**
 * @file
 * Streaming traffic-model scale proof, written machine-readable to
 * BENCH_traffic.json.
 *
 * Runs the stateful session workload on a 4-engine chip under the
 * churn traffic model through npu::runChipStream — the O(1)-memory
 * streaming harness — at two packet counts 10x apart, and checks the
 * subsystem's load-bearing claims:
 *
 *  - flat memory: peak RSS after the large run must stay within a
 *    small ratio + slack of the peak after the small run (ru_maxrss
 *    is a monotone high-water mark, so the small count runs first);
 *  - determinism: at each count the run is repeated and re-run at
 *    --chip-jobs 4, and both must reproduce the value digest and the
 *    chip metrics byte-for-byte;
 *  - fault sensitivity: a faulty stream at the small count must
 *    produce a different digest (reported; the golden claims gate the
 *    exit code).
 *
 * Defaults prove the 10M-packet tier (small = 1M); CI runs
 * `--packets 1000000` for a 1M/100k-tier smoke.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "apps/session.hh"
#include "bench/bench_common.hh"
#include "common/pool.hh"
#include "core/experiment.hh"
#include "npu/chip.hh"
#include "npu/config.hh"
#include "sweep/json.hh"
#include "sweep/sink.hh"

using namespace clumsy;

namespace
{

struct CountResult
{
    std::uint64_t packets = 0;
    double wallMs = 0.0;
    long rssKb = 0; ///< peak RSS after this count's runs
    std::uint64_t digest = 0;
    double pps = 0.0; ///< host packets simulated per wall second
    bool identicalRepeat = false;
    bool identicalChipJobs = false;
};

long
peakRssKb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

double
wallMsOf(const std::chrono::steady_clock::time_point start)
{
    const auto dt = std::chrono::steady_clock::now() - start;
    return std::chrono::duration<double, std::milli>(dt).count();
}

std::string
hex64(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Options opt(argc, argv, 10'000'000, 1);

    core::AppFactory factory = [] {
        return std::make_unique<apps::SessionApp>();
    };

    core::ExperimentConfig cfg;
    npu::NpuConfig npuCfg;
    npuCfg.peCount = 4;
    npuCfg.dispatch = npu::DispatchPolicy::FlowHash;
    npuCfg.arrivalGapCycles = 100;

    const std::uint64_t large = opt.packets;
    const std::uint64_t small = large / 10 ? large / 10 : 1;

    TextTable table("session on 4 PEs (flow dispatch, churn traffic): "
                    "streaming chip runs at " +
                    std::to_string(small) + " and " +
                    std::to_string(large) + " packets");
    table.header({"packets", "wall [ms]", "pkt/s (host)",
                  "peak RSS [MB]", "digest", "repeat", "chip-jobs 4"});

    std::vector<CountResult> results;
    // Small count FIRST: ru_maxrss only ever rises, so the flatness
    // comparison below needs the small tier's peak recorded before
    // the large tier runs.
    for (const std::uint64_t count : {small, large}) {
        cfg.numPackets = count;

        const auto start = std::chrono::steady_clock::now();
        const npu::ChipStreamResult base =
            npu::runChipStream(factory, cfg, npuCfg);
        const double wallMs = wallMsOf(start);

        const std::string baseChip = sweep::chipMetricsJson(base.chip);

        const npu::ChipStreamResult again =
            npu::runChipStream(factory, cfg, npuCfg);
        npu::NpuConfig parallel = npuCfg;
        parallel.chipJobs = 4;
        const npu::ChipStreamResult jobs4 =
            npu::runChipStream(factory, cfg, parallel);

        CountResult r;
        r.packets = count;
        r.wallMs = wallMs;
        r.rssKb = peakRssKb();
        r.digest = base.valueDigest;
        r.pps = wallMs > 0.0
                    ? static_cast<double>(count) / (wallMs / 1e3)
                    : 0.0;
        r.identicalRepeat =
            again.valueDigest == base.valueDigest &&
            sweep::chipMetricsJson(again.chip) == baseChip;
        r.identicalChipJobs =
            jobs4.valueDigest == base.valueDigest &&
            sweep::chipMetricsJson(jobs4.chip) == baseChip;
        results.push_back(r);

        table.row({std::to_string(count), TextTable::num(wallMs, 0),
                   TextTable::num(r.pps, 0),
                   TextTable::num(static_cast<double>(r.rssKb) / 1024.0,
                                  1),
                   hex64(r.digest), r.identicalRepeat ? "yes" : "NO",
                   r.identicalChipJobs ? "yes" : "NO"});
    }
    opt.print(table);

    // Flat-memory ceiling: the 10x run may not grow the peak beyond
    // ratio + slack (allocator noise, thread stacks), or the harness
    // is hiding an O(packets) structure again. The baseline is ~5 MB
    // (engine stores hold only the pages the run wrote) and the 10x
    // run adds under 1 MB, so the ceiling allows about one baseline
    // of growth: an O(packets) structure of ~6 bytes per packet trips
    // it at the 100k/1M tier, under 1 byte per packet at 1M/10M.
    const double kRatio = 1.25;
    const long kSlackKb = 4 * 1024;
    const double rssRatio =
        results[0].rssKb > 0 ? static_cast<double>(results[1].rssKb) /
                                   static_cast<double>(results[0].rssKb)
                             : 0.0;
    const bool rssFlat =
        results[1].rssKb <=
        static_cast<long>(static_cast<double>(results[0].rssKb) *
                          kRatio) +
            kSlackKb;

    // Fault sensitivity: a faulty stream must move the digest.
    cfg.numPackets = small;
    cfg.faultScale = 20.0;
    const npu::ChipStreamResult faulty =
        npu::runChipStream(factory, cfg, npuCfg, false, 0);
    const bool faultyDiffers = faulty.valueDigest != results[0].digest;

    std::printf("peak RSS %ld KB @ %llu pkts -> %ld KB @ %llu pkts "
                "(ratio %.3f, %s); faulty digest %s\n",
                results[0].rssKb,
                static_cast<unsigned long long>(results[0].packets),
                results[1].rssKb,
                static_cast<unsigned long long>(results[1].packets),
                rssRatio, rssFlat ? "flat" : "NOT FLAT",
                faultyDiffers ? "differs (expected)" : "EQUAL");

    sweep::JsonWriter w(2);
    w.beginObject();
    w.key("bench").value("traffic_scale");
    w.key("app").value("session");
    w.key("pes").value(std::uint64_t{4});
    w.key("dispatch").value("flow");
    w.key("arrival_gap_cycles").value(std::uint64_t{100});
    w.key("host_threads").value(static_cast<std::uint64_t>(
        WorkStealingPool::hardwareWorkers()));
    w.key("counts").beginArray();
    for (const CountResult &r : results) {
        w.beginObject();
        w.key("packets").value(r.packets);
        w.key("wall_ms").value(r.wallMs);
        w.key("packets_per_sec_host").value(r.pps);
        w.key("peak_rss_kb").value(static_cast<std::uint64_t>(r.rssKb));
        w.key("value_digest").value(hex64(r.digest));
        w.key("identical_repeat").value(r.identicalRepeat);
        w.key("identical_chip_jobs").value(r.identicalChipJobs);
        w.endObject();
    }
    w.endArray();
    w.key("rss_ratio").value(rssRatio);
    w.key("rss_flat").value(rssFlat);
    w.key("faulty_digest_differs").value(faultyDiffers);
    w.endObject();

    const char *outPath = "BENCH_traffic.json";
    std::ofstream out(outPath);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", outPath);
        return 1;
    }
    out << w.str() << "\n";
    std::printf("wrote %s\n", outPath);

    bool ok = rssFlat;
    for (const CountResult &r : results)
        ok = ok && r.identicalRepeat && r.identicalChipJobs;
    return ok ? 0 : 1;
}
