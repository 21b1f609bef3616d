/**
 * @file
 * Host-side simulator throughput harness behind BENCH_sim.json.
 *
 * Times the simulator's hot paths — the single-core golden run per
 * workload, a faulty single-core trial, and the multi-engine chip
 * step loop in its private-L2, shared-L2 and faulty flavors — and
 * reports host packets per second per cell as JSON.
 *
 * Every timed cell is self-checking: after timing, it runs the same
 * experiment once more, untimed, and byte-compares every metric and
 * recorder digest against the timed run. A cell only reports
 * "identical": true when the two runs agree bit for bit; any
 * divergence (state leaking between runs, uninitialized reads, host-
 * dependent ordering) fails the whole binary, so a perf number can
 * never be committed for a nondeterministic path. Identity against
 * the model's pinned results is the golden corpus's job
 * (tests/test_golden_trace.cc).
 *
 * CI regenerates this JSON at the full protocol and tools/check_perf.py
 * gates on the committed copy. The embedded pre_pr table holds the same cells
 * measured on the pre-rearchitecture tree (commit f4761ae) on the
 * reference container, so the committed file documents the speedup
 * the rearchitecture bought.
 */

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/app.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "core/experiment.hh"
#include "npu/chip.hh"
#include "npu/config.hh"

using namespace clumsy;

namespace
{

/** Host pps of the same cells on the pre-rearchitecture tree. */
struct PrePrCell
{
    const char *name;
    double pps;
};

/**
 * Measured at commit f4761ae (before the hot-path rearchitecture) on
 * the reference container: Release -O2, best of 3, packets = 4000
 * (core) / 6000 (chip) — the same protocol as the default run of this
 * binary. Kept in the source so a regenerated BENCH_sim.json always
 * carries the before/after record.
 */
constexpr PrePrCell kPrePr[] = {
    {"core/crc", 5545},       {"core/tl", 207898},
    {"core/route", 119502},   {"core/drr", 130587},
    {"core/nat", 140911},     {"core/md5", 3324},
    {"core/url", 29542},      {"core/adpcm", 9248},
    {"core/session", 221934}, {"core/lpm", 190134},
    {"core_faulty/route", 128060},
    {"chip/route", 100586},   {"chip/nat", 115239},
    {"chip/session", 111716}, {"chip_shared/nat", 118741},
    {"chip_faulty/route", 97587},
};

constexpr const char *kPrePrCommit = "f4761ae";

double
prePrPps(const std::string &name)
{
    for (const PrePrCell &c : kPrePr)
        if (name == c.name)
            return c.pps;
    return 0.0;
}

double
secondsSince(const std::chrono::steady_clock::time_point start)
{
    const auto dt = std::chrono::steady_clock::now() - start;
    return std::chrono::duration<double>(dt).count();
}

template <class Fn>
double
bestOf(unsigned reps, Fn &&fn)
{
    double best = 1e300;
    for (unsigned r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const double s = secondsSince(t0);
        if (s < best)
            best = s;
    }
    return best;
}

/** Exact equality — the simulator is deterministic, so == is the test. */
bool
sameMetrics(const core::RunMetrics &a, const core::RunMetrics &b)
{
    return a.packetsAttempted == b.packetsAttempted &&
           a.packetsProcessed == b.packetsProcessed &&
           a.packetsWithError == b.packetsWithError &&
           a.fatal == b.fatal && a.fatalReason == b.fatalReason &&
           a.cyclesPerPacket == b.cyclesPerPacket &&
           a.energyPerPacketPj == b.energyPerPacketPj &&
           a.totalEnergyPj == b.totalEnergyPj &&
           a.l1dEnergyPj == b.l1dEnergyPj &&
           a.instructions == b.instructions &&
           a.dcacheAccesses == b.dcacheAccesses &&
           a.dcacheMissRate == b.dcacheMissRate &&
           a.faultsInjected == b.faultsInjected &&
           a.parityTrips == b.parityTrips &&
           a.eccCorrections == b.eccCorrections &&
           a.freqSwitches == b.freqSwitches &&
           a.ctrlEventsApplied == b.ctrlEventsApplied &&
           a.errorsByType == b.errorsByType;
}

bool
sameChipMetrics(const npu::ChipMetrics &a, const npu::ChipMetrics &b)
{
    return a.makespanCycles == b.makespanCycles &&
           a.throughputPps == b.throughputPps &&
           a.loadImbalance == b.loadImbalance &&
           a.queueOccMean == b.queueOccMean &&
           a.queueOccMax == b.queueOccMax &&
           a.dropsQueueFull == b.dropsQueueFull &&
           a.dropsDeadPe == b.dropsDeadPe &&
           a.backpressureStalls == b.backpressureStalls &&
           a.l2PortWaits == b.l2PortWaits &&
           a.l2PortWaitCycles == b.l2PortWaitCycles &&
           a.crossEngineHits == b.crossEngineHits &&
           a.crossEngineHitFraction == b.crossEngineHitFraction &&
           a.l2EvictionsByOther == b.l2EvictionsByOther &&
           a.mshrMerges == b.mshrMerges && a.chipEdf == b.chipEdf &&
           a.peUtilization == b.peUtilization &&
           a.pePackets == b.pePackets &&
           a.peL2Hits == b.peL2Hits &&
           a.peL2Misses == b.peL2Misses &&
           a.peCrFinal == b.peCrFinal &&
           a.peCrMean == b.peCrMean &&
           a.peEpochs == b.peEpochs &&
           a.peStepsUp == b.peStepsUp &&
           a.peStepsDown == b.peStepsDown;
}

bool
sameStream(const npu::ChipStreamResult &a,
           const npu::ChipStreamResult &b)
{
    return a.valueDigest == b.valueDigest &&
           a.peDigests == b.peDigests &&
           sameMetrics(a.merged, b.merged) &&
           sameChipMetrics(a.chip, b.chip);
}

/** One emitted JSON cell. */
struct Cell
{
    std::string name;
    std::uint64_t packets = 0;
    double seconds = 0.0;
    bool identical = false;
};

/**
 * Time @p run best-of @p reps, then run it once more untimed and
 * report whether @p same holds between the timed and untimed results.
 */
template <class Run, class Same>
Cell
timeCell(std::string name, std::uint64_t packets, unsigned reps,
         Run &&run, Same &&same)
{
    decltype(run()) timed;
    const double s = bestOf(reps, [&]() { timed = run(); });
    return Cell{std::move(name), packets, s, same(timed, run())};
}

std::string
renderJson(const std::vector<Cell> &cells, std::uint64_t corePackets,
           std::uint64_t chipPackets, unsigned reps)
{
    std::string out;
    char buf[512];
    auto add = [&](const char *fmt, auto... args) {
        std::snprintf(buf, sizeof buf, fmt, args...);
        out += buf;
    };
    add("{\n  \"bench\": \"sim_perf\",\n");
    add("  \"host_threads\": %u,\n",
        std::thread::hardware_concurrency());
    add("  \"core_packets\": %llu,\n  \"chip_packets\": %llu,\n",
        static_cast<unsigned long long>(corePackets),
        static_cast<unsigned long long>(chipPackets));
    add("  \"reps\": %u,\n", reps);
    add("  \"cells\": [\n");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        const double pps =
            static_cast<double>(c.packets) / c.seconds;
        add("    {\"name\": \"%s\", \"packets\": %llu, "
            "\"seconds\": %.4f, \"pps\": %.0f, \"identical\": %s}%s\n",
            c.name.c_str(),
            static_cast<unsigned long long>(c.packets), c.seconds,
            pps, c.identical ? "true" : "false",
            i + 1 < cells.size() ? "," : "");
    }
    add("  ],\n");
    add("  \"pre_pr\": {\n    \"commit\": \"%s\",\n", kPrePrCommit);
    add("    \"note\": \"same cells, pre-rearchitecture tree, "
        "best of 3 at 4000/6000 packets\",\n");
    add("    \"pps\": {\n");
    constexpr std::size_t nPre = sizeof kPrePr / sizeof kPrePr[0];
    for (std::size_t i = 0; i < nPre; ++i)
        add("      \"%s\": %.0f%s\n", kPrePr[i].name, kPrePr[i].pps,
            i + 1 < nPre ? "," : "");
    add("    }\n  }\n}\n");
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t corePackets = 4000;
    std::uint64_t chipPackets = 6000;
    unsigned reps = 3;
    std::string outPath;
    cli::ArgParser parser(argv && argv[0] ? argv[0] : "sim_perf",
                          "Host-simulator throughput cells with "
                          "run-to-run byte comparison.");
    parser.optU64("--packets", "N", "packets per single-core cell",
                  &corePackets);
    parser.optU64("--chip-packets", "N", "packets per chip cell",
                  &chipPackets);
    parser.optUnsigned("--reps", "N", "timing repetitions (best-of)",
                       &reps);
    parser.optString("--out", "FILE",
                     "also write the JSON to this path", &outPath);
    parser.flag("--quick",
                "1/4 of the default packets (CI mode)", [&]() {
                    corePackets /= 4;
                    chipPackets /= 4;
                });
    parser.parse(argc, argv);
    setQuiet(true);
    if (reps == 0)
        reps = 1;

    std::vector<Cell> cells;
    bool allIdentical = true;
    auto note = [&](const Cell &c) {
        std::fprintf(stderr, "  %-18s %9.0f pps  %s\n", c.name.c_str(),
                     static_cast<double>(c.packets) / c.seconds,
                     c.identical ? "identical" : "DIVERGED");
        if (!c.identical)
            allIdentical = false;
        cells.push_back(c);
    };

    // --- single-core golden runs, one cell per workload ------------
    std::vector<std::string> coreApps = apps::allAppNames();
    for (const std::string &a : apps::extensionAppNames())
        coreApps.push_back(a);
    for (const std::string &app : coreApps) {
        core::ExperimentConfig cfg;
        cfg.numPackets = corePackets;
        note(timeCell(
            "core/" + app, corePackets, reps,
            [&]() { return core::runGolden(apps::appFactory(app), cfg); },
            [](const core::GoldenRecord &a, const core::GoldenRecord &b) {
                return sameMetrics(a.metrics, b.metrics) &&
                       a.recorder.digest() == b.recorder.digest() &&
                       a.recorder.packetCount() ==
                           b.recorder.packetCount();
            }));
    }

    // --- faulty single-core trial (injector + recovery hot) --------
    {
        core::ExperimentConfig cfg;
        cfg.numPackets = corePackets;
        cfg.cr = 0.5;
        cfg.scheme = mem::RecoveryScheme::TwoStrike;
        const core::GoldenRecord golden =
            core::runGolden(apps::appFactory("route"), cfg);
        note(timeCell(
            "core_faulty/route", corePackets, reps,
            [&]() {
                return core::runFaultyTrial(apps::appFactory("route"),
                                            cfg, 0, golden);
            },
            sameMetrics));
    }

    // --- chip step loop: private L2, shared L2, faulty -------------
    auto chipCell = [&](const std::string &name,
                        const std::string &app, npu::L2Mode l2,
                        bool faulty) {
        core::ExperimentConfig cfg;
        cfg.numPackets = chipPackets;
        if (faulty) {
            cfg.cr = 0.5;
            cfg.scheme = mem::RecoveryScheme::TwoStrike;
        }
        npu::NpuConfig npuCfg;
        npuCfg.peCount = 4;
        npuCfg.dispatch = npu::DispatchPolicy::FlowHash;
        npuCfg.mshrs = 4;
        npuCfg.l2 = l2;
        note(timeCell(
            name, chipPackets, reps,
            [&]() {
                return npu::runChipStream(apps::appFactory(app), cfg,
                                          npuCfg, /*golden=*/!faulty, 0);
            },
            sameStream));
    };
    chipCell("chip/route", "route", npu::L2Mode::Private, false);
    chipCell("chip/nat", "nat", npu::L2Mode::Private, false);
    chipCell("chip/session", "session", npu::L2Mode::Private, false);
    chipCell("chip_shared/nat", "nat", npu::L2Mode::Shared, false);
    chipCell("chip_faulty/route", "route", npu::L2Mode::Private, true);

    const std::string json =
        renderJson(cells, corePackets, chipPackets, reps);
    std::fputs(json.c_str(), stdout);
    if (!outPath.empty()) {
        std::FILE *f = std::fopen(outPath.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "sim_perf: cannot write %s\n",
                         outPath.c_str());
            return 1;
        }
        std::fputs(json.c_str(), f);
        std::fclose(f);
    }

    // Summary of the speedup the committed pre_pr table documents.
    for (const Cell &c : cells) {
        const double pre = prePrPps(c.name);
        if (pre > 0.0)
            std::fprintf(stderr, "  %-18s %.2fx vs pre-PR\n",
                         c.name.c_str(),
                         static_cast<double>(c.packets) / c.seconds /
                             pre);
    }
    if (!allIdentical) {
        std::fprintf(stderr,
                     "sim_perf: a cell's repeat run DIVERGED\n");
        return 1;
    }
    return 0;
}
