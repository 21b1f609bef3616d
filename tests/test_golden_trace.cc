/**
 * @file
 * Golden-trace regression corpus for the chip model.
 *
 * Each corpus entry pins the exact numeric outcome of one small chip
 * run — chip ED2F2, throughput, completion and drop counts, merged
 * fallibility — as shortest-round-trip decimal text under
 * tests/golden/. The suite re-runs every configuration and compares
 * the fresh digest against the checked-in file *stringwise*, so any
 * refactor that shifts chip results by even one ULP fails loudly
 * instead of drifting silently (the concern the Ramulator 2.0
 * re-evaluation work documents for shared-memory models).
 *
 * The corpus was generated from the private-L2 model that predates the
 * genuinely-shared L2 refactor, so it doubles as the bit-identity
 * regression for `l2=private` chip runs.
 *
 * Regenerating (only when a change is *meant* to shift results):
 *   CLUMSY_REGEN_GOLDEN=1 ./build/tests/test_golden_trace
 * then commit the rewritten files and say why in the commit message.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/app.hh"
#include "npu/chip.hh"
#include "npu/config.hh"

namespace
{

using namespace clumsy;

/** One pinned configuration: 2 apps x 2 seed sets, small runs. */
struct GoldenCase
{
    const char *name; ///< corpus file stem
    const char *app;
    std::uint64_t traceSeed;
    std::uint64_t faultSeed;
    bool drop; ///< true: drop mode (queue-full drops); false:
               ///< backpressure (stall accounting)
};

const GoldenCase kCases[] = {
    {"route_s1", "route", 1, 0x5eed, true},
    {"route_s2", "route", 9, 0xb0a710ad, true},
    {"nat_s1", "nat", 1, 0x5eed, false},
    {"nat_s2", "nat", 9, 0xb0a710ad, false},
};

/**
 * Print a case by value, not by its raw bytes: the default printer
 * dumps the `const char *` members as addresses, which makes the listed
 * test names differ between builds.
 */
void
PrintTo(const GoldenCase &gc, std::ostream *os)
{
    *os << gc.app << " trace=" << gc.traceSeed << " fault=0x" << std::hex
        << gc.faultSeed << std::dec << (gc.drop ? " drop" : " backpressure");
}

/** Exact round-trip text for a double (%.17g re-reads bit-equal). */
std::string
exact(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Run one case and render its digest (ordered key=value lines). */
std::string
digest(const GoldenCase &gc)
{
    core::ExperimentConfig cfg;
    cfg.numPackets = 200;
    cfg.trials = 2;
    cfg.cr = 0.5;
    cfg.scheme = mem::RecoveryScheme::TwoStrike;
    cfg.traceSeed = gc.traceSeed;
    cfg.faultSeed = gc.faultSeed;

    npu::NpuConfig npuCfg;
    npuCfg.peCount = 4;
    npuCfg.dispatch = npu::DispatchPolicy::FlowHash;
    npuCfg.mshrs = 2;
    npuCfg.queueCapacity = 4;
    npuCfg.dropWhenFull = gc.drop;
    // Spread arrivals so the run processes most of the trace while
    // still overflowing the short queues now and then: both the
    // completion path and the drop/backpressure accounting get pinned.
    npuCfg.arrivalGapCycles = gc.drop ? 60 : 400;

    const npu::ChipExperimentResult res =
        npu::runChipExperiment(apps::appFactory(gc.app), cfg, npuCfg);

    std::string out;
    auto put = [&out](const char *key, double v) {
        out += std::string(key) + "=" + exact(v) + "\n";
    };
    put("golden_packets",
        static_cast<double>(res.core.golden.packetsProcessed));
    put("faulty_packets",
        static_cast<double>(res.core.faulty.packetsProcessed));
    put("fallibility", res.core.fallibility);
    put("fatal_prob", res.core.fatalProb);
    put("cycles_per_packet", res.core.cyclesPerPacket);
    put("energy_per_packet_pj", res.core.energyPerPacketPj);
    put("edf", res.core.edf);
    put("golden_makespan_cycles", res.goldenChip.makespanCycles);
    put("golden_throughput_pps", res.goldenChip.throughputPps);
    put("golden_drops_queue_full", res.goldenChip.dropsQueueFull);
    put("golden_backpressure_stalls",
        res.goldenChip.backpressureStalls);
    put("faulty_chip_edf", res.faultyChip.chipEdf);
    put("faulty_throughput_pps", res.faultyChip.throughputPps);
    put("faulty_drops_queue_full", res.faultyChip.dropsQueueFull);
    put("faulty_drops_dead_pe", res.faultyChip.dropsDeadPe);
    put("faulty_backpressure_stalls",
        res.faultyChip.backpressureStalls);
    put("faulty_l2_port_waits", res.faultyChip.l2PortWaits);
    for (std::size_t pe = 0; pe < res.goldenChip.pePackets.size();
         ++pe)
        put(("golden_pe" + std::to_string(pe) + "_packets").c_str(),
            res.goldenChip.pePackets[pe]);
    return out;
}

std::string
goldenPath(const GoldenCase &gc)
{
    return std::string(CLUMSY_GOLDEN_DIR) + "/" + gc.name + ".golden";
}

class GoldenTrace : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(GoldenTrace, MatchesCorpus)
{
    const GoldenCase &gc = GetParam();
    const std::string fresh = digest(gc);
    const std::string path = goldenPath(gc);

    if (std::getenv("CLUMSY_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << fresh;
        GTEST_SKIP() << "regenerated " << path;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << path << " missing; regenerate with CLUMSY_REGEN_GOLDEN=1";
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string pinned = buf.str();

    if (fresh == pinned)
        return;
    // Report per-line so the drifted metric is named, not just "files
    // differ".
    std::map<std::string, std::string> want;
    std::istringstream ws(pinned);
    for (std::string line; std::getline(ws, line);) {
        const auto eq = line.find('=');
        if (eq != std::string::npos)
            want[line.substr(0, eq)] = line.substr(eq + 1);
    }
    std::istringstream gs(fresh);
    for (std::string line; std::getline(gs, line);) {
        const auto eq = line.find('=');
        if (eq == std::string::npos)
            continue;
        const std::string key = line.substr(0, eq);
        const std::string got = line.substr(eq + 1);
        const auto it = want.find(key);
        if (it == want.end())
            ADD_FAILURE() << gc.name << ": new metric " << key
                          << " not in corpus";
        else
            EXPECT_EQ(it->second, got) << gc.name << ": " << key
                                       << " drifted";
    }
    EXPECT_EQ(pinned, fresh) << gc.name << ": digest drifted";
}

INSTANTIATE_TEST_SUITE_P(Corpus, GoldenTrace,
                         ::testing::ValuesIn(kCases),
                         [](const auto &info) {
                             return std::string(info.param.name);
                         });

} // namespace
