/**
 * @file
 * clumsy_sim: command-line driver for the simulator.
 *
 * Run any workload under any operating point and print the full
 * result set (golden stats, fallibility, energy, fatal hazard, error
 * breakdown), dump or replay packet traces, and inspect raw
 * simulator counters.
 *
 *   clumsy_sim --app route --cr 0.5 --scheme two-strike
 *   clumsy_sim --app md5 --dynamic --packets 5000 --trials 8
 *   clumsy_sim --app url --codec secded --stats
 *   clumsy_sim --app nat --cr 0.5 --json
 *   clumsy_sim --app crc --dump-trace crc.trace --packets 1000
 *   clumsy_sim --app crc --replay crc.trace --cr 0.25
 */

#include <cstdio>
#include <fstream>
#include <string>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "core/experiment.hh"
#include "net/trace_io.hh"
#include "sweep/run_options.hh"
#include "sweep/sink.hh"
#include "traffic/traffic.hh"

using namespace clumsy;

namespace
{

/** One faulty pass over a saved trace, no golden comparison. */
int
replay(const core::AppFactory &factory, const std::string &path,
       const core::ExperimentConfig &cfg, bool stats)
{
    const auto trace = net::loadTrace(path);
    auto instance = factory();
    core::ProcessorConfig pc = cfg.processor;
    pc.staticCr = cfg.cr;
    pc.dynamicFrequency = cfg.dynamicFrequency;
    pc.hierarchy.scheme = cfg.scheme;
    pc.faultModel.scale = cfg.faultScale;
    pc.faultSeed = cfg.faultSeed;
    core::ClumsyProcessor proc(pc);
    instance->initialize(proc);
    core::ValueRecorder rec;
    std::uint64_t processed = 0;
    for (const auto &pkt : trace) {
        if (proc.fatalOccurred())
            break;
        proc.beginPacket();
        rec.beginPacket();
        instance->processPacket(proc, pkt, rec);
        if (proc.fatalOccurred())
            break; // this packet never completed: don't count it
        proc.endPacket();
        ++processed;
    }
    // A replay whose first packet dies has no completed packets, so
    // per-packet quantities are reported as 0 rather than dividing
    // the totals by a clamped count.
    const double cyclesPerPkt =
        processed ? proc.nowCycles() / static_cast<double>(processed)
                  : 0.0;
    const double energyPerPktUj =
        processed ? proc.totalEnergyPj() * 1e-6 /
                        static_cast<double>(processed)
                  : 0.0;
    std::printf("replayed %llu/%zu packets, cycles/pkt %.1f, "
                "energy/pkt %.3f uJ, faults %llu%s\n",
                static_cast<unsigned long long>(processed),
                trace.size(), cyclesPerPkt, energyPerPktUj,
                static_cast<unsigned long long>(
                    proc.injector().faultCount()),
                proc.fatalOccurred()
                    ? (" — FATAL: " + proc.fatalReason()).c_str()
                    : "");
    // The fault breakdown is the whole point of a replay run: print
    // it always, not only under --stats.
    std::fputs(proc.injector().stats().dump().c_str(), stdout);
    if (stats) {
        std::fputs(proc.hierarchy().stats().dump().c_str(), stdout);
        std::fputs(proc.hierarchy().l1d().stats().dump().c_str(),
                   stdout);
    }
    // An aborted replay is a failed run: scripts driving replays need
    // the exit code to distinguish "survived the trace" from "died".
    return proc.fatalOccurred() ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);

    sweep::RunOptions opts;
    std::string dumpTrace, replayTrace;
    bool stats = false;

    cli::ArgParser parser(
        "clumsy_sim",
        "Run one workload under one operating point and report the "
        "full result set.");
    opts.add(parser, sweep::Tier::Core);
    parser.section("traces and counters");
    parser.optString("--dump-trace", "FILE",
                     "write the app's generated trace and exit",
                     &dumpTrace);
    parser.optString("--replay", "FILE",
                     "run one faulty pass over a saved trace",
                     &replayTrace);
    parser.flag("--stats", "dump raw simulator counters", &stats);
    parser.parse(argc, argv);
    opts.finish();

    const std::string &app = opts.app;
    const core::ExperimentConfig &cfg = opts.cfg;
    const bool csv = opts.csv;
    const core::AppFactory factory = opts.factory();

    if (!dumpTrace.empty()) {
        // Stream the trace straight to disk: packet counts beyond
        // memory are fine, exactly like the harnesses' own sources.
        const auto probe = factory();
        const auto src = traffic::makeSource(
            core::resolveTraceConfig(cfg, *probe), 0);
        std::ofstream os(dumpTrace);
        if (!os)
            fatal("cannot write trace file '%s'", dumpTrace.c_str());
        net::writeTraceHeader(os);
        for (std::uint64_t i = 0; i < cfg.numPackets; ++i)
            net::writePacket(os, src->next());
        if (!os.flush())
            fatal("short write to trace file '%s'", dumpTrace.c_str());
        std::printf("wrote %llu packets to %s\n",
                    static_cast<unsigned long long>(cfg.numPackets),
                    dumpTrace.c_str());
        return 0;
    }

    if (!replayTrace.empty())
        return replay(factory, replayTrace, cfg, stats);

    const auto res = core::runExperiment(factory, cfg);

    if (opts.json) {
        std::fputs((opts.configEcho() + "  \"result\": " +
                    sweep::experimentResultJson(res) + "\n}\n")
                       .c_str(),
                   stdout);
        return 0;
    }

    TextTable table("clumsy_sim: " + app + " @ Cr=" +
                    TextTable::num(cfg.cr, 2) +
                    (cfg.dynamicFrequency ? " (dynamic)" : "") + ", " +
                    to_string(cfg.scheme));
    table.header({"metric", "golden", "faulty (avg)"});
    table.row({"packets processed",
               std::to_string(res.golden.packetsProcessed),
               std::to_string(res.faulty.packetsProcessed)});
    table.row({"cycles / packet",
               TextTable::num(res.golden.cyclesPerPacket, 1),
               TextTable::num(res.cyclesPerPacket, 1)});
    table.row({"energy / packet [uJ]",
               TextTable::num(res.golden.energyPerPacketPj * 1e-6, 3),
               TextTable::num(res.energyPerPacketPj * 1e-6, 3)});
    table.row({"D-cache miss rate [%]",
               TextTable::num(res.golden.dcacheMissRate * 100, 2), "-"});
    table.row({"fallibility", "1.0000",
               TextTable::num(res.fallibility, 4)});
    table.row({"fatal hazard / packet", "0",
               TextTable::sci(res.fatalProb, 2)});
    table.row({"faults injected", "0",
               std::to_string(res.faulty.faultsInjected)});
    table.row({"parity trips", "0",
               std::to_string(res.faulty.parityTrips)});
    table.row({"ECC corrections", "0",
               std::to_string(res.faulty.eccCorrections)});
    std::fputs((csv ? table.csv() : table.render()).c_str(), stdout);

    if (!res.errorProbByType.empty()) {
        TextTable errs("error probability by marked value");
        errs.header({"marked value", "P(error)"});
        for (const auto &kv : res.errorProbByType)
            errs.row({kv.first, TextTable::num(kv.second, 6)});
        std::fputs((csv ? errs.csv() : errs.render()).c_str(), stdout);
    }
    return 0;
}
