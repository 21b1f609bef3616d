/**
 * @file
 * clumsy_npu: command-line driver for the multi-engine chip model.
 *
 * Runs a workload on an N-engine chip (src/npu/) — each engine a
 * private clumsy processor behind one shared L2 port — and prints the
 * single-core-form experiment results plus the chip-level quantities:
 * throughput at the modeled clock, per-engine utilization and packet
 * counts, queue occupancy, drop/backpressure accounting, shared-port
 * contention and chip ED2F2.
 *
 *   clumsy_npu --app route --pes 4 --cr 0.5 --scheme two-strike
 *   clumsy_npu --app nat --pes 8 --dispatch flow --queue-cap 8
 *   clumsy_npu --app crc --pes 4 --dispatch shortest --drop --json
 *   clumsy_npu --app url --pes 4 --dvs queue --arrival-gap 400
 *   clumsy_npu --app drr --pes 8 --mshrs 4 --scheme two-strike
 *   clumsy_npu --app route --pes 4 --l2 shared --dispatch flow
 *   clumsy_npu --app md5 --pes 1 --dispatch rr   # == clumsy_sim
 */

#include <cstdio>
#include <string>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "npu/chip.hh"
#include "sweep/run_options.hh"
#include "sweep/sink.hh"

using namespace clumsy;

int
main(int argc, char **argv)
{
    setQuiet(true);

    sweep::RunOptions opts;
    cli::ArgParser parser(
        "clumsy_npu",
        "Run one workload on an N-engine chip behind a shared L2 and "
        "report core results plus chip-level metrics.");
    opts.add(parser, sweep::Tier::Chip);
    parser.section("host");
    parser.optUnsigned("--chip-jobs", "N",
                       "worker threads for one chip run (bring-up + "
                       "trial fan-out); results are byte-identical "
                       "for every value (default 1 = serial, 0 = "
                       "hardware)",
                       &opts.npuCfg.chipJobs);
    parser.parse(argc, argv);
    opts.finish();

    const std::string &app = opts.app;
    const core::ExperimentConfig &cfg = opts.cfg;
    const npu::NpuConfig &npuCfg = opts.npuCfg;
    const bool csv = opts.csv;

    const npu::ChipExperimentResult res =
        npu::runChipExperiment(opts.factory(), cfg, npuCfg);

    if (opts.json) {
        std::fputs((opts.configEcho() + "  \"result\": " +
                    sweep::experimentResultJson(res.core) +
                    ",\n  \"npu\": {\"golden\": " +
                    sweep::chipMetricsJson(res.goldenChip) +
                    ", \"faulty\": " +
                    sweep::chipMetricsJson(res.faultyChip) + "}\n}\n")
                       .c_str(),
                   stdout);
        return 0;
    }

    const core::ExperimentResult &r = res.core;
    TextTable table("clumsy_npu: " + app + " on " +
                    std::to_string(npuCfg.peCount) + " PE" +
                    (npuCfg.peCount == 1 ? "" : "s") + " (" +
                    npu::to_string(npuCfg.dispatch) + ") @ Cr=" +
                    TextTable::num(cfg.cr, 2) +
                    (cfg.dynamicFrequency ? " (dynamic)" : "") + ", " +
                    to_string(cfg.scheme));
    table.header({"metric", "golden", "faulty (avg)"});
    table.row({"packets processed",
               std::to_string(r.golden.packetsProcessed),
               std::to_string(r.faulty.packetsProcessed)});
    table.row({"cycles / packet",
               TextTable::num(r.golden.cyclesPerPacket, 1),
               TextTable::num(r.cyclesPerPacket, 1)});
    table.row({"energy / packet [uJ]",
               TextTable::num(r.golden.energyPerPacketPj * 1e-6, 3),
               TextTable::num(r.energyPerPacketPj * 1e-6, 3)});
    table.row({"fallibility", "1.0000",
               TextTable::num(r.fallibility, 4)});
    table.row({"fatal hazard / packet", "0",
               TextTable::sci(r.fatalProb, 2)});
    table.row({"faults injected", "0",
               std::to_string(r.faulty.faultsInjected)});
    std::fputs((csv ? table.csv() : table.render()).c_str(), stdout);

    TextTable chip("chip");
    chip.header({"metric", "golden", "faulty (avg)"});
    chip.row({"makespan [cycles]",
              TextTable::num(res.goldenChip.makespanCycles, 0),
              TextTable::num(res.faultyChip.makespanCycles, 0)});
    chip.row({"throughput [pkt/s]",
              TextTable::num(res.goldenChip.throughputPps, 0),
              TextTable::num(res.faultyChip.throughputPps, 0)});
    chip.row({"load imbalance",
              TextTable::num(res.goldenChip.loadImbalance, 3),
              TextTable::num(res.faultyChip.loadImbalance, 3)});
    chip.row({"queue occupancy (mean)",
              TextTable::num(res.goldenChip.queueOccMean, 2),
              TextTable::num(res.faultyChip.queueOccMean, 2)});
    chip.row({"queue occupancy (max)",
              TextTable::num(res.goldenChip.queueOccMax, 0),
              TextTable::num(res.faultyChip.queueOccMax, 0)});
    chip.row({"drops (queue full)",
              TextTable::num(res.goldenChip.dropsQueueFull, 0),
              TextTable::num(res.faultyChip.dropsQueueFull, 0)});
    chip.row({"drops (dead PE)",
              TextTable::num(res.goldenChip.dropsDeadPe, 0),
              TextTable::num(res.faultyChip.dropsDeadPe, 0)});
    chip.row({"backpressure stalls",
              TextTable::num(res.goldenChip.backpressureStalls, 0),
              TextTable::num(res.faultyChip.backpressureStalls, 0)});
    chip.row({"L2 port waits",
              TextTable::num(res.goldenChip.l2PortWaits, 0),
              TextTable::num(res.faultyChip.l2PortWaits, 0)});
    chip.row({"L2 port wait [cycles]",
              TextTable::num(res.goldenChip.l2PortWaitCycles, 0),
              TextTable::num(res.faultyChip.l2PortWaitCycles, 0)});
    chip.row({"cross-engine L2 hits",
              TextTable::num(res.goldenChip.crossEngineHits, 0),
              TextTable::num(res.faultyChip.crossEngineHits, 0)});
    chip.row({"cross-engine hit fraction",
              TextTable::num(res.goldenChip.crossEngineHitFraction, 4),
              TextTable::num(res.faultyChip.crossEngineHitFraction,
                             4)});
    chip.row({"L2 evictions by other PE",
              TextTable::num(res.goldenChip.l2EvictionsByOther, 0),
              TextTable::num(res.faultyChip.l2EvictionsByOther, 0)});
    chip.row({"MSHR merges",
              TextTable::num(res.goldenChip.mshrMerges, 0),
              TextTable::num(res.faultyChip.mshrMerges, 0)});
    chip.row({"chip ED2F2",
              TextTable::sci(res.goldenChip.chipEdf, 3),
              TextTable::sci(res.faultyChip.chipEdf, 3)});
    std::fputs((csv ? chip.csv() : chip.render()).c_str(), stdout);

    TextTable pes("per-engine (golden)");
    pes.header({"PE", "packets", "utilization"});
    for (std::size_t pe = 0;
         pe < res.goldenChip.peUtilization.size(); ++pe)
        pes.row({std::to_string(pe),
                 TextTable::num(res.goldenChip.pePackets[pe], 0),
                 TextTable::num(res.goldenChip.peUtilization[pe], 3)});
    std::fputs((csv ? pes.csv() : pes.render()).c_str(), stdout);

    TextTable dvsTab("per-engine DVS (faulty avg)");
    dvsTab.header({"PE", "Cr final", "Cr mean", "epochs", "ups",
                   "downs"});
    for (std::size_t pe = 0; pe < res.faultyChip.peCrFinal.size();
         ++pe)
        dvsTab.row({std::to_string(pe),
                    TextTable::num(res.faultyChip.peCrFinal[pe], 3),
                    TextTable::num(res.faultyChip.peCrMean[pe], 3),
                    TextTable::num(res.faultyChip.peEpochs[pe], 1),
                    TextTable::num(res.faultyChip.peStepsUp[pe], 1),
                    TextTable::num(res.faultyChip.peStepsDown[pe],
                                   1)});
    std::fputs((csv ? dvsTab.csv() : dvsTab.render()).c_str(), stdout);

    TextTable occ("queue depth at enqueue (golden)");
    occ.header({"depth", "count"});
    for (unsigned b = 0; b < res.goldenQueueOcc.bins(); ++b) {
        if (res.goldenQueueOcc.binCount(b) == 0)
            continue;
        occ.row({std::to_string(b),
                 std::to_string(res.goldenQueueOcc.binCount(b))});
    }
    std::fputs((csv ? occ.csv() : occ.render()).c_str(), stdout);
    return 0;
}
