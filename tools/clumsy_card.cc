/**
 * @file
 * clumsy_card: command-line driver for the line-card tier.
 *
 * Runs a workload on a card of N chip models (src/linecard/) — each an
 * N-engine clumsy chip — behind an inter-chip dispatcher, with an
 * analytical banked DRAM shared by every chip, and prints card-level
 * results: aggregate throughput, per-chip packet counts and makespans,
 * DRAM row-buffer hit/miss/conflict accounting, and ingress drops.
 *
 *   clumsy_card --app route --chips 4 --pes 2 --cr 0.5
 *   clumsy_card --app nat --chips 8 --card-dispatch flow --dram-banks 4
 *   clumsy_card --app crc --chips 4 --card-jobs 0 --json
 *   clumsy_card --app lpm --chips 2 --ctrl-rate 50 --ingress-cap 32
 *   clumsy_card --app md5 --chips 1 --dram-banks 0   # == clumsy_npu
 */

#include <cstdio>
#include <string>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "linecard/card.hh"
#include "sweep/json.hh"
#include "sweep/run_options.hh"
#include "sweep/sink.hh"

using namespace clumsy;

int
main(int argc, char **argv)
{
    setQuiet(true);

    sweep::RunOptions opts;
    cli::ArgParser parser(
        "clumsy_card",
        "Run one workload on a line card of N clumsy chips sharing a "
        "banked DRAM and report card-level metrics.");
    opts.add(parser, sweep::Tier::Card);
    parser.parse(argc, argv);
    opts.finish();

    const std::string &app = opts.app;
    const core::ExperimentConfig &cfg = opts.cfg;
    const npu::NpuConfig &npuCfg = opts.npuCfg;
    const linecard::CardConfig &cardCfg = opts.cardCfg;
    const bool csv = opts.csv;

    const linecard::CardExperimentResult res =
        linecard::runCardExperiment(opts.factory(), cfg, npuCfg,
                                    cardCfg);

    if (opts.json) {
        std::fputs((opts.configEcho() + "  \"value_digest\": \"" +
                    sweep::hexU64(res.golden.valueDigest) +
                    "\",\n  \"fatal_fraction\": " +
                    sweep::jsonNumber(res.fatalFraction) +
                    ",\n  \"card\": {\"golden\": " +
                    sweep::cardMetricsJson(res.golden.card) +
                    ", \"faulty\": " +
                    sweep::cardMetricsJson(res.faultyCard) + "}\n}\n")
                       .c_str(),
                   stdout);
        return 0;
    }

    const linecard::CardMetrics &g = res.golden.card;
    const linecard::CardMetrics &f = res.faultyCard;
    TextTable table("clumsy_card: " + app + " on " +
                    std::to_string(cardCfg.chips) + " chip" +
                    (cardCfg.chips == 1 ? "" : "s") + " x " +
                    std::to_string(npuCfg.peCount) + " PE (" +
                    npu::to_string(cardCfg.dispatch) + ", dram-banks=" +
                    std::to_string(cardCfg.dram.banks) + ") @ Cr=" +
                    TextTable::num(cfg.cr, 2));
    table.header({"metric", "golden", "faulty (avg)"});
    table.row({"packets processed",
               TextTable::num(g.packetsProcessed, 0),
               TextTable::num(f.packetsProcessed, 0)});
    table.row({"makespan [cycles]",
               TextTable::num(g.makespanCycles, 0),
               TextTable::num(f.makespanCycles, 0)});
    table.row({"throughput [pkt/s]",
               TextTable::num(g.throughputPps, 0),
               TextTable::num(f.throughputPps, 0)});
    table.row({"load imbalance",
               TextTable::num(g.loadImbalance, 3),
               TextTable::num(f.loadImbalance, 3)});
    table.row({"ingress drops",
               TextTable::num(g.ingressDrops, 0),
               TextTable::num(f.ingressDrops, 0)});
    table.row({"DRAM accesses",
               TextTable::num(g.dramAccesses, 0),
               TextTable::num(f.dramAccesses, 0)});
    table.row({"DRAM row hits",
               TextTable::num(g.dramRowHits, 0),
               TextTable::num(f.dramRowHits, 0)});
    table.row({"DRAM row misses",
               TextTable::num(g.dramRowMisses, 0),
               TextTable::num(f.dramRowMisses, 0)});
    table.row({"DRAM row conflicts",
               TextTable::num(g.dramRowConflicts, 0),
               TextTable::num(f.dramRowConflicts, 0)});
    table.row({"DRAM row-hit fraction",
               TextTable::num(g.dramRowHitFraction, 4),
               TextTable::num(f.dramRowHitFraction, 4)});
    table.row({"DRAM stall [cycles]",
               TextTable::num(g.dramStallCycles, 0),
               TextTable::num(f.dramStallCycles, 0)});
    table.row({"fatal fraction", "0",
               TextTable::num(res.fatalFraction, 3)});
    std::fputs((csv ? table.csv() : table.render()).c_str(), stdout);

    TextTable chips("per-chip (golden)");
    chips.header({"chip", "packets", "makespan [cycles]"});
    for (std::size_t c = 0; c < g.chipPackets.size(); ++c)
        chips.row({std::to_string(c),
                   TextTable::num(g.chipPackets[c], 0),
                   TextTable::num(g.chipMakespanCycles[c], 0)});
    std::fputs((csv ? chips.csv() : chips.render()).c_str(), stdout);
    return 0;
}
