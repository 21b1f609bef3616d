/**
 * @file
 * Line-card wall-clock baseline: --card-jobs speedup on a chips x
 * jobs grid, written machine-readable to BENCH_card.json.
 *
 * Times runCardExperiment (golden + trials; each run advances the
 * chips of one card together on one thread) at a shared-DRAM
 * configuration (8 banks behind every chip's L2, mshrs=2, l2=shared,
 * flow dispatch within a chip, rr across chips, two-strike at
 * Cr=0.5) and records, per cell: wall milliseconds, host-side packet
 * throughput, the measured speedup over the card-jobs=1 run of the
 * same card, and the critical-path model bound
 * runs / ceil(runs / jobs) with runs = trials + 1 — --card-jobs fans
 * the golden run and the trials out as whole runs, so the bound is
 * min(jobs, trials + 1) when the runs divide evenly over the workers,
 * and does not depend on the chip count.
 * Every cell is byte-compared against its serial twin (the
 * determinism contract), and the host's hardware thread count is
 * recorded so a reader can tell a 1-CPU container (measured speedup
 * pinned at ~1x, model bound is the tracked number) from a real
 * multi-core run.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "apps/app.hh"
#include "bench/bench_common.hh"
#include "common/pool.hh"
#include "core/experiment.hh"
#include "linecard/card.hh"
#include "npu/config.hh"
#include "sweep/json.hh"
#include "sweep/sink.hh"

using namespace clumsy;

namespace
{

struct Cell
{
    unsigned chips;
    unsigned jobs;    ///< requested --card-jobs (0 = hardware)
    double wallMs;
    double pps;       ///< host-side packets per second, all runs
    double measured;  ///< wall(jobs=1) / wall(jobs), same chips
    double model;     ///< runs / ceil(runs / resolved jobs)
    bool identical;   ///< byte-equal to the jobs=1 run
};

/** Timed repetitions per cell; the minimum wall clock is reported. */
constexpr unsigned kReps = 2;

double
wallMsOf(const std::chrono::steady_clock::time_point start)
{
    const auto dt = std::chrono::steady_clock::now() - start;
    return std::chrono::duration<double, std::milli>(dt).count();
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Options opt(argc, argv, 800, 2);
    const std::string app =
        opt.positionals.empty() ? "route" : opt.positionals[0];

    core::ExperimentConfig cfg;
    cfg.numPackets = opt.packets;
    cfg.trials = opt.trials;
    cfg.cr = 0.5;
    cfg.scheme = mem::RecoveryScheme::TwoStrike;

    npu::NpuConfig npuCfg;
    npuCfg.peCount = 2;
    npuCfg.mshrs = 2;
    npuCfg.l2 = npu::L2Mode::Shared;
    npuCfg.dispatch = npu::DispatchPolicy::FlowHash;

    const unsigned hostThreads = WorkStealingPool::hardwareWorkers();

    // Warm-up: one untimed card run so the first timed cell does not
    // pay the cold-start (page faults, lazy allocation) alone.
    {
        linecard::CardConfig warm;
        warm.chips = 1;
        warm.dram.banks = 8;
        (void)linecard::runCard(apps::appFactory(app), cfg, npuCfg,
                                warm, true, 0);
    }

    std::vector<Cell> cells;
    TextTable table(app + " @ Cr=0.50, two-strike, 8-bank shared "
                          "DRAM: card wall clock vs --card-jobs "
                          "(2 PEs/chip, mshrs=2, l2=shared)");
    table.header({"chips", "card-jobs", "wall [ms]", "pkt/s (host)",
                  "speedup", "model bound", "identical"});

    for (const unsigned chips : {1u, 2u, 4u}) {
        std::string serialRepr;
        double serialMs = 0.0;
        for (const unsigned jobs : {1u, 2u, 4u, 0u}) {
            linecard::CardConfig cardCfg;
            cardCfg.chips = chips;
            cardCfg.dram.banks = 8;
            cardCfg.cardJobs = jobs;

            // Min over reps: the least-disturbed run is the honest
            // wall-clock figure, same policy as bench/sim_perf.
            double wallMs = 0.0;
            std::string repr;
            for (unsigned rep = 0; rep < kReps; ++rep) {
                const auto start = std::chrono::steady_clock::now();
                const linecard::CardExperimentResult res =
                    linecard::runCardExperiment(apps::appFactory(app),
                                                cfg, npuCfg, cardCfg);
                const double ms = wallMsOf(start);
                if (rep == 0 || ms < wallMs)
                    wallMs = ms;
                repr = sweep::hexU64(res.golden.valueDigest) +
                       sweep::cardMetricsJson(res.golden.card) +
                       sweep::cardMetricsJson(res.faultyCard) +
                       sweep::formatDouble(res.fatalFraction);
            }
            if (jobs == 1) {
                serialRepr = repr;
                serialMs = wallMs;
            }

            // Every run (golden + trials) advances all chips, so the
            // host-side throughput counts every simulated packet.
            const double totalPackets =
                static_cast<double>(opt.packets) * (1.0 + opt.trials);

            const unsigned runs = opt.trials + 1;
            const unsigned resolved =
                std::min(jobs == 0 ? hostThreads : jobs, runs);

            Cell cell;
            cell.chips = chips;
            cell.jobs = jobs;
            cell.wallMs = wallMs;
            cell.pps =
                wallMs > 0.0 ? totalPackets / (wallMs / 1000.0) : 0.0;
            cell.measured = wallMs > 0.0 ? serialMs / wallMs : 0.0;
            cell.model = static_cast<double>(runs) /
                         ((runs + resolved - 1) / resolved);
            cell.identical = repr == serialRepr;
            cells.push_back(cell);

            table.row({std::to_string(chips),
                       jobs == 0 ? "hw" : std::to_string(jobs),
                       TextTable::num(wallMs, 1),
                       TextTable::num(cell.pps, 0),
                       TextTable::num(cell.measured, 2) + "x",
                       TextTable::num(cell.model, 2) + "x",
                       cell.identical ? "yes" : "NO"});
        }
    }
    opt.print(table);

    sweep::JsonWriter w(2);
    w.beginObject();
    w.key("bench").value("card_scale");
    w.key("app").value(app);
    w.key("packets").value(static_cast<std::uint64_t>(opt.packets));
    w.key("trials").value(static_cast<std::uint64_t>(opt.trials));
    w.key("host_threads").value(
        static_cast<std::uint64_t>(hostThreads));
    w.key("reps").value(std::uint64_t{kReps});
    w.key("config").beginObject();
    w.key("pes_per_chip").value(std::uint64_t{2});
    w.key("mshrs").value(std::uint64_t{2});
    w.key("l2").value("shared");
    w.key("dispatch").value("flow");
    w.key("card_dispatch").value("rr");
    w.key("dram_banks").value(std::uint64_t{8});
    w.key("cr").value(0.5);
    w.key("scheme").value("two-strike");
    w.endObject();
    w.key("cells").beginArray();
    for (const Cell &c : cells) {
        w.beginObject();
        w.key("name").value("chips" + std::to_string(c.chips) +
                            "-jobs" + std::to_string(c.jobs));
        w.key("chips").value(static_cast<std::uint64_t>(c.chips));
        w.key("card_jobs").value(static_cast<std::uint64_t>(c.jobs));
        w.key("wall_ms").value(c.wallMs);
        w.key("pps").value(c.pps);
        w.key("speedup_measured").value(c.measured);
        w.key("speedup_model").value(c.model);
        w.key("identical").value(c.identical);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    const char *outPath = "BENCH_card.json";
    std::ofstream out(outPath);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", outPath);
        return 1;
    }
    out << w.str() << "\n";
    std::printf("wrote %s\n", outPath);

    bool ok = true;
    for (const Cell &c : cells)
        ok = ok && c.identical;
    return ok ? 0 : 1;
}
