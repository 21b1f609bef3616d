/**
 * @file
 * clumsy_sweep: parallel experiment-grid driver.
 *
 * Expands a declarative grid over the axes of sweep/spec.hh (app, Cr,
 * scheme, ... control-plane mix), runs every cell's golden pass and
 * faulty trials as independent jobs on a work-stealing pool, and
 * writes JSON (and optionally CSV) with full provenance. Aggregates
 * are bit-identical for any --jobs value; see EXPERIMENTS.md for the
 * schema.
 *
 *   clumsy_sweep --grid 'app=route,md5;cr=1,0.5,0.25;scheme=two-strike' \
 *                --jobs 8 --out sweep.json
 *   clumsy_sweep --grid 'app=all;cr=0.5,0.25;trials=8' --out t1.json \
 *                --resume
 */

#include <cstdio>

#include "common/cli.hh"
#include "common/logging.hh"
#include "sweep/runner.hh"
#include "sweep/sink.hh"

using namespace clumsy;

int
main(int argc, char **argv)
{
    setQuiet(true);

    std::string grid, outPath, csvPath;
    unsigned jobs = 0;
    bool resume = false, noTiming = false, quietProgress = false;

    cli::ArgParser parser(
        "clumsy_sweep",
        "Run an experiment grid in parallel and export the "
        "aggregated results.");
    parser.section("grid");
    parser.optString(
        "--grid", "SPEC",
        "semicolon-separated key=value,value,... dimensions; keys: " +
            sweep::gridKeys(),
        &grid);
    parser.section("execution");
    parser.optUnsigned("--jobs", "N",
                       "worker threads (default: all hardware threads)",
                       &jobs);
    parser.flag("--resume",
                "skip cells already present in the --out file", &resume);
    parser.section("output");
    parser.optString("--out", "FILE", "JSON output path (required)",
                     &outPath);
    parser.optString("--csv", "FILE", "also write a flat CSV table",
                     &csvPath);
    parser.flag("--no-timing",
                "omit run-environment provenance (git, jobs, wall "
                "times) so the JSON and CSV depend only on the grid",
                &noTiming);
    parser.flag("--quiet", "suppress per-cell progress on stderr",
                &quietProgress);
    parser.epilog(
        "example:\n"
        "  clumsy_sweep --grid 'app=all;cr=0.5,0.25;trials=8' \\\n"
        "               --jobs 8 --out table1.json");
    parser.parse(argc, argv);

    if (grid.empty())
        fatal("--grid is required (try --help)");
    if (outPath.empty())
        fatal("--out is required (try --help)");

    const sweep::SweepSpec spec = sweep::SweepSpec::parse(grid);

    std::map<std::string, sweep::CellOutcome> completed;
    if (resume)
        completed = sweep::loadCompletedCells(outPath);

    const std::size_t total = spec.cellCount();
    sweep::ProgressFn progress;
    if (!quietProgress) {
        progress = [](const sweep::SweepCell &cell, double wallMs,
                      std::size_t done, std::size_t n) {
            std::fprintf(stderr, "[%zu/%zu] %s  %.0f ms\n", done, n,
                         cell.key().c_str(), wallMs);
        };
    }

    const sweep::SweepOutcome outcome = sweep::runSweep(
        spec, jobs, resume ? &completed : nullptr, progress);

    sweep::writeFile(outPath, sweep::renderJson(outcome, !noTiming));
    if (!csvPath.empty())
        sweep::writeFile(csvPath, sweep::renderCsv(outcome, !noTiming));

    std::fprintf(stderr,
                 "%zu cells (%zu resumed), %u jobs, %.0f ms -> %s\n",
                 total, outcome.resumedCount, outcome.jobs,
                 outcome.wallMs, outPath.c_str());
    return 0;
}
