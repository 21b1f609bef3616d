/**
 * @file
 * Parallel sweep execution engine.
 *
 * runSweep() expands a SweepSpec into cells, runs each cell's golden
 * pass and its faulty trials as independent jobs on a work-stealing
 * pool, and reduces per-trial metrics into ExperimentResult
 * aggregates.
 *
 * Determinism: every job derives its RNG streams purely from
 * (spec, cell, trial) — the simulator is seeded per run, never from
 * global state — and the reduction always walks trials in trial-index
 * order and cells in expansion order. The aggregates are therefore
 * bit-identical for any worker count and any completion order; only
 * the measured wall times vary between runs.
 *
 * Execution shape: phase 1 runs one golden job per distinct golden
 * (goldenCell()); phase 2 runs the (cell, trial) grid, each trial
 * comparing against its cell's immutable GoldenRecord (shared
 * read-only across threads and cells).
 */

#ifndef CLUMSY_SWEEP_RUNNER_HH
#define CLUMSY_SWEEP_RUNNER_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "linecard/card.hh"
#include "npu/chip.hh"
#include "sweep/spec.hh"

namespace clumsy::sweep
{

/** One cell's aggregated outcome. */
struct CellOutcome
{
    SweepCell cell;
    core::ExperimentResult result;
    /**
     * Golden + all trials, summed CPU-side. A golden shared by several
     * cells counts only in the first of them.
     */
    double wallMs = 0.0;
    bool resumed = false; ///< loaded from a previous output file

    /** Chip-level extras, present when the cell ran the chip model. */
    bool hasNpu = false;
    npu::ChipMetrics npuGolden;
    npu::ChipMetrics npuFaulty; ///< componentwise mean over trials

    /** Card-level extras, present when the cell ran the card tier. */
    bool hasCard = false;
    linecard::CardMetrics cardGolden;
    linecard::CardMetrics cardFaulty; ///< componentwise mean over trials
};

/** Everything a sweep produced, in cell expansion order. */
struct SweepOutcome
{
    SweepSpec spec;
    std::vector<CellOutcome> cells;
    unsigned jobs = 1;
    double wallMs = 0.0;
    std::size_t resumedCount = 0;
};

/**
 * Progress callback: invoked (serialized by the runner) after each
 * cell's last trial finishes, with cells completed so far / total
 * cells to run this invocation.
 */
using ProgressFn = std::function<void(
    const SweepCell &cell, double wallMs, std::size_t done,
    std::size_t total)>;

/**
 * The cell whose golden run stands for @p cell's: the same cell at its
 * static Cr with dynamic frequency off, and with any parity scheme as
 * one-strike. A golden injects nothing, so it never adapts its clock
 * and never trips parity, and these cells' goldens are equal field for
 * field. runSweep() runs one golden per distinct goldenCell().key() of
 * its single-core cells, the first such cell's.
 */
SweepCell goldenCell(const SweepCell &cell);

/**
 * Run the sweep on @p jobs worker threads (0 = hardware default).
 * Cells whose key() appears in @p completed are not re-run; their
 * stored outcome is carried into the result (--resume).
 */
SweepOutcome
runSweep(const SweepSpec &spec, unsigned jobs,
         const std::map<std::string, CellOutcome> *completed = nullptr,
         const ProgressFn &progress = {});

} // namespace clumsy::sweep

#endif // CLUMSY_SWEEP_RUNNER_HH
