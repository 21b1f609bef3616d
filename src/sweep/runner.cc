#include "sweep/runner.hh"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>

#include "apps/app.hh"
#include "common/logging.hh"
#include "common/pool.hh"

namespace clumsy::sweep
{

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

} // namespace

SweepCell
goldenCell(const SweepCell &cell)
{
    SweepCell golden = cell;
    golden.point.dynamic = false;
    if (mem::usesParity(golden.scheme))
        golden.scheme = mem::RecoveryScheme::OneStrike;
    return golden;
}

SweepOutcome
runSweep(const SweepSpec &spec, unsigned jobs,
         const std::map<std::string, CellOutcome> *completed,
         const ProgressFn &progress)
{
    CLUMSY_ASSERT(spec.trials >= 1, "sweep needs at least one trial");
    const auto sweepStart = Clock::now();
    const std::vector<SweepCell> cells = expand(spec);

    SweepOutcome outcome;
    outcome.spec = spec;
    outcome.jobs = jobs == 0 ? WorkStealingPool::hardwareWorkers()
                             : jobs;
    outcome.cells.resize(cells.size());

    // Partition into cells to run and cells satisfied by --resume.
    std::vector<std::size_t> toRun;
    toRun.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        CellOutcome &out = outcome.cells[i];
        if (completed) {
            auto it = completed->find(cells[i].key());
            if (it != completed->end()) {
                out = it->second;
                out.cell = cells[i]; // refresh index for this spec
                out.resumed = true;
                ++outcome.resumedCount;
                continue;
            }
        }
        out.cell = cells[i];
        toRun.push_back(i);
    }

    const WorkStealingPool pool(outcome.jobs);
    const unsigned trials = spec.trials;
    const std::size_t n = toRun.size();

    // Nested-parallelism budget: a cell's chip-jobs request (the
    // chip-jobs= axis) is clamped so sweep workers times chip workers
    // never oversubscribes the machine. Chip runs are byte-identical
    // across chip-jobs values, so the clamp changes scheduling only.
    auto cellNpuConfig = [&](const SweepCell &cell) {
        npu::NpuConfig npuCfg = makeNpuConfig(cell);
        npuCfg.chipJobs = WorkStealingPool::budgetedWorkers(
            npuCfg.chipJobs, outcome.jobs);
        return npuCfg;
    };

    // Phase 1: one golden job per distinct golden. Core cells with
    // one goldenCell() key share the golden of the first of them,
    // owner[g] for golden g, whose wall time counts the job; chip and
    // card cells run their own. The records are written once here and
    // only read afterwards, so phase 2 shares them freely. Chip-model
    // cells run the npu harness instead of the single-core one; both
    // produce RunMetrics, so the reduction is shared.
    std::vector<std::size_t> goldenOf(n);
    std::vector<std::size_t> owner;
    std::map<std::string, std::size_t> sharedGolden;
    for (std::size_t k = 0; k < n; ++k) {
        const SweepCell &cell = cells[toRun[k]];
        std::size_t gi = owner.size();
        if (!cell.isCard() && !cell.isNpu())
            gi = sharedGolden.try_emplace(goldenCell(cell).key(), gi)
                     .first->second;
        goldenOf[k] = gi;
        if (gi == owner.size())
            owner.push_back(k);
    }
    const std::size_t g = owner.size();
    std::vector<core::GoldenRecord> goldens(g);
    std::vector<std::unique_ptr<npu::ChipRun>> chipGoldens(g);
    std::vector<std::unique_ptr<linecard::CardRunResult>>
        cardGoldens(g);
    std::vector<double> goldenMs(g);
    pool.run(g, [&](std::size_t i) {
        const SweepCell &cell = cells[toRun[owner[i]]];
        const core::ExperimentConfig cfg = makeConfig(spec, cell);
        const auto start = Clock::now();
        if (cell.isCard()) {
            cardGoldens[i] =
                std::make_unique<linecard::CardRunResult>(
                    linecard::runCard(apps::appFactory(cell.app), cfg,
                                      cellNpuConfig(cell),
                                      makeCardConfig(cell), true, 0));
        } else if (cell.isNpu()) {
            chipGoldens[i] = std::make_unique<npu::ChipRun>(
                npu::runChipGolden(apps::appFactory(cell.app), cfg,
                                   cellNpuConfig(cell)));
        } else {
            goldens[i] =
                core::runGolden(apps::appFactory(cell.app), cfg);
        }
        goldenMs[i] = msSince(start);
    });
    // A cell that reuses another cell's golden spent no time on it.
    auto cellGoldenMs = [&](std::size_t k) {
        return owner[goldenOf[k]] == k ? goldenMs[goldenOf[k]] : 0.0;
    };

    // Phase 2: the (cell, trial) job grid. Each job seeds its own
    // fault stream from (config, trial), so placement is free.
    std::vector<core::RunMetrics> trialMetrics(n * trials);
    std::vector<npu::ChipMetrics> trialChips(n * trials);
    std::vector<linecard::CardMetrics> trialCards(n * trials);
    std::vector<double> trialMs(n * trials);
    std::vector<std::atomic<unsigned>> remaining(n);
    for (auto &r : remaining)
        r.store(trials, std::memory_order_relaxed);
    std::atomic<std::size_t> cellsDone{0};
    std::mutex progressMutex;

    pool.run(n * trials, [&](std::size_t j) {
        const std::size_t k = j / trials;
        const unsigned t = static_cast<unsigned>(j % trials);
        const SweepCell &cell = cells[toRun[k]];
        const core::ExperimentConfig cfg = makeConfig(spec, cell);
        const auto start = Clock::now();
        if (cell.isCard()) {
            const linecard::CardRunResult r = linecard::runCard(
                apps::appFactory(cell.app), cfg, cellNpuConfig(cell),
                makeCardConfig(cell), false, t);
            trialMetrics[j] = linecard::mergeCardRunMetrics(r);
            trialCards[j] = r.card;
        } else if (cell.isNpu()) {
            npu::ChipRun r = npu::runChipTrial(
                apps::appFactory(cell.app), cfg, cellNpuConfig(cell),
                t, *chipGoldens[goldenOf[k]]);
            trialMetrics[j] = std::move(r.merged);
            trialChips[j] = std::move(r.chip);
        } else {
            trialMetrics[j] = core::runFaultyTrial(
                apps::appFactory(cell.app), cfg, t, goldens[goldenOf[k]]);
        }
        trialMs[j] = msSince(start);
        if (remaining[k].fetch_sub(1, std::memory_order_acq_rel) ==
            1 && progress) {
            double cellMs = cellGoldenMs(k);
            for (unsigned u = 0; u < trials; ++u)
                cellMs += trialMs[k * trials + u];
            const std::size_t done =
                cellsDone.fetch_add(1, std::memory_order_relaxed) + 1;
            std::lock_guard<std::mutex> lock(progressMutex);
            progress(cell, cellMs, done, n);
        }
    });

    // Reduction: cells in expansion order, trials in trial order —
    // the fixed order that makes the aggregates independent of the
    // schedule above.
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = toRun[k];
        const std::size_t gk = goldenOf[k];
        std::vector<core::RunMetrics> ordered(
            trialMetrics.begin() +
                static_cast<std::ptrdiff_t>(k * trials),
            trialMetrics.begin() +
                static_cast<std::ptrdiff_t>((k + 1) * trials));
        CellOutcome &out = outcome.cells[i];
        if (cells[i].isCard()) {
            out.result = core::aggregateTrials(
                cells[i].app,
                core::GoldenRecord{
                    linecard::mergeCardRunMetrics(*cardGoldens[gk]),
                    {}},
                ordered);
            out.hasCard = true;
            out.cardGolden = cardGoldens[gk]->card;
            out.cardFaulty = linecard::averageCardMetrics(
                {trialCards.begin() +
                     static_cast<std::ptrdiff_t>(k * trials),
                 trialCards.begin() +
                     static_cast<std::ptrdiff_t>((k + 1) * trials)});
        } else if (cells[i].isNpu()) {
            out.result = core::aggregateTrials(
                cells[i].app,
                core::GoldenRecord{chipGoldens[gk]->merged, {}},
                ordered);
            out.hasNpu = true;
            out.npuGolden = chipGoldens[gk]->chip;
            out.npuFaulty = npu::averageChipMetrics(
                {trialChips.begin() +
                     static_cast<std::ptrdiff_t>(k * trials),
                 trialChips.begin() +
                     static_cast<std::ptrdiff_t>((k + 1) * trials)});
        } else {
            out.result = core::aggregateTrials(cells[i].app,
                                               goldens[gk], ordered);
        }
        out.wallMs = cellGoldenMs(k);
        for (unsigned t = 0; t < trials; ++t)
            out.wallMs += trialMs[k * trials + t];
    }

    outcome.wallMs = msSince(sweepStart);
    return outcome;
}

} // namespace clumsy::sweep
