/**
 * @file
 * Tests of the sweep engine: grid parsing and expansion, scheduler
 * determinism across worker counts, the JSON sink, and --resume.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <regex>

#include "apps/app.hh"
#include "common/cli.hh"
#include "common/pool.hh"
#include "core/experiment.hh"
#include "ctrl/ctrl.hh"
#include "sweep/json.hh"
#include "sweep/run_options.hh"
#include "sweep/runner.hh"
#include "sweep/sink.hh"
#include "sweep/spec.hh"

using namespace clumsy;
using namespace clumsy::sweep;

namespace
{

/** A small two-cell spec that still exercises faults and trials. */
SweepSpec
smallSpec()
{
    SweepSpec spec;
    spec.apps = {"crc"};
    spec.points = {{0.5, false}, {0.25, false}};
    spec.schemes = {mem::RecoveryScheme::TwoStrike};
    spec.packets = 120;
    spec.trials = 3;
    return spec;
}

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

/** Drop the final (wall_ms) column from every CSV line. */
std::string
stripWallColumn(const std::string &csv)
{
    std::string out;
    std::size_t start = 0;
    while (start < csv.size()) {
        std::size_t end = csv.find('\n', start);
        if (end == std::string::npos)
            end = csv.size();
        const std::string line = csv.substr(start, end - start);
        const std::size_t comma = line.rfind(',');
        out += line.substr(0, comma) + "\n";
        start = end + 1;
    }
    return out;
}

} // namespace

// --- grid string parsing and expansion -------------------------------

TEST(SweepSpec, ParseAppliesDefaultsAndOverrides)
{
    const SweepSpec spec = SweepSpec::parse(
        "app=route,md5;cr=1,0.5,dynamic;scheme=two-strike;trials=8");
    EXPECT_EQ(spec.apps, (std::vector<std::string>{"route", "md5"}));
    ASSERT_EQ(spec.points.size(), 3u);
    EXPECT_DOUBLE_EQ(spec.points[0].cr, 1.0);
    EXPECT_FALSE(spec.points[0].dynamic);
    EXPECT_DOUBLE_EQ(spec.points[1].cr, 0.5);
    EXPECT_TRUE(spec.points[2].dynamic);
    EXPECT_EQ(spec.schemes,
              (std::vector<mem::RecoveryScheme>{
                  mem::RecoveryScheme::TwoStrike}));
    EXPECT_EQ(spec.trials, 8u);
    // Untouched dimensions keep their single-value defaults.
    EXPECT_EQ(spec.codecs,
              (std::vector<mem::CheckCodec>{mem::CheckCodec::Parity}));
    EXPECT_EQ(spec.planes,
              (std::vector<core::FaultPlane>{core::FaultPlane::Both}));
    EXPECT_EQ(spec.faultScales, (std::vector<double>{1.0}));
    EXPECT_EQ(spec.packets, 2000u);
    EXPECT_EQ(spec.cellCount(), 2u * 3u);
}

TEST(SweepSpec, GridStringRoundTrips)
{
    const SweepSpec spec = SweepSpec::parse(
        "app=crc,url;cr=0.75,dynamic;scheme=all;codec=parity,secded;"
        "plane=both,data;fault-scale=1,2.5;packets=500;trials=2;"
        "seed=42;fault-seed=7");
    const SweepSpec again = SweepSpec::parse(spec.toGridString());
    EXPECT_EQ(again.toGridString(), spec.toGridString());

    const auto cells = expand(spec);
    const auto cellsAgain = expand(again);
    ASSERT_EQ(cells.size(), cellsAgain.size());
    EXPECT_EQ(cells.size(), spec.cellCount());
    for (std::size_t i = 0; i < cells.size(); ++i)
        EXPECT_EQ(cells[i].key(), cellsAgain[i].key());
    EXPECT_EQ(again.packets, 500u);
    EXPECT_EQ(again.traceSeed, 42u);
    EXPECT_EQ(again.faultSeed, 7u);
}

TEST(SweepSpec, ExpansionOrderIsCanonical)
{
    SweepSpec spec;
    spec.apps = {"crc", "md5"};
    spec.points = {{1.0, false}, {0.5, false}};
    const auto cells = expand(spec);
    ASSERT_EQ(cells.size(), 4u);
    // App is the outermost dimension, then the operating point.
    EXPECT_EQ(cells[0].key(),
              "app=crc;cr=1;scheme=no-detection;codec=parity;"
              "plane=both;fault-scale=1");
    EXPECT_EQ(cells[1].key(),
              "app=crc;cr=0.5;scheme=no-detection;codec=parity;"
              "plane=both;fault-scale=1");
    EXPECT_EQ(cells[2].app, "md5");
    for (std::size_t i = 0; i < cells.size(); ++i)
        EXPECT_EQ(cells[i].index, i);
}

TEST(SweepSpec, MakeConfigCarriesEveryKnob)
{
    SweepSpec spec = smallSpec();
    spec.faultScales = {2.0};
    spec.codecs = {mem::CheckCodec::Secded};
    spec.planes = {core::FaultPlane::DataOnly};
    const auto cells = expand(spec);
    const core::ExperimentConfig cfg = makeConfig(spec, cells[0]);
    EXPECT_EQ(cfg.numPackets, spec.packets);
    EXPECT_EQ(cfg.trials, spec.trials);
    EXPECT_DOUBLE_EQ(cfg.cr, 0.5);
    EXPECT_FALSE(cfg.dynamicFrequency);
    EXPECT_EQ(cfg.scheme, mem::RecoveryScheme::TwoStrike);
    EXPECT_EQ(cfg.plane, core::FaultPlane::DataOnly);
    EXPECT_DOUBLE_EQ(cfg.faultScale, 2.0);
    EXPECT_EQ(cfg.processor.hierarchy.codec, mem::CheckCodec::Secded);
}

TEST(SweepSpec, NpuDimensionsParseExpandAndKey)
{
    const SweepSpec spec = SweepSpec::parse(
        "app=crc;pes=1,4;dispatch=rr,flow;per-pe-cr=uniform;"
        "packets=100;trials=2");
    EXPECT_EQ(spec.peCounts, (std::vector<unsigned>{1, 4}));
    EXPECT_EQ(spec.dispatches,
              (std::vector<npu::DispatchPolicy>{
                  npu::DispatchPolicy::RoundRobin,
                  npu::DispatchPolicy::FlowHash}));
    EXPECT_EQ(spec.cellCount(), 4u);

    const SweepSpec again = SweepSpec::parse(spec.toGridString());
    EXPECT_EQ(again.toGridString(), spec.toGridString());

    const auto cells = expand(spec);
    ASSERT_EQ(cells.size(), 4u);
    // The default single-engine rr cell keeps the historical key so
    // result files written before the chip dimensions still resume.
    EXPECT_EQ(cells[0].key(),
              "app=crc;cr=1;scheme=no-detection;codec=parity;"
              "plane=both;fault-scale=1");
    EXPECT_FALSE(cells[0].isNpu());
    // Anything chip-shaped spells out the chip dimensions.
    EXPECT_EQ(cells[1].key(),
              "app=crc;cr=1;scheme=no-detection;codec=parity;"
              "plane=both;fault-scale=1;pes=1;dispatch=flow;"
              "per-pe-cr=uniform");
    EXPECT_TRUE(cells[1].isNpu());
    EXPECT_TRUE(cells[2].isNpu());
    EXPECT_EQ(cells[2].peCount, 4u);
}

TEST(SweepSpec, DvsAndMshrAxesParseExpandAndKey)
{
    const SweepSpec spec = SweepSpec::parse(
        "app=crc;pes=2;dvs=static,queue;mshrs=1,4;packets=100;"
        "trials=2");
    EXPECT_EQ(spec.dvsModes,
              (std::vector<npu::DvsMode>{npu::DvsMode::Static,
                                         npu::DvsMode::Queue}));
    EXPECT_EQ(spec.mshrs, (std::vector<unsigned>{1, 4}));
    EXPECT_EQ(spec.cellCount(), 4u);

    const SweepSpec again = SweepSpec::parse(spec.toGridString());
    EXPECT_EQ(again.toGridString(), spec.toGridString());

    const auto cells = expand(spec);
    ASSERT_EQ(cells.size(), 4u);
    // mshrs is the innermost axis, dvs the one outside it.
    EXPECT_EQ(cells[0].dvs, npu::DvsMode::Static);
    EXPECT_EQ(cells[0].mshrs, 1u);
    EXPECT_EQ(cells[1].mshrs, 4u);
    EXPECT_EQ(cells[2].dvs, npu::DvsMode::Queue);
    // Non-default values spell themselves out in the key...
    EXPECT_NE(cells[0].key().find(";dvs=static"), std::string::npos);
    EXPECT_NE(cells[1].key().find(";mshrs=4"), std::string::npos);
    // ...and the knobs reach the chip configuration.
    const npu::NpuConfig cfg = makeNpuConfig(cells[3]);
    EXPECT_EQ(cfg.dvs, npu::DvsMode::Queue);
    EXPECT_EQ(cfg.mshrs, 4u);

    EXPECT_EXIT(SweepSpec::parse("app=crc;dvs=turbo"),
                ::testing::ExitedWithCode(1), "valid choices");
    EXPECT_EXIT(SweepSpec::parse("app=crc;mshrs=0"),
                ::testing::ExitedWithCode(1), "mshrs");
}

TEST(SweepSpec, DefaultDvsAndMshrsKeepHistoricalKeys)
{
    // Result files written before the dvs/mshrs axes existed must
    // still resume: a chip cell at the defaults (dvs=fault, mshrs=1)
    // keys exactly as it did before those axes were added.
    const SweepSpec spec = SweepSpec::parse(
        "app=crc;pes=2;dispatch=flow;packets=100;trials=2");
    const auto cells = expand(spec);
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_EQ(cells[0].key(),
              "app=crc;cr=1;scheme=no-detection;codec=parity;"
              "plane=both;fault-scale=1;pes=2;dispatch=flow;"
              "per-pe-cr=uniform");
    // And either axis alone turns a default cell into a chip cell.
    const auto dvsCells =
        expand(SweepSpec::parse("app=crc;dvs=queue"));
    ASSERT_EQ(dvsCells.size(), 1u);
    EXPECT_TRUE(dvsCells[0].isNpu());
    EXPECT_NE(dvsCells[0].key().find(";dvs=queue"),
              std::string::npos);
}

TEST(SweepSpec, MakeNpuConfigParsesPerPeCr)
{
    SweepCell cell;
    cell.peCount = 2;
    cell.perPeCr = "1:0.5";
    const npu::NpuConfig cfg = makeNpuConfig(cell);
    EXPECT_EQ(cfg.peCount, 2u);
    ASSERT_EQ(cfg.perPeCr.size(), 2u);
    EXPECT_DOUBLE_EQ(cfg.perPeCr[0], 1.0);
    EXPECT_DOUBLE_EQ(cfg.perPeCr[1], 0.5);

    SweepCell bad;
    bad.peCount = 4;
    bad.perPeCr = "1:0.5";
    EXPECT_EXIT(makeNpuConfig(bad), ::testing::ExitedWithCode(1),
                "names 2 engines");
}

TEST(SweepSpec, GapAndChipJobsAxesParseExpandAndKey)
{
    const SweepSpec spec = SweepSpec::parse(
        "app=crc;gap=0,400;chip-jobs=1,4;packets=100;trials=2");
    EXPECT_EQ(spec.arrivalGaps, (std::vector<std::int64_t>{0, 400}));
    EXPECT_EQ(spec.chipJobs, (std::vector<unsigned>{1, 4}));
    EXPECT_EQ(spec.cellCount(), 4u);

    const SweepSpec again = SweepSpec::parse(spec.toGridString());
    EXPECT_EQ(again.toGridString(), spec.toGridString());

    const auto cells = expand(spec);
    ASSERT_EQ(cells.size(), 4u);
    // chip-jobs is the innermost axis, gap the one outside it.
    EXPECT_EQ(cells[0].arrivalGap, 0);
    EXPECT_EQ(cells[0].chipJobs, 1u);
    EXPECT_EQ(cells[1].chipJobs, 4u);
    EXPECT_EQ(cells[2].arrivalGap, 400);
    // Defaults keep the historical key (pre-axis result files must
    // still resume); non-defaults spell themselves out.
    EXPECT_EQ(cells[0].key(),
              "app=crc;cr=1;scheme=no-detection;codec=parity;"
              "plane=both;fault-scale=1");
    EXPECT_FALSE(cells[0].isNpu());
    EXPECT_NE(cells[1].key().find(";chip-jobs=4"), std::string::npos);
    EXPECT_EQ(cells[1].key().find(";gap="), std::string::npos);
    EXPECT_NE(cells[2].key().find(";gap=400"), std::string::npos);
    EXPECT_TRUE(cells[2].isNpu());

    // Both knobs reach the chip configuration.
    const npu::NpuConfig cfg = makeNpuConfig(cells[3]);
    EXPECT_EQ(cfg.arrivalGapCycles, 400);
    EXPECT_EQ(cfg.chipJobs, 4u);
}

TEST(SweepSpec, CtrlAxesParseExpandAndKey)
{
    const SweepSpec spec = SweepSpec::parse(
        "app=lpm;ctrl=0,50;updates=fib;packets=100;trials=2");
    EXPECT_EQ(spec.ctrlRates, (std::vector<std::uint32_t>{0, 50}));
    EXPECT_EQ(spec.updateMixes,
              (std::vector<ctrl::CtrlMix>{ctrl::CtrlMix::Fib}));
    EXPECT_EQ(spec.cellCount(), 2u);

    const SweepSpec again = SweepSpec::parse(spec.toGridString());
    EXPECT_EQ(again.toGridString(), spec.toGridString());

    const auto cells = expand(spec);
    ASSERT_EQ(cells.size(), 2u);
    // Rate 0 (the default, no events) elides both ctrl keys so
    // pre-subsystem result files still resume; a live rate spells out
    // the rate and any non-default mix.
    EXPECT_EQ(cells[0].key().find(";ctrl="), std::string::npos);
    EXPECT_EQ(cells[0].key().find(";updates="), std::string::npos);
    EXPECT_NE(cells[1].key().find(";ctrl=50"), std::string::npos);
    EXPECT_NE(cells[1].key().find(";updates=fib"), std::string::npos);

    // updates=all is the default and elides even at a live rate.
    const auto allCells = expand(
        SweepSpec::parse("app=lpm;ctrl=50;packets=100;trials=2"));
    ASSERT_EQ(allCells.size(), 1u);
    EXPECT_NE(allCells[0].key().find(";ctrl=50"), std::string::npos);
    EXPECT_EQ(allCells[0].key().find(";updates="), std::string::npos);

    // Both knobs reach the experiment configuration.
    const core::ExperimentConfig cfg = makeConfig(spec, cells[1]);
    EXPECT_EQ(cfg.ctrl.rate, 50u);
    EXPECT_EQ(cfg.ctrl.mix, ctrl::CtrlMix::Fib);
}

TEST(SweepSpec, RejectsDegenerateRunsAndWrappingCounts)
{
    // The same ExperimentConfig::validate the CLIs call, with the same
    // messages; packets=0 used to abort the process.
    EXPECT_EXIT(SweepSpec::parse("app=crc;packets=0"),
                ::testing::ExitedWithCode(1), "packets must be >= 1");
    EXPECT_EXIT(SweepSpec::parse("app=crc;trials=0"),
                ::testing::ExitedWithCode(1), "trials must be >= 1");
    EXPECT_EXIT(SweepSpec::parse("app=crc;fault-scale=1,-1"),
                ::testing::ExitedWithCode(1), "fault-scale must be >= 0");
    // 32-bit keys refuse values a cast would wrap: ctrl=2^32 used to
    // become a silent no-ctrl cell, pes=2^32+2 a 2-PE chip.
    EXPECT_EXIT(SweepSpec::parse("app=lpm;ctrl=4294967296"),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(SweepSpec::parse("app=crc;pes=4294967298"),
                ::testing::ExitedWithCode(1), "out of range");
}

TEST(SweepSpec, RejectsOverflowingGapsAndRetiredCardJobs)
{
    // A gap past INT64_MAX used to wrap negative; one whose last
    // arrival passes INT64_MAX quanta (16x churn stretch, 12 quanta
    // per cycle) used to overflow the arrival arithmetic. Both die
    // with the CLI's message, whichever order packets= comes in.
    EXPECT_EXIT(SweepSpec::parse("app=crc;gap=18446744073709551615"),
                ::testing::ExitedWithCode(1),
                "gap: '18446744073709551615' is out of range");
    EXPECT_EXIT(SweepSpec::parse("app=crc;gap=980375429087455;packets=50"),
                ::testing::ExitedWithCode(1),
                "gap: '980375429087455' is out of range");
    EXPECT_EQ(SweepSpec::parse("packets=50;app=crc;gap=980375429087454")
                  .arrivalGaps,
              (std::vector<std::int64_t>{980375429087454}));

    // card-jobs only renamed a cell; 1 still parses so every grid
    // string round-trips.
    EXPECT_EXIT(SweepSpec::parse("app=crc;chips=2;card-jobs=1,4"),
                ::testing::ExitedWithCode(1), "clumsy_card --card-jobs");
    EXPECT_EQ(SweepSpec::parse("app=crc;card-jobs=1").cardJobs,
              (std::vector<unsigned>{1}));
}

// --- the single-run CLI option set -----------------------------------

namespace
{

/** configEcho() after parsing "--app route" + @p args for @p tier. */
std::string
echoOf(std::vector<std::string> args, Tier tier = Tier::Card)
{
    RunOptions opts;
    cli::ArgParser parser("test", "");
    opts.add(parser, tier);
    args.insert(args.begin(), {"test", "--app", "route"});
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    parser.parse(static_cast<int>(argv.size()), argv.data());
    opts.finish();
    return opts.configEcho();
}

} // namespace

TEST(RunOptions, DefaultCoreEchoKeepsTheHistoricalBytes)
{
    EXPECT_EQ(echoOf({}, Tier::Core),
              "{\n"
              "  \"app\": \"route\",\n"
              "  \"cr\": 1,\n"
              "  \"dynamic\": false,\n"
              "  \"scheme\": \"no-detection\",\n"
              "  \"codec\": \"parity\",\n"
              "  \"plane\": \"both\",\n"
              "  \"fault_scale\": 1,\n"
              "  \"packets\": 2000,\n"
              "  \"trials\": 4,\n"
              "  \"seed\": 1,\n"
              "  \"fault_seed\": 24301,\n");
}

TEST(RunOptions, EveryModelFlagChangesTheEcho)
{
    // Two runs that differ in any modeled knob must not print the
    // same config next to different results.
    const std::string base = echoOf({});
    const std::vector<std::vector<std::string>> variants = {
        // run group
        {"--flows", "64"}, {"--churn", "100"}, {"--ctrl-rate", "50"},
        {"--flow-zipf", "0.5"}, {"--session-capacity", "64"},
        {"--session-timeout", "64"}, {"--cr", "0.5"}, {"--dynamic"},
        {"--scheme", "two-strike"}, {"--codec", "secded"},
        {"--subblock"}, {"--fault-map", "spatial"}, {"--way-retire", "2"},
        {"--packets", "10"}, {"--trials", "2"}, {"--plane", "data"},
        {"--fault-scale", "4"}, {"--seed", "9"}, {"--fault-seed", "9"},
        // chip group
        {"--pes", "2"}, {"--dispatch", "flow"}, {"--queue-cap", "4"},
        {"--drop"}, {"--arrival-gap", "9"}, {"--per-pe-cr", "0.5"},
        {"--dvs", "queue"}, {"--mshrs", "2"}, {"--l2", "shared"},
        {"--flow-rehash"},
        // card group
        {"--chips", "2"}, {"--card-dispatch", "flow"},
        {"--dram-banks", "4"}, {"--dram-row-bytes", "1024"},
        {"--dram-hit", "50"}, {"--dram-miss", "100"},
        {"--dram-conflict", "200"}, {"--ingress-cap", "8"},
        {"--per-chip-cr", "0.5"}};
    for (const auto &v : variants)
        EXPECT_NE(echoOf(v), base) << v[0];

    // Knobs that only qualify another one differ once it is on.
    EXPECT_NE(echoOf({"--fault-map", "spatial", "--fault-map-seed", "7"}),
              echoOf({"--fault-map", "spatial"}));
    EXPECT_NE(echoOf({"--ctrl-rate", "50", "--ctrl-mix", "fib"}),
              echoOf({"--ctrl-rate", "50"}));
    // The map seed composes with the map in either order.
    EXPECT_EQ(echoOf({"--fault-map-seed", "7", "--fault-map", "spatial"}),
              echoOf({"--fault-map", "spatial", "--fault-map-seed", "7"}));
    // Host thread counts are not part of the modeled machine.
    EXPECT_EQ(echoOf({"--card-jobs", "4"}), base);
}

TEST(RunOptions, CardEchoRunsHeadThenCardThenChipThenTail)
{
    const std::string echo = echoOf({});
    EXPECT_LT(echo.find("\"fault_scale\""), echo.find("\"chips\""));
    EXPECT_LT(echo.find("\"ingress_cap\""), echo.find("\"pes\""));
    EXPECT_LT(echo.find("\"arrival_gap_cycles\""),
              echo.find("\"packets\""));
}

// --- work-stealing pool ----------------------------------------------

TEST(WorkStealingPool, RunsEveryJobExactlyOnce)
{
    const std::size_t n = 257;
    std::vector<std::atomic<int>> counts(n);
    const WorkStealingPool pool(4);
    pool.run(n, [&](std::size_t i) {
        counts[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(counts[i].load(), 1) << "job " << i;
}

TEST(WorkStealingPool, InlineWhenSingleWorker)
{
    std::vector<std::size_t> order;
    const WorkStealingPool pool(1);
    pool.run(5, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

// --- deterministic execution -----------------------------------------

TEST(SweepRunner, AggregatesMatchSerialRunExperiment)
{
    const SweepSpec spec = smallSpec();
    const SweepOutcome outcome = runSweep(spec, 4);
    ASSERT_EQ(outcome.cells.size(), 2u);

    for (const CellOutcome &cell : outcome.cells) {
        const core::ExperimentConfig cfg =
            makeConfig(spec, cell.cell);
        const core::ExperimentResult serial = core::runExperiment(
            apps::appFactory(cell.cell.app), cfg);
        // Bit-identical, not approximately equal: the reduction runs
        // in the same fixed order as the serial harness.
        EXPECT_EQ(cell.result.fallibility, serial.fallibility);
        EXPECT_EQ(cell.result.anyErrorProb, serial.anyErrorProb);
        EXPECT_EQ(cell.result.fatalProb, serial.fatalProb);
        EXPECT_EQ(cell.result.cyclesPerPacket, serial.cyclesPerPacket);
        EXPECT_EQ(cell.result.energyPerPacketPj,
                  serial.energyPerPacketPj);
        EXPECT_EQ(cell.result.edf, serial.edf);
        EXPECT_EQ(cell.result.errorProbByType, serial.errorProbByType);
        EXPECT_EQ(cell.result.golden.instructions,
                  serial.golden.instructions);
    }
}

TEST(SweepRunner, JsonIsByteIdenticalAcrossWorkerCounts)
{
    const SweepSpec spec = smallSpec();
    const SweepOutcome serial = runSweep(spec, 1);
    const SweepOutcome parallel = runSweep(spec, 8);
    EXPECT_EQ(renderJson(serial, false), renderJson(parallel, false));
    EXPECT_EQ(stripWallColumn(renderCsv(serial)),
              stripWallColumn(renderCsv(parallel)));
}

// --- sink and resume -------------------------------------------------

TEST(SweepSink, LoadCompletedCellsRoundTrips)
{
    const SweepSpec spec = smallSpec();
    const SweepOutcome outcome = runSweep(spec, 2);
    const std::string path = tempPath("sweep_roundtrip.json");
    writeFile(path, renderJson(outcome, true));

    const auto loaded = loadCompletedCells(path);
    ASSERT_EQ(loaded.size(), outcome.cells.size());
    for (const CellOutcome &cell : outcome.cells) {
        const auto it = loaded.find(cell.cell.key());
        ASSERT_NE(it, loaded.end()) << cell.cell.key();
        const core::ExperimentResult &a = it->second.result;
        const core::ExperimentResult &b = cell.result;
        EXPECT_EQ(a.fallibility, b.fallibility);
        EXPECT_EQ(a.edf, b.edf);
        EXPECT_EQ(a.errorProbByType, b.errorProbByType);
        EXPECT_EQ(a.golden.cyclesPerPacket, b.golden.cyclesPerPacket);
        EXPECT_EQ(a.faulty.fatalReason, b.faulty.fatalReason);
    }
}

TEST(SweepSink, UntimedCsvDropsTheWallColumn)
{
    // --no-timing promises output that depends only on the grid.
    const SweepOutcome outcome = runSweep(smallSpec(), 2);
    const std::string timed = renderCsv(outcome, true);
    EXPECT_NE(timed.find(",wall_ms\n"), std::string::npos);
    EXPECT_EQ(renderCsv(outcome, false), stripWallColumn(timed));
}

TEST(SweepSink, RejectsOutOfRangeAxisFields)
{
    // A negative count would convert to an integer field as UB.
    std::string doc = renderJson(runSweep(smallSpec(), 2), false);
    const std::string pes = "\"pes\": 1,";
    doc.replace(doc.find(pes), pes.size(), "\"pes\": -1,");
    const std::string path = tempPath("sweep_bad_pes.json");
    writeFile(path, doc);
    EXPECT_EXIT(loadCompletedCells(path), ::testing::ExitedWithCode(1),
                "field 'pes' is out of range");
}

TEST(SweepSink, MissingFileYieldsEmptyMap)
{
    EXPECT_TRUE(
        loadCompletedCells(tempPath("does_not_exist.json")).empty());
}

TEST(SweepSink, RejectsMalformedMetricFields)
{
    // Metric counts get the axis fields' range check (a negative or
    // huge count would convert as UB), and arrays, objects and their
    // members must have the member's kind rather than read as 0 or
    // empty.
    const std::string doc = renderJson(
        runSweep(SweepSpec::parse("app=crc;cr=0.5;scheme=two-strike;"
                                  "pes=1,2;packets=60;trials=1"),
                 2),
        false);
    const struct
    {
        const char *pattern;
        const char *replacement;
        const char *message;
    } cases[] = {
        {"\"instructions\": [0-9]+", "\"instructions\": -1",
         "field 'instructions' is out of range"},
        {"\"faults_injected\": [0-9]+", "\"faults_injected\": 1e30",
         "field 'faults_injected' is out of range"},
        {"\"errors_by_type\": \\{\\}",
         "\"errors_by_type\": {\"ttl\": \"2\"}",
         "field 'errors_by_type' is not a number"},
        {"\"pe_packets\": \\[[^\\]]*\\]", "\"pe_packets\": 4",
         "field 'pe_packets' is not an array"},
    };
    for (const auto &c : cases) {
        const std::string bad =
            std::regex_replace(doc, std::regex(c.pattern), c.replacement,
                               std::regex_constants::format_first_only);
        ASSERT_NE(bad, doc) << c.pattern;
        const std::string path = tempPath("sweep_bad_metric.json");
        writeFile(path, bad);
        EXPECT_EXIT(loadCompletedCells(path),
                    ::testing::ExitedWithCode(1), c.message)
            << c.pattern;
    }
}

TEST(SweepSink, CardOnlyChipCountersElideAtZeroAndRoundTrip)
{
    // ingress_drops, dram_requests and dram_stall_cycles are nonzero
    // only on a line card: chip documents leave them out, and set
    // values survive --resume.
    const char *const keys[] = {"ingress_drops", "dram_requests",
                                "dram_stall_cycles"};
    SweepOutcome outcome = runSweep(
        SweepSpec::parse("app=crc;cr=0.5;pes=2;packets=40;trials=1"), 1);
    ASSERT_EQ(outcome.cells.size(), 1u);
    CellOutcome &chip = outcome.cells[0];
    ASSERT_TRUE(chip.hasNpu);
    const std::string plain = renderJson(outcome, false);
    for (const char *key : keys)
        EXPECT_EQ(plain.find(key), std::string::npos) << key;

    chip.npuFaulty.ingressDrops = 5;
    chip.npuFaulty.dramRequests = 7;
    chip.npuFaulty.dramStallCycles = 11.5;
    const std::string doc = renderJson(outcome, false);
    for (const char *key : keys)
        EXPECT_NE(doc.find(key), std::string::npos) << key;
    const std::string path = tempPath("sweep_chip_card_counters.json");
    writeFile(path, doc);
    const auto loaded = loadCompletedCells(path);
    ASSERT_EQ(loaded.size(), 1u);
    const CellOutcome &back = loaded.begin()->second;
    EXPECT_EQ(back.npuFaulty.ingressDrops, 5.0);
    EXPECT_EQ(back.npuFaulty.dramRequests, 7.0);
    EXPECT_EQ(back.npuFaulty.dramStallCycles, 11.5);
    EXPECT_EQ(back.npuGolden.dramRequests, 0.0);
    outcome.cells[0] = back;
    EXPECT_EQ(renderJson(outcome, false), doc);
}

namespace
{

template <typename S, typename Rows>
std::string
renderFields(const S &s, const Rows &rows)
{
    JsonWriter w;
    writeFields(w, s, rows);
    return w.str();
}

/**
 * Drop each of @p rows' keys from @p record in turn. Without a
 * required key the load dies naming it; without any other key the
 * record loads with the struct default there and re-renders.
 */
template <typename S, typename Rows>
void
checkPresenceRules(const JVal &record, const Rows &rows, const char *what)
{
    S full;
    readFields(record, full, rows);
    forEachField(rows, [&](const auto &row) {
        JVal dropped = record;
        std::erase_if(dropped.obj, [&](const auto &kv) {
            return kv.first == row.name;
        });
        if (row.presence == Presence::Required) {
            EXPECT_EXIT(
                {
                    S s;
                    readFields(dropped, s, rows);
                },
                ::testing::ExitedWithCode(1),
                std::string("missing field '") + row.name + "'")
                << what;
            return;
        }
        S loaded;
        readFields(dropped, loaded, rows);
        S expected = full;
        expected.*row.member = S{}.*row.member;
        EXPECT_EQ(renderFields(loaded, rows), renderFields(expected, rows))
            << what << ": " << row.name;
    });
}

} // namespace

TEST(SweepSink, OptionalMetricFieldsLoadWithDefaultsRequiredOnesDie)
{
    // Core, chip and card cells, with packet errors and control
    // events so that elided and map fields are present in the records.
    const SweepOutcome outcome =
        runSweep(SweepSpec::parse("app=lpm;cr=0.5;scheme=two-strike;"
                                  "fault-scale=1000;pes=1,2;chips=1,2;"
                                  "ctrl=100;packets=40;trials=1"),
                 2);
    const JVal doc = parseJson(renderJson(outcome, false));
    bool sawNpu = false, sawCard = false;
    for (const JVal &record : field(doc, "results").arr) {
        const JVal &result = field(record, "result");
        checkPresenceRules<core::RunMetrics>(field(result, "faulty_last"),
                                             core::kRunMetricsFields,
                                             "RunMetrics");
        checkPresenceRules<core::ExperimentResult>(
            field(result, "aggregate"), core::kExperimentAggregateFields,
            "aggregate");
        if (const JVal *npu = record.find("npu")) {
            sawNpu = true;
            checkPresenceRules<npu::ChipMetrics>(
                field(*npu, "faulty"), npu::kChipMetricsFields,
                "ChipMetrics");
        }
        if (const JVal *card = record.find("card")) {
            sawCard = true;
            checkPresenceRules<linecard::CardMetrics>(
                field(*card, "faulty"), linecard::kCardMetricsFields,
                "CardMetrics");
        }
    }
    EXPECT_TRUE(sawNpu);
    EXPECT_TRUE(sawCard);
}

TEST(SweepResume, SkipsCompletedCellsAndMergesOutput)
{
    // First run: only the Cr = 0.5 cell.
    SweepSpec first = smallSpec();
    first.points = {{0.5, false}};
    const std::string path = tempPath("sweep_resume.json");
    writeFile(path, renderJson(runSweep(first, 2), false));

    // Resumed run over the full grid must re-run only the new cell.
    const SweepSpec full = smallSpec();
    const auto completed = loadCompletedCells(path);
    const SweepOutcome resumed = runSweep(full, 2, &completed);
    EXPECT_EQ(resumed.resumedCount, 1u);
    ASSERT_EQ(resumed.cells.size(), 2u);
    EXPECT_TRUE(resumed.cells[0].resumed);
    EXPECT_FALSE(resumed.cells[1].resumed);

    // And the merged document equals a fresh full run, byte for byte.
    const SweepOutcome fresh = runSweep(full, 2);
    EXPECT_EQ(renderJson(resumed, false), renderJson(fresh, false));
}

// --- chip-model cells in the grid ------------------------------------

namespace
{

/** smallSpec() plus a pe-count axis: two plain cells, two chip cells. */
SweepSpec
npuSpec()
{
    SweepSpec spec = smallSpec();
    spec.peCounts = {1, 2};
    return spec;
}

} // namespace

TEST(SweepRunner, NpuCellsByteIdenticalAcrossWorkerCounts)
{
    const SweepSpec spec = npuSpec();
    const SweepOutcome serial = runSweep(spec, 1);
    const SweepOutcome parallel = runSweep(spec, 8);
    EXPECT_EQ(renderJson(serial, false), renderJson(parallel, false));
    EXPECT_EQ(stripWallColumn(renderCsv(serial)),
              stripWallColumn(renderCsv(parallel)));

    // pes=1 cells take the plain single-core path; pes=2 cells carry
    // the chip extras.
    ASSERT_EQ(serial.cells.size(), 4u);
    for (const CellOutcome &c : serial.cells) {
        EXPECT_EQ(c.hasNpu, c.cell.peCount == 2);
        if (c.hasNpu) {
            EXPECT_EQ(c.npuGolden.pePackets.size(), 2u);
            EXPECT_GT(c.npuGolden.throughputPps, 0.0);
        }
    }
}

TEST(SweepResume, NpuCellsResumeByteIdentical)
{
    // First run covers only the two-engine cells.
    SweepSpec first = npuSpec();
    first.peCounts = {2};
    const std::string path = tempPath("sweep_npu_resume.json");
    writeFile(path, renderJson(runSweep(first, 2), false));

    // The resumed full grid re-runs only the pes=1 cells, and the
    // merged document — chip extras included — equals a fresh run
    // byte for byte.
    const SweepSpec full = npuSpec();
    const auto completed = loadCompletedCells(path);
    const SweepOutcome resumed = runSweep(full, 2, &completed);
    EXPECT_EQ(resumed.resumedCount, 2u);
    const SweepOutcome fresh = runSweep(full, 2);
    EXPECT_EQ(renderJson(resumed, false), renderJson(fresh, false));
}

TEST(SweepResume, DvsAndMshrCellsResumeByteIdentical)
{
    // The new axes ride the same resume machinery: keys with dvs and
    // mshrs parts round-trip through the result file, and per-PE
    // trajectory arrays survive the reload byte for byte.
    SweepSpec spec = smallSpec();
    spec.points = {{0.5, false}};
    spec.peCounts = {2};
    spec.dvsModes = {npu::DvsMode::Static, npu::DvsMode::Queue};
    spec.mshrs = {1, 2};

    SweepSpec first = spec;
    first.mshrs = {2};
    const std::string path = tempPath("sweep_dvs_resume.json");
    writeFile(path, renderJson(runSweep(first, 2), false));

    const auto completed = loadCompletedCells(path);
    const SweepOutcome resumed = runSweep(spec, 2, &completed);
    EXPECT_EQ(resumed.resumedCount, 2u);
    const SweepOutcome fresh = runSweep(spec, 2);
    EXPECT_EQ(renderJson(resumed, false), renderJson(fresh, false));
    // Queue-mode cells report their per-engine epoch decisions.
    for (const CellOutcome &c : fresh.cells) {
        ASSERT_TRUE(c.hasNpu);
        const double epochs = c.npuFaulty.peEpochs.empty()
                                  ? 0.0
                                  : c.npuFaulty.peEpochs[0];
        if (c.cell.dvs == npu::DvsMode::Queue)
            EXPECT_GT(epochs, 0.0) << c.cell.key();
        else
            EXPECT_EQ(epochs, 0.0) << c.cell.key();
    }
}

TEST(SweepResume, GapAndChipJobsCellsResumeByteIdentical)
{
    // Keys with gap and chip-jobs parts round-trip through the result
    // file, and a resumed mixed grid re-renders byte for byte. The
    // chip-jobs=2 cells also double as an end-to-end check that the
    // parallel chip runner feeds the sweep the same bytes.
    SweepSpec spec = smallSpec();
    spec.points = {{0.5, false}};
    spec.peCounts = {2};
    spec.arrivalGaps = {0, 300};
    spec.chipJobs = {1, 2};

    SweepSpec first = spec;
    first.chipJobs = {2};
    const std::string path = tempPath("sweep_gap_resume.json");
    writeFile(path, renderJson(runSweep(first, 2), false));

    const auto completed = loadCompletedCells(path);
    const SweepOutcome resumed = runSweep(spec, 2, &completed);
    EXPECT_EQ(resumed.resumedCount, 2u);
    const SweepOutcome fresh = runSweep(spec, 2);
    EXPECT_EQ(renderJson(resumed, false), renderJson(fresh, false));

    // chip-jobs is a host knob: within one (app, gap) point the two
    // chip-jobs cells carry identical simulated results.
    for (const CellOutcome &a : fresh.cells) {
        if (a.cell.chipJobs != 1)
            continue;
        for (const CellOutcome &b : fresh.cells) {
            if (b.cell.chipJobs == 1 ||
                b.cell.arrivalGap != a.cell.arrivalGap)
                continue;
            EXPECT_EQ(experimentResultJson(a.result),
                      experimentResultJson(b.result))
                << a.cell.key() << " vs " << b.cell.key();
        }
    }
}

TEST(SweepResume, CtrlChurnCellsResumeByteIdentical)
{
    // Keys with ctrl and updates parts round-trip through the result
    // file — including the stored cell coordinates the resume check
    // compares against — and the merged document equals a fresh run
    // byte for byte.
    SweepSpec spec;
    spec.apps = {"lpm"};
    spec.points = {{0.5, false}};
    spec.schemes = {mem::RecoveryScheme::TwoStrike};
    spec.packets = 120;
    spec.trials = 2;
    spec.ctrlRates = {0, 100};
    spec.updateMixes = {ctrl::CtrlMix::Fib};

    SweepSpec first = spec;
    first.ctrlRates = {100};
    const std::string path = tempPath("sweep_ctrl_resume.json");
    writeFile(path, renderJson(runSweep(first, 2), false));

    const auto completed = loadCompletedCells(path);
    const SweepOutcome resumed = runSweep(spec, 2, &completed);
    EXPECT_EQ(resumed.resumedCount, 1u);
    const SweepOutcome fresh = runSweep(spec, 2);
    EXPECT_EQ(renderJson(resumed, false), renderJson(fresh, false));

    // The CSV view carries the new axis columns.
    const std::string csv = renderCsv(fresh);
    EXPECT_NE(csv.find(",ctrl,updates,"), std::string::npos);
    EXPECT_NE(csv.find(",100,fib,"), std::string::npos);
}

TEST(SweepResume, FlowAndChurnCellsResumeByteIdentical)
{
    // Regression: flows/churn cells used to serialize without their
    // axis coordinates, so --resume rejected every stored non-default
    // cell on the key check. The sink now round-trips both.
    SweepSpec spec = smallSpec();
    spec.apps = {"nat"};
    spec.points = {{0.5, false}};
    spec.trials = 2;
    spec.flows = {0, 32};
    spec.churns = {0, 64};

    SweepSpec first = spec;
    first.flows = {32};
    const std::string path = tempPath("sweep_flows_resume.json");
    writeFile(path, renderJson(runSweep(first, 2), false));

    const auto completed = loadCompletedCells(path);
    const SweepOutcome resumed = runSweep(spec, 2, &completed);
    EXPECT_EQ(resumed.resumedCount, 2u);
    const SweepOutcome fresh = runSweep(spec, 2);
    EXPECT_EQ(renderJson(resumed, false), renderJson(fresh, false));
}

// --- JSON emitter ----------------------------------------------------

TEST(Json, EscapesAndFormatsDeterministically)
{
    EXPECT_EQ(jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(jsonNumber(0.5), "0.5");
    EXPECT_EQ(jsonNumber(1.0), "1");
    // Shortest round-trip form: parsing it back yields the same bits.
    const double v = 14260600.553291745;
    EXPECT_EQ(std::stod(jsonNumber(v)), v);
}

TEST(Json, WriterPlacesCommasAndNesting)
{
    JsonWriter w;
    w.beginObject();
    w.key("a").value(std::uint64_t{1});
    w.key("b").beginArray();
    w.value("x").value(true);
    w.endArray();
    w.key("c").beginObject().endObject();
    w.endObject();
    EXPECT_EQ(w.str(),
              "{\"a\": 1, \"b\": [\"x\", true], \"c\": {}}");
}

// --- fault-map and way-disable axes ----------------------------------

TEST(SweepSpec, FaultMapAxesParseExpandAndKey)
{
    const SweepSpec spec = SweepSpec::parse(
        "app=crc;faultmap=off,spatial;retire=0,2;map-seed=99;"
        "packets=100;trials=2");
    EXPECT_EQ(spec.faultMaps,
              (std::vector<std::string>{"off", "spatial"}));
    EXPECT_EQ(spec.retires, (std::vector<unsigned>{0, 2}));
    EXPECT_EQ(spec.mapSeed, 99u);
    EXPECT_EQ(spec.cellCount(), 4u);

    const SweepSpec again = SweepSpec::parse(spec.toGridString());
    EXPECT_EQ(again.toGridString(), spec.toGridString());

    const auto cells = expand(spec);
    ASSERT_EQ(cells.size(), 4u);
    // The historical defaults elide so pre-faultmap result files
    // still resume; non-defaults spell out.
    EXPECT_EQ(cells[0].key().find(";faultmap="), std::string::npos);
    EXPECT_EQ(cells[0].key().find(";retire="), std::string::npos);
    EXPECT_NE(cells[1].key().find(";retire=2"), std::string::npos);
    EXPECT_NE(cells[2].key().find(";faultmap=spatial"),
              std::string::npos);
    EXPECT_NE(cells[3].key().find(";faultmap=spatial;retire=2"),
              std::string::npos);

    // Both knobs and the scalar seed reach the configuration.
    const core::ExperimentConfig cfg = makeConfig(spec, cells[3]);
    EXPECT_EQ(cfg.processor.faultMap.mode,
              fault::FaultMapMode::Generated);
    EXPECT_EQ(cfg.processor.faultMap.seed, 99u);
    EXPECT_EQ(cfg.processor.hierarchy.wayDisable.retireThreshold, 2u);
    const core::ExperimentConfig off = makeConfig(spec, cells[0]);
    EXPECT_EQ(off.processor.faultMap.mode, fault::FaultMapMode::Off);
    EXPECT_EQ(off.processor.hierarchy.wayDisable.retireThreshold, 0u);

    // A path-valued map selection rides through as File mode.
    const SweepSpec fileSpec = SweepSpec::parse(
        "app=crc;faultmap=maps/chip0.map;packets=100;trials=2");
    const auto fileCells = expand(fileSpec);
    const core::ExperimentConfig fileCfg =
        makeConfig(fileSpec, fileCells[0]);
    EXPECT_EQ(fileCfg.processor.faultMap.mode, fault::FaultMapMode::File);
    EXPECT_EQ(fileCfg.processor.faultMap.path, "maps/chip0.map");
}

TEST(SweepResume, FaultMapCellsResumeByteIdentical)
{
    // Keys with faultmap and retire parts round-trip through the
    // result file and resume cleanly; the merged document equals a
    // fresh run byte for byte.
    SweepSpec spec;
    spec.apps = {"crc"};
    spec.points = {{0.5, false}};
    spec.schemes = {mem::RecoveryScheme::TwoStrike};
    spec.packets = 120;
    spec.trials = 2;
    spec.faultMaps = {"off", "spatial"};
    spec.retires = {2};

    SweepSpec first = spec;
    first.faultMaps = {"spatial"};
    const std::string path = tempPath("sweep_faultmap_resume.json");
    writeFile(path, renderJson(runSweep(first, 2), false));

    const auto completed = loadCompletedCells(path);
    const SweepOutcome resumed = runSweep(spec, 2, &completed);
    EXPECT_EQ(resumed.resumedCount, 1u);
    const SweepOutcome fresh = runSweep(spec, 2);
    EXPECT_EQ(renderJson(resumed, false), renderJson(fresh, false));

    // The CSV view carries the new axis columns.
    const std::string csv = renderCsv(fresh);
    EXPECT_NE(csv.find(",faultmap,retire,"), std::string::npos);
    EXPECT_NE(csv.find(",spatial,2,"), std::string::npos);
    EXPECT_NE(csv.find(",off,2,"), std::string::npos);
}
