/**
 * @file
 * clumsy_faultmap: generate, inspect, canonicalize and diff weak-cell
 * fault maps (src/fault/fault_map.hh).
 *
 *   clumsy_faultmap generate --out map.txt --seed 7 --ways 4
 *   clumsy_faultmap inspect map.txt
 *   clumsy_faultmap rewrite map.txt --out canonical.txt
 *   clumsy_faultmap diff before.txt after.txt
 *
 * `rewrite` parses a map and re-emits the canonical text form; for a
 * file already in canonical form the output is byte-identical, which
 * the test suite uses as the round-trip check. `diff` exits 0 when the
 * two maps are identical and 1 otherwise, so scripts can use it as a
 * predicate.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "fault/fault_map.hh"

using namespace clumsy;

namespace
{

/** Shared geometry/model options for generate. */
struct GenerateOptions
{
    fault::FaultMapGeometry geom;
    fault::FaultMapParams params;
    std::uint64_t seed = fault::FaultMapSpec{}.seed;
    std::string out;
};

int
cmdGenerate(int argc, char **argv)
{
    GenerateOptions opt;
    cli::ArgParser parser(
        "clumsy_faultmap generate",
        "Generate a weak-cell map from the seeded spatial model and "
        "write the canonical text form.");
    parser.section("output");
    parser.optString("--out", "FILE",
                     "write the map here (default: stdout)", &opt.out);
    parser.section("array geometry");
    parser.option("--sets", "N", "cache sets (default 128)",
                  [&opt](const std::string &v) {
                      opt.geom.sets = cli::parseU32("sets", v);
                  });
    parser.option("--ways", "N", "cache ways (default 1)",
                  [&opt](const std::string &v) {
                      opt.geom.ways = cli::parseU32("ways", v);
                  });
    parser.option("--line-bytes", "N", "line size in bytes (default 32)",
                  [&opt](const std::string &v) {
                      opt.geom.lineBytes = cli::parseU32("line-bytes", v);
                  });
    parser.section("spatial model");
    parser.optU64("--seed", "N", "generation seed", &opt.seed);
    parser.optDouble("--clusters", "X",
                     "mean weak-row clusters per array (default 6)",
                     &opt.params.clustersPerArray);
    parser.optDouble("--cells-per-cluster", "X",
                     "mean weak cells per cluster (default 24)",
                     &opt.params.cellsPerCluster);
    parser.optDouble("--row-sigma", "X",
                     "gaussian row spread of a cluster (default 1.2)",
                     &opt.params.clusterRowSigma);
    parser.optDouble("--background", "X",
                     "mean isolated weak cells per array (default 8)",
                     &opt.params.backgroundPerArray);
    parser.optDouble("--way-sigma", "X",
                     "lognormal per-way strength sigma (default 0.5)",
                     &opt.params.waySigma);
    parser.optDouble("--vth-mean", "X",
                     "mean activation threshold (default 0.55)",
                     &opt.params.vthMean);
    parser.optDouble("--vth-sigma", "X",
                     "activation threshold sigma (default 0.15)",
                     &opt.params.vthSigma);
    parser.optDouble("--pfail-min", "X",
                     "log-uniform pFail lower bound (default 1e-3)",
                     &opt.params.pFailMin);
    parser.optDouble("--pfail-max", "X",
                     "log-uniform pFail upper bound (default 0.2)",
                     &opt.params.pFailMax);
    parser.parse(argc, argv);

    if (opt.geom.sets == 0 || opt.geom.ways == 0 ||
        opt.geom.lineBytes == 0 || opt.geom.lineBytes % 4 != 0)
        fatal("geometry must have sets >= 1, ways >= 1 and a "
              "word-multiple line size");

    const fault::FaultMap map =
        fault::FaultMap::generate(opt.geom, opt.params, opt.seed);
    if (opt.out.empty()) {
        std::fputs(map.toText().c_str(), stdout);
        return 0;
    }
    const std::string err = map.saveFile(opt.out);
    if (!err.empty())
        fatal("%s", err.c_str());
    std::printf("wrote %zu weak cells to %s\n", map.cells().size(),
                opt.out.c_str());
    return 0;
}

int
cmdInspect(int argc, char **argv)
{
    std::string path;
    bool csv = false;
    cli::ArgParser parser(
        "clumsy_faultmap inspect",
        "Summarize a map: geometry, per-way counts, row clustering "
        "and the activation profile across the paper's Cr points.");
    parser.positional("FILE", "map file to inspect",
                      [&path](const std::string &v) {
                          if (!path.empty())
                              fatal("inspect takes one map file");
                          path = v;
                      });
    parser.section("output");
    parser.flag("--csv", "CSV tables", &csv);
    parser.parse(argc, argv);
    if (path.empty())
        fatal("inspect needs a map file (try --help)");

    fault::FaultMap map;
    const std::string err = fault::FaultMap::loadFile(path, map);
    if (!err.empty())
        fatal("%s", err.c_str());

    const auto &geom = map.geometry();
    TextTable table("fault map: " + path);
    table.header({"quantity", "value"});
    table.row({"geometry", std::to_string(geom.sets) + " sets x " +
                               std::to_string(geom.ways) + " ways x " +
                               std::to_string(geom.lineBytes) + " B"});
    table.row({"seed", std::to_string(map.seed())});
    table.row({"weak cells", std::to_string(map.cells().size())});
    table.row({"weak-cell bit fraction",
               TextTable::sci(geom.bits() == 0
                                  ? 0.0
                                  : static_cast<double>(
                                        map.cells().size()) /
                                        static_cast<double>(geom.bits()),
                              2)});
    table.row({"row dispersion index",
               TextTable::num(map.dispersionIndex(), 2)});
    const auto perWay = map.perWayCounts();
    for (std::size_t w = 0; w < perWay.size(); ++w)
        table.row({"cells in way " + std::to_string(w),
                   std::to_string(perWay[w])});
    std::fputs((csv ? table.csv() : table.render()).c_str(), stdout);

    TextTable act("active cells by cycle time");
    act.header({"Cr", "active", "fraction"});
    for (const double cr : {1.0, 0.75, 0.5, 0.25}) {
        const std::size_t active = map.activeCellCount(cr);
        act.row({TextTable::num(cr, 2), std::to_string(active),
                 TextTable::num(map.cells().empty()
                                    ? 0.0
                                    : static_cast<double>(active) /
                                          static_cast<double>(
                                              map.cells().size()),
                                3)});
    }
    std::fputs((csv ? act.csv() : act.render()).c_str(), stdout);
    return 0;
}

int
cmdRewrite(int argc, char **argv)
{
    std::string path, out;
    cli::ArgParser parser(
        "clumsy_faultmap rewrite",
        "Parse a map and re-emit the canonical text form (the "
        "round-trip identity for files already canonical).");
    parser.positional("FILE", "map file to canonicalize",
                      [&path](const std::string &v) {
                          if (!path.empty())
                              fatal("rewrite takes one map file");
                          path = v;
                      });
    parser.section("output");
    parser.optString("--out", "FILE",
                     "write the canonical form here (default: stdout)",
                     &out);
    parser.parse(argc, argv);
    if (path.empty())
        fatal("rewrite needs a map file (try --help)");

    fault::FaultMap map;
    const std::string err = fault::FaultMap::loadFile(path, map);
    if (!err.empty())
        fatal("%s", err.c_str());
    if (out.empty()) {
        std::fputs(map.toText().c_str(), stdout);
        return 0;
    }
    const std::string werr = map.saveFile(out);
    if (!werr.empty())
        fatal("%s", werr.c_str());
    return 0;
}

int
cmdDiff(int argc, char **argv)
{
    std::vector<std::string> paths;
    cli::ArgParser parser(
        "clumsy_faultmap diff",
        "Compare two maps cell by cell; exit 0 when identical, 1 "
        "otherwise.");
    parser.positional("A B", "the two map files to compare",
                      [&paths](const std::string &v) {
                          if (paths.size() == 2)
                              fatal("diff takes exactly two map files");
                          paths.push_back(v);
                      });
    parser.parse(argc, argv);
    if (paths.size() != 2)
        fatal("diff takes exactly two map files (try --help)");

    fault::FaultMap a, b;
    for (int i = 0; i < 2; ++i) {
        const std::string err =
            fault::FaultMap::loadFile(paths[i], i == 0 ? a : b);
        if (!err.empty())
            fatal("%s", err.c_str());
    }

    if (!(a.geometry() == b.geometry())) {
        std::printf("geometry differs: %ux%u/%uB vs %ux%u/%uB\n",
                    a.geometry().sets, a.geometry().ways,
                    a.geometry().lineBytes, b.geometry().sets,
                    b.geometry().ways, b.geometry().lineBytes);
        return 1;
    }

    // Both cell lists are sorted by (set, way, bit), so one merge pass
    // classifies every cell.
    std::size_t onlyA = 0, onlyB = 0, changed = 0, same = 0;
    const auto &ca = a.cells();
    const auto &cb = b.cells();
    std::size_t i = 0, j = 0;
    const auto key = [](const fault::WeakCell &c) {
        return (std::uint64_t{c.set} << 40) | (std::uint64_t{c.way} << 20) |
               c.bit;
    };
    while (i < ca.size() || j < cb.size()) {
        if (j == cb.size() || (i < ca.size() && key(ca[i]) < key(cb[j]))) {
            ++onlyA;
            ++i;
        } else if (i == ca.size() || key(cb[j]) < key(ca[i])) {
            ++onlyB;
            ++j;
        } else {
            if (ca[i].vth == cb[j].vth && ca[i].pFail == cb[j].pFail)
                ++same;
            else
                ++changed;
            ++i;
            ++j;
        }
    }

    const bool identical = onlyA == 0 && onlyB == 0 && changed == 0 &&
                           a.seed() == b.seed();
    std::printf("%zu shared, %zu strength-changed, %zu only in %s, "
                "%zu only in %s%s\n",
                same, changed, onlyA, paths[0].c_str(), onlyB,
                paths[1].c_str(),
                a.seed() != b.seed() ? " (seeds differ)" : "");
    return identical ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);

    const std::string cmd = argc > 1 ? argv[1] : "";
    // Each subcommand parses its own argv tail; shifting by one keeps
    // the shared ArgParser machinery (--help, unknown-option
    // diagnostics) working per subcommand.
    if (cmd == "generate")
        return cmdGenerate(argc - 1, argv + 1);
    if (cmd == "inspect")
        return cmdInspect(argc - 1, argv + 1);
    if (cmd == "rewrite")
        return cmdRewrite(argc - 1, argv + 1);
    if (cmd == "diff")
        return cmdDiff(argc - 1, argv + 1);
    if (cmd.empty() || cmd == "--help" || cmd == "-h") {
        std::fputs(
            "usage: clumsy_faultmap <generate|inspect|rewrite|diff> "
            "[options]\n"
            "  generate  build a map from the seeded spatial model\n"
            "  inspect   summarize a map file\n"
            "  rewrite   re-emit a map in canonical text form\n"
            "  diff      compare two maps (exit 0 iff identical)\n"
            "run 'clumsy_faultmap <command> --help' for options\n",
            cmd.empty() ? stderr : stdout);
        return cmd.empty() ? 1 : 0;
    }
    fatal("unknown command '%s' (valid choices: generate, inspect, "
          "rewrite, diff)",
          cmd.c_str());
}
