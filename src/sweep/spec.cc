#include "sweep/spec.hh"

#include <algorithm>
#include <charconv>
#include <limits>
#include <tuple>
#include <type_traits>

#include "apps/app.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "fault/fault_map.hh"
#include "sweep/json.hh"
#include "traffic/traffic.hh"

namespace clumsy::sweep
{

std::string
schemeName(mem::RecoveryScheme scheme)
{
    std::string s = mem::to_string(scheme);
    std::replace(s.begin(), s.end(), ' ', '-');
    return s;
}

mem::RecoveryScheme
schemeFromName(const std::string &name)
{
    return mem::recoverySchemeFromString(
        name == "no-detection" ? "no detection" : name);
}

std::string
formatDouble(double v)
{
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    CLUMSY_ASSERT(res.ec == std::errc(), "double format overflow");
    return std::string(buf, res.ptr);
}

std::string
to_string(const OperatingPoint &point)
{
    return point.dynamic ? "dynamic" : formatDouble(point.cr);
}

std::string
codecName(mem::CheckCodec codec)
{
    return codec == mem::CheckCodec::Secded ? "secded" : "parity";
}

mem::CheckCodec
codecFromString(const std::string &name)
{
    if (name == "parity")
        return mem::CheckCodec::Parity;
    if (name == "secded")
        return mem::CheckCodec::Secded;
    fatal("unknown codec '%s' (expected parity or secded)",
          name.c_str());
}

std::string
planeName(core::FaultPlane plane)
{
    switch (plane) {
      case core::FaultPlane::ControlOnly:
        return "control";
      case core::FaultPlane::DataOnly:
        return "data";
      case core::FaultPlane::Both:
        return "both";
    }
    panic("unreachable fault plane");
}

core::FaultPlane
planeFromString(const std::string &name)
{
    if (name == "control")
        return core::FaultPlane::ControlOnly;
    if (name == "data")
        return core::FaultPlane::DataOnly;
    if (name == "both")
        return core::FaultPlane::Both;
    fatal("unknown fault plane '%s' (expected both, control or data)",
          name.c_str());
}

// --- the axis table --------------------------------------------------
//
// Every grid axis is one row of axisTable(), in expansion order, and
// everything below the table walks it. Adding an axis takes its
// SweepSpec and SweepCell fields and one row.

namespace
{

/** The cells a key part or JSON field is written for. */
enum class Gate { Always, Npu, Card, Ctrl /* ctrl != 0 */ };

/**
 * Where an axis's value is written, in the cell key and in its JSON
 * record: for cells the gate admits, and at the axis default only when
 * the AtDefault flag is set. Each axis got the elision that kept the
 * result files written before it byte-stable, so the two differ.
 */
struct Elision
{
    Gate keyGate;
    bool keyAtDefault;
    Gate jsonGate;
    bool jsonAtDefault;
};

// The base axes are in every key and record; the chip and card groups
// are keyed only for cells of their tier; later axes elide at their
// defaults; a ctrl mix means nothing without a ctrl rate.
constexpr Elision kBase{Gate::Always, true, Gate::Always, true};
constexpr Elision kChip{Gate::Npu, true, Gate::Always, true};
constexpr Elision kChipKnob{Gate::Npu, false, Gate::Always, true};
constexpr Elision kCard{Gate::Card, true, Gate::Always, false};
constexpr Elision kCardKnob{Gate::Card, false, Gate::Always, false};
constexpr Elision kOptional{Gate::Always, false, Gate::Always, false};
constexpr Elision kCtrlMix{Gate::Ctrl, false, Gate::Ctrl, true};

/**
 * One axis. Its JSON form follows T: integers and doubles are numbers,
 * enums and strings their canonical text, and an operating point is
 * two fields (cr, dynamic), as it is two CSV columns.
 */
template <typename T, typename Config = core::ExperimentConfig>
struct Row
{
    using Value = T;
    using Target = Config;

    const char *name;   ///< grid and key name
    const char *column; ///< JSON and CSV name
    std::vector<T> SweepSpec::*values;
    T SweepCell::*field;
    Elision elision;
    /** One grid value (also a JSON string); fatal()s on junk. */
    T (*parse)(const std::string &name, const std::string &value);
    std::string (*text)(T value);
    /** Carries the value into the config it belongs to. */
    void (*apply)(const T &value, Config &cfg) = nullptr;
    /** What the lone grid value "all" expands to (nullptr: no "all"). */
    std::vector<T> (*all)() = nullptr;
    /** Written after the ctrl axes in JSON and CSV (added before them). */
    bool lateColumn = false;
};

/** A name parser as a row parser. */
template <auto fromName>
auto
named(const std::string &, const std::string &value)
{
    return fromName(value);
}

unsigned
positive(const std::string &name, const std::string &value)
{
    const std::uint32_t n = cli::parseU32(name, value);
    if (n == 0)
        fatal("%s must be >= 1", name.c_str());
    return n;
}

template <typename T>
std::string
decimal(T v)
{
    return std::to_string(v);
}

using Run = core::ExperimentConfig;
using Chip = npu::NpuConfig;
using Card = linecard::CardConfig;
using std::string;

const auto &
axisTable()
{
    static const auto table = std::make_tuple(
        Row<string>{.name = "app", .column = "app",
            .values = &SweepSpec::apps, .field = &SweepCell::app,
            .elision = kBase,
            .parse = [](const string &, const string &v) {
                std::vector<string> known = apps::allAppNames();
                const auto &ext = apps::extensionAppNames();
                known.insert(known.end(), ext.begin(), ext.end());
                if (std::find(known.begin(), known.end(), v) == known.end())
                    fatal("unknown app '%s' in grid", v.c_str());
                return v;
            },
            .text = [](string v) { return v; },
            .all = [] { return apps::allAppNames(); }},
        Row<OperatingPoint>{.name = "cr", .column = "cr",
            .values = &SweepSpec::points, .field = &SweepCell::point,
            .elision = kBase,
            .parse = [](const string &name, const string &v) {
                if (v == "dynamic")
                    return OperatingPoint{1.0, true};
                const double cr = cli::parseDouble(name, v);
                if (cr <= 0.0)
                    fatal("cr must be positive, got %s", v.c_str());
                return OperatingPoint{cr, false};
            },
            .text = [](OperatingPoint p) { return to_string(p); },
            .apply = [](const OperatingPoint &p, Run &c) {
                c.cr = p.cr;
                c.dynamicFrequency = p.dynamic;
            }},
        Row<mem::RecoveryScheme>{.name = "scheme", .column = "scheme",
            .values = &SweepSpec::schemes, .field = &SweepCell::scheme,
            .elision = kBase, .parse = named<schemeFromName>,
            .text = schemeName,
            .apply = [](const mem::RecoveryScheme &s, Run &c) {
                c.scheme = c.processor.hierarchy.scheme = s;
            },
            .all = [] {
                return std::vector<mem::RecoveryScheme>(
                    std::begin(mem::kAllRecoverySchemes),
                    std::end(mem::kAllRecoverySchemes));
            }},
        Row<mem::CheckCodec>{.name = "codec", .column = "codec",
            .values = &SweepSpec::codecs, .field = &SweepCell::codec,
            .elision = kBase, .parse = named<codecFromString>,
            .text = codecName,
            .apply = [](const mem::CheckCodec &k, Run &c) {
                c.processor.hierarchy.codec = k;
            }},
        Row<core::FaultPlane>{.name = "plane", .column = "plane",
            .values = &SweepSpec::planes, .field = &SweepCell::plane,
            .elision = kBase, .parse = named<planeFromString>,
            .text = planeName,
            .apply = [](const core::FaultPlane &p, Run &c) { c.plane = p; }},
        Row<double>{.name = "fault-scale", .column = "fault_scale",
            .values = &SweepSpec::faultScales,
            .field = &SweepCell::faultScale, .elision = kBase,
            .parse = cli::parseDouble, .text = formatDouble,
            .apply = [](const double &s, Run &c) { c.faultScale = s; }},
        Row<unsigned, Chip>{.name = "pes", .column = "pes",
            .values = &SweepSpec::peCounts, .field = &SweepCell::peCount,
            .elision = kChip, .parse = positive, .text = decimal,
            .apply = [](const unsigned &n, Chip &c) { c.peCount = n; }},
        Row<npu::DispatchPolicy, Chip>{.name = "dispatch", .column = "dispatch",
            .values = &SweepSpec::dispatches,
            .field = &SweepCell::dispatch, .elision = kChip,
            .parse = named<npu::dispatchFromString>,
            .text = npu::to_string,
            .apply = [](const npu::DispatchPolicy &d, Chip &c) {
                c.dispatch = d;
            }},
        // A colon-separated Cr list, or "" (spelled "uniform") for
        // every engine at the cell's Cr.
        Row<string, Chip>{.name = "per-pe-cr", .column = "per_pe_cr",
            .values = &SweepSpec::perPeCrs, .field = &SweepCell::perPeCr,
            .elision = kChip,
            .parse = [](const string &name, const string &v) {
                if (v == "uniform")
                    return string();
                for (const string &cr : cli::split(v, ':')) {
                    const double x = cli::parseDouble(name, cr);
                    if (x <= 0.0 || x > 1.0)
                        fatal("per-pe-cr entry %s outside (0, 1]",
                              cr.c_str());
                }
                return v;
            },
            .text = [](string v) { return v.empty() ? "uniform" : v; },
            .apply = [](const string &v, Chip &c) {
                for (const string &cr : cli::split(v, ':'))
                    c.perPeCr.push_back(cli::parseDouble("per-pe-cr", cr));
            }},
        Row<npu::DvsMode, Chip>{.name = "dvs", .column = "dvs",
            .values = &SweepSpec::dvsModes, .field = &SweepCell::dvs,
            .elision = kChipKnob, .parse = named<npu::dvsFromString>,
            .text = npu::to_string,
            .apply = [](const npu::DvsMode &m, Chip &c) { c.dvs = m; }},
        Row<unsigned, Chip>{.name = "mshrs", .column = "mshrs",
            .values = &SweepSpec::mshrs, .field = &SweepCell::mshrs,
            .elision = kChipKnob, .parse = positive, .text = decimal,
            .apply = [](const unsigned &n, Chip &c) { c.mshrs = n; }},
        Row<npu::L2Mode, Chip>{.name = "l2", .column = "l2",
            .values = &SweepSpec::l2Modes, .field = &SweepCell::l2,
            .elision = kChipKnob, .parse = named<npu::l2ModeFromString>,
            .text = npu::to_string,
            .apply = [](const npu::L2Mode &m, Chip &c) { c.l2 = m; }},
        Row<std::int64_t, Chip>{.name = "gap", .column = "gap",
            .values = &SweepSpec::arrivalGaps,
            .field = &SweepCell::arrivalGap, .elision = kChipKnob,
            .parse = cli::parseNonNegI64, .text = decimal,
            .apply = [](const std::int64_t &g, Chip &c) {
                c.arrivalGapCycles = g;
            }},
        Row<unsigned, Chip>{.name = "chip-jobs", .column = "chip_jobs",
            .values = &SweepSpec::chipJobs, .field = &SweepCell::chipJobs,
            .elision = kChipKnob, .parse = cli::parseU32, .text = decimal,
            .apply = [](const unsigned &n, Chip &c) { c.chipJobs = n; }},
        Row<unsigned, Card>{.name = "chips", .column = "chips",
            .values = &SweepSpec::chips, .field = &SweepCell::chips,
            .elision = kCard, .parse = positive, .text = decimal,
            .apply = [](const unsigned &n, Card &c) { c.chips = n; }},
        Row<unsigned, Card>{.name = "dram-banks", .column = "dram_banks",
            .values = &SweepSpec::dramBanks,
            .field = &SweepCell::dramBanks, .elision = kCardKnob,
            .parse = cli::parseU32, .text = decimal,
            .apply = [](const unsigned &n, Card &c) { c.dram.banks = n; }},
        Row<unsigned, Card>{.name = "card-jobs", .column = "card_jobs",
            .values = &SweepSpec::cardJobs, .field = &SweepCell::cardJobs,
            .elision = kCardKnob,
            .parse = [](const string &name, const string &v) {
                const std::uint32_t n = cli::parseU32(name, v);
                if (n != 1)
                    fatal("card-jobs=%u: the sweep runs every card run "
                          "as its own job, so run-level threads would "
                          "only rename the cell; use clumsy_card "
                          "--card-jobs",
                          n);
                return n;
            },
            .text = decimal,
            .apply = [](const unsigned &n, Card &c) { c.cardJobs = n; }},
        Row<std::uint32_t>{.name = "flows", .column = "flows",
            .values = &SweepSpec::flows, .field = &SweepCell::flows,
            .elision = kOptional, .parse = cli::parseU32, .text = decimal,
            .apply = [](const std::uint32_t &n, Run &c) { c.traceFlows = n; }},
        Row<std::uint64_t>{.name = "churn", .column = "churn",
            .values = &SweepSpec::churns, .field = &SweepCell::churn,
            .elision = kOptional, .parse = cli::parseU64, .text = decimal,
            .apply = [](const std::uint64_t &n, Run &c) {
                c.churnLifetime = n;
            }},
        // "off" and "" both spell the uniform eq. (4) model.
        Row<string>{.name = "faultmap", .column = "faultmap",
            .values = &SweepSpec::faultMaps, .field = &SweepCell::faultMap,
            .elision = kOptional,
            .parse = [](const string &, const string &v) { return v; },
            .text = [](string v) { return v.empty() ? "off" : v; },
            .apply = [](const string &v, Run &c) {
                c.processor.faultMap = fault::faultMapSpecFromString(v);
            },
            .lateColumn = true},
        Row<unsigned>{.name = "retire", .column = "retire",
            .values = &SweepSpec::retires, .field = &SweepCell::retire,
            .elision = kOptional, .parse = cli::parseU32, .text = decimal,
            .apply = [](const unsigned &n, Run &c) {
                c.processor.hierarchy.wayDisable.retireThreshold = n;
            },
            .lateColumn = true},
        Row<std::uint32_t>{.name = "ctrl", .column = "ctrl",
            .values = &SweepSpec::ctrlRates, .field = &SweepCell::ctrlRate,
            .elision = kOptional, .parse = cli::parseU32, .text = decimal,
            .apply = [](const std::uint32_t &n, Run &c) { c.ctrl.rate = n; }},
        Row<ctrl::CtrlMix>{.name = "updates", .column = "updates",
            .values = &SweepSpec::updateMixes,
            .field = &SweepCell::updates, .elision = kCtrlMix,
            .parse = named<ctrl::mixFromString>,
            .text = ctrl::to_string,
            .apply = [](const ctrl::CtrlMix &m, Run &c) { c.ctrl.mix = m; }});
    return table;
}

/** Call @p f on every row, in expansion order. */
template <typename F>
void
forEachAxis(F &&f)
{
    std::apply([&](const auto &...row) { (f(row), ...); }, axisTable());
}

/** Call @p f on every row, in JSON and CSV column order. */
template <typename F>
void
forEachColumn(F &&f)
{
    for (const bool late : {false, true}) {
        forEachAxis([&](const auto &row) {
            if (row.lateColumn == late)
                f(row);
        });
    }
}

/** The cell holds the axis default (compared as canonical text). */
template <typename R>
bool
atDefault(const R &row, const SweepCell &cell)
{
    static const SweepCell defaults;
    return row.text(cell.*row.field) == row.text(defaults.*row.field);
}

/** The cell passes @p gate and, unless @p atDefaultToo, is off default. */
template <typename R>
bool
shown(const R &row, const SweepCell &cell, Gate gate, bool atDefaultToo)
{
    const bool open = gate == Gate::Always ||
                      (gate == Gate::Npu && cell.isNpu()) ||
                      (gate == Gate::Card && cell.isCard()) ||
                      (gate == Gate::Ctrl && cell.ctrlRate != 0);
    return open && (atDefaultToo || !atDefault(row, cell));
}

/** Any axis keyed behind @p gate is off its default. */
bool
groupActive(Gate gate, const SweepCell &cell)
{
    bool active = false;
    forEachAxis([&](const auto &row) {
        active = active ||
                 (row.elision.keyGate == gate && !atDefault(row, cell));
    });
    return active;
}

/** A default @p Config with every axis that targets it applied. */
template <typename Config>
Config
applyAxes(const SweepCell &cell)
{
    Config cfg;
    forEachAxis([&](const auto &row) {
        using Target = typename std::decay_t<decltype(row)>::Target;
        if constexpr (std::is_same_v<Target, Config>) {
            if (row.apply)
                row.apply(cell.*row.field, cfg);
        }
    });
    return cfg;
}

} // namespace

bool
SweepCell::isNpu() const
{
    return groupActive(Gate::Npu, *this);
}

bool
SweepCell::isCard() const
{
    return groupActive(Gate::Card, *this);
}

std::string
SweepCell::key() const
{
    std::string k;
    forEachAxis([&](const auto &row) {
        const Elision &e = row.elision;
        if (shown(row, *this, e.keyGate, e.keyAtDefault))
            k += (k.empty() ? "" : ";") + std::string(row.name) + "=" +
                 row.text(this->*row.field);
    });
    return k;
}

std::string
gridKeys()
{
    std::string out;
    forEachAxis([&](const auto &row) { out += row.name + string(" "); });
    return out + "packets trials seed fault-seed map-seed";
}

SweepSpec
SweepSpec::parse(const std::string &grid)
{
    SweepSpec spec;
    spec.apps = apps::allAppNames();

    for (const std::string &pair : cli::split(grid, ';')) {
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos)
            fatal("grid entry '%s' is not key=value", pair.c_str());
        const std::string key = pair.substr(0, eq);
        const std::vector<std::string> values =
            cli::split(pair.substr(eq + 1), ',');
        if (values.empty())
            fatal("grid key '%s' has no values", key.c_str());
        auto scalar = [&]() -> const std::string & {
            if (values.size() != 1)
                fatal("grid key '%s' takes a single value",
                      key.c_str());
            return values[0];
        };

        bool isAxis = false;
        forEachAxis([&](const auto &row) {
            if (key != row.name)
                return;
            isAxis = true;
            auto &out = spec.*row.values;
            if (row.all && values.size() == 1 && values[0] == "all") {
                out = row.all();
                return;
            }
            out.clear();
            for (const std::string &v : values)
                out.push_back(row.parse(key, v));
        });
        if (isAxis)
            continue;
        if (key == "packets") {
            spec.packets = cli::parseU64("packets", scalar());
        } else if (key == "trials") {
            spec.trials = cli::parseU32("trials", scalar());
        } else if (key == "seed") {
            spec.traceSeed = cli::parseU64("seed", scalar());
        } else if (key == "fault-seed") {
            spec.faultSeed = cli::parseU64("fault-seed", scalar());
        } else if (key == "map-seed") {
            spec.mapSeed = cli::parseU64("map-seed", scalar());
        } else {
            fatal("unknown grid key '%s'", key.c_str());
        }
    }
    // Run sizes, fault scales and arrival gaps get the same checks as
    // the CLIs'.
    core::ExperimentConfig probe;
    probe.numPackets = spec.packets;
    probe.trials = spec.trials;
    for (const double scale : spec.faultScales) {
        probe.faultScale = scale;
        probe.validate();
    }
    for (const std::int64_t gap : spec.arrivalGaps)
        traffic::checkArrivalSpan("gap", gap, spec.packets);
    return spec;
}

std::string
SweepSpec::toGridString() const
{
    std::string out;
    forEachAxis([&](const auto &row) {
        const auto &values = this->*row.values;
        out += row.name + string("=");
        for (std::size_t i = 0; i < values.size(); ++i) {
            if (i)
                out += ',';
            out += row.text(values[i]);
        }
        out += ";";
    });
    out += "packets=" + std::to_string(packets);
    out += ";trials=" + std::to_string(trials);
    out += ";seed=" + std::to_string(traceSeed);
    out += ";fault-seed=" + std::to_string(faultSeed);
    out += ";map-seed=" + std::to_string(mapSeed);
    return out;
}

std::size_t
SweepSpec::cellCount() const
{
    std::size_t n = 1;
    forEachAxis([&](const auto &row) { n *= (this->*row.values).size(); });
    return n;
}

std::vector<SweepCell>
expand(const SweepSpec &spec)
{
    std::vector<SweepCell> cells(spec.cellCount());
    CLUMSY_ASSERT(!cells.empty(),
                  "every grid dimension needs at least one value");
    // Cell i's value on each axis: i in mixed radix, the last axis the
    // least significant digit, so the first axis is the outermost loop.
    for (std::size_t i = 0; i < cells.size(); ++i)
        cells[i].index = i;
    std::size_t stride = cells.size();
    forEachAxis([&](const auto &row) {
        const auto &values = spec.*row.values;
        stride /= values.size();
        for (SweepCell &cell : cells)
            cell.*row.field = values[cell.index / stride % values.size()];
    });
    return cells;
}

core::ExperimentConfig
makeConfig(const SweepSpec &spec, const SweepCell &cell)
{
    core::ExperimentConfig cfg = applyAxes<core::ExperimentConfig>(cell);
    cfg.numPackets = spec.packets;
    cfg.trials = spec.trials;
    cfg.traceSeed = spec.traceSeed;
    cfg.faultSeed = spec.faultSeed;
    cfg.processor.faultMap.seed = spec.mapSeed;
    return cfg;
}

npu::NpuConfig
makeNpuConfig(const SweepCell &cell)
{
    const npu::NpuConfig npuCfg = applyAxes<npu::NpuConfig>(cell);
    if (!npuCfg.perPeCr.empty() && npuCfg.perPeCr.size() != cell.peCount)
        fatal("per-pe-cr '%s' names %zu engines but pes=%u",
              cell.perPeCr.c_str(), npuCfg.perPeCr.size(), cell.peCount);
    return npuCfg;
}

linecard::CardConfig
makeCardConfig(const SweepCell &cell)
{
    return applyAxes<linecard::CardConfig>(cell);
}

void
writeAxisFields(JsonWriter &w, const SweepCell &cell)
{
    forEachColumn([&](const auto &row) {
        using T = typename std::decay_t<decltype(row)>::Value;
        const T &v = cell.*row.field;
        if (!shown(row, cell, row.elision.jsonGate,
                   row.elision.jsonAtDefault))
            return;
        w.key(row.column);
        if constexpr (std::is_same_v<T, OperatingPoint>)
            w.value(v.cr).key("dynamic").value(v.dynamic);
        else if constexpr (std::is_integral_v<T>)
            w.value(static_cast<std::uint64_t>(v));
        else if constexpr (std::is_floating_point_v<T>)
            w.value(v);
        else
            w.value(row.text(v));
    });
}

void
readAxisFields(const JVal &record, SweepCell &cell)
{
    forEachColumn([&](const auto &row) {
        using T = typename std::decay_t<decltype(row)>::Value;
        const Elision &e = row.elision;
        if (!(e.keyGate == Gate::Always && e.keyAtDefault) &&
            !record.find(row.column))
            return;
        T &v = cell.*row.field;
        if constexpr (std::is_same_v<T, OperatingPoint>) {
            v = {numField(record, row.column), boolField(record, "dynamic")};
        } else if constexpr (std::is_integral_v<T>) {
            v = static_cast<T>(u64Field(record, row.column,
                                        std::numeric_limits<T>::digits));
        } else if constexpr (std::is_floating_point_v<T>) {
            v = numField(record, row.column);
        } else {
            v = row.parse(row.name, strField(record, row.column));
        }
    });
}

std::string
axisCsvHeader()
{
    std::string out;
    forEachColumn([&](const auto &row) {
        using T = typename std::decay_t<decltype(row)>::Value;
        out += row.column;
        out += std::is_same_v<T, OperatingPoint> ? ",dynamic," : ",";
    });
    return out;
}

std::string
axisCsvFields(const SweepCell &cell)
{
    std::string out;
    forEachColumn([&](const auto &row) {
        using T = typename std::decay_t<decltype(row)>::Value;
        const T &v = cell.*row.field;
        if constexpr (std::is_same_v<T, OperatingPoint>)
            out += formatDouble(v.cr) + (v.dynamic ? ",1," : ",0,");
        else
            out += row.text(v) + ",";
    });
    return out;
}

} // namespace clumsy::sweep
