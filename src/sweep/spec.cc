#include "sweep/spec.hh"

#include <algorithm>
#include <charconv>

#include "apps/app.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "fault/fault_map.hh"

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

namespace
{

/** All app names the grid accepts (paper set + extensions). */
std::vector<std::string>
knownApps()
{
    std::vector<std::string> names = apps::allAppNames();
    const auto &ext = apps::extensionAppNames();
    names.insert(names.end(), ext.begin(), ext.end());
    return names;
}

template <typename T>
std::string
joinDim(const std::vector<T> &values,
        std::string (*format)(const T &))
{
    std::string out;
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i)
            out += ",";
        out += format(values[i]);
    }
    return out;
}

} // namespace

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

        if (key == "app") {
            if (values.size() == 1 && values[0] == "all") {
                spec.apps = apps::allAppNames();
            } else {
                const auto known = knownApps();
                for (const std::string &v : values) {
                    if (std::find(known.begin(), known.end(), v) ==
                        known.end())
                        fatal("unknown app '%s' in grid", v.c_str());
                }
                spec.apps = values;
            }
        } else if (key == "cr") {
            spec.points.clear();
            for (const std::string &v : values) {
                if (v == "dynamic") {
                    spec.points.push_back({1.0, true});
                } else {
                    const double cr = cli::parseDouble("cr", v);
                    if (cr <= 0.0)
                        fatal("cr must be positive, got %s", v.c_str());
                    spec.points.push_back({cr, false});
                }
            }
        } else if (key == "scheme") {
            spec.schemes.clear();
            if (values.size() == 1 && values[0] == "all") {
                spec.schemes.assign(
                    std::begin(mem::kAllRecoverySchemes),
                    std::end(mem::kAllRecoverySchemes));
            } else {
                for (const std::string &v : values)
                    spec.schemes.push_back(schemeFromName(v));
            }
        } else if (key == "codec") {
            spec.codecs.clear();
            for (const std::string &v : values)
                spec.codecs.push_back(codecFromString(v));
        } else if (key == "plane") {
            spec.planes.clear();
            for (const std::string &v : values)
                spec.planes.push_back(planeFromString(v));
        } else if (key == "fault-scale") {
            spec.faultScales.clear();
            for (const std::string &v : values)
                spec.faultScales.push_back(
                    cli::parseDouble("fault-scale", v));
        } else if (key == "pes") {
            spec.peCounts.clear();
            for (const std::string &v : values) {
                const std::uint32_t n = cli::parseU32("pes", v);
                if (n == 0)
                    fatal("pes must be >= 1");
                spec.peCounts.push_back(n);
            }
        } else if (key == "dispatch") {
            spec.dispatches.clear();
            for (const std::string &v : values)
                spec.dispatches.push_back(npu::dispatchFromString(v));
        } else if (key == "per-pe-cr") {
            spec.perPeCrs.clear();
            for (const std::string &v : values) {
                if (v == "uniform") {
                    spec.perPeCrs.push_back("");
                    continue;
                }
                for (const std::string &cr : cli::split(v, ':')) {
                    const double x = cli::parseDouble("per-pe-cr", cr);
                    if (x <= 0.0 || x > 1.0)
                        fatal("per-pe-cr entry %s outside (0, 1]",
                              cr.c_str());
                }
                spec.perPeCrs.push_back(v);
            }
        } else if (key == "dvs") {
            spec.dvsModes.clear();
            for (const std::string &v : values)
                spec.dvsModes.push_back(npu::dvsFromString(v));
        } else if (key == "mshrs") {
            spec.mshrs.clear();
            for (const std::string &v : values) {
                const std::uint32_t n = cli::parseU32("mshrs", v);
                if (n == 0)
                    fatal("mshrs must be >= 1");
                spec.mshrs.push_back(n);
            }
        } else if (key == "l2") {
            spec.l2Modes.clear();
            for (const std::string &v : values)
                spec.l2Modes.push_back(npu::l2ModeFromString(v));
        } else if (key == "gap") {
            spec.arrivalGaps.clear();
            for (const std::string &v : values)
                spec.arrivalGaps.push_back(
                    static_cast<std::int64_t>(cli::parseU64("gap", v)));
        } else if (key == "chip-jobs") {
            spec.chipJobs.clear();
            for (const std::string &v : values)
                spec.chipJobs.push_back(cli::parseU32("chip-jobs", v));
        } else if (key == "chips") {
            spec.chips.clear();
            for (const std::string &v : values) {
                const std::uint32_t n = cli::parseU32("chips", v);
                if (n == 0)
                    fatal("chips must be >= 1");
                spec.chips.push_back(n);
            }
        } else if (key == "dram-banks") {
            // 0 is the model-off sentinel (what toGridString prints
            // for an unswept axis), so grids round-trip.
            spec.dramBanks.clear();
            for (const std::string &v : values)
                spec.dramBanks.push_back(cli::parseU32("dram-banks", v));
        } else if (key == "card-jobs") {
            spec.cardJobs.clear();
            for (const std::string &v : values)
                spec.cardJobs.push_back(cli::parseU32("card-jobs", v));
        } else if (key == "flows") {
            // 0 is the app-default sentinel (what toGridString prints
            // for an unswept axis), so grids round-trip; the tools'
            // --flows flag still rejects 0 outright.
            spec.flows.clear();
            for (const std::string &v : values)
                spec.flows.push_back(cli::parseU32("flows", v));
        } else if (key == "churn") {
            spec.churns.clear();
            for (const std::string &v : values)
                spec.churns.push_back(cli::parseU64("churn", v));
        } else if (key == "faultmap") {
            // "off" is the uniform-model sentinel (what toGridString
            // prints for an unswept axis), so grids round-trip.
            spec.faultMaps.clear();
            for (const std::string &v : values) {
                (void)fault::faultMapSpecFromString(v); // validates
                spec.faultMaps.push_back(v);
            }
        } else if (key == "retire") {
            spec.retires.clear();
            for (const std::string &v : values)
                spec.retires.push_back(cli::parseU32("retire", v));
        } else if (key == "ctrl") {
            // 0 is the no-control-plane sentinel (what toGridString
            // prints for an unswept axis), so grids round-trip.
            spec.ctrlRates.clear();
            for (const std::string &v : values)
                spec.ctrlRates.push_back(cli::parseU32("ctrl", v));
        } else if (key == "updates") {
            spec.updateMixes.clear();
            for (const std::string &v : values)
                spec.updateMixes.push_back(ctrl::mixFromString(v));
        } else if (key == "packets") {
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
    // Run sizes and fault scales get the same checks as the CLIs'.
    core::ExperimentConfig probe;
    probe.numPackets = spec.packets;
    probe.trials = spec.trials;
    for (const double scale : spec.faultScales) {
        probe.faultScale = scale;
        probe.validate();
    }
    return spec;
}

std::string
SweepSpec::toGridString() const
{
    std::string out = "app=";
    for (std::size_t i = 0; i < apps.size(); ++i)
        out += (i ? "," : "") + apps[i];
    out += ";cr=" +
           joinDim<OperatingPoint>(points,
                                   [](const OperatingPoint &p) {
                                       return to_string(p);
                                   });
    out += ";scheme=" +
           joinDim<mem::RecoveryScheme>(
               schemes,
               [](const mem::RecoveryScheme &s) {
                   return schemeName(s);
               });
    out += ";codec=" +
           joinDim<mem::CheckCodec>(codecs,
                                    [](const mem::CheckCodec &c) {
                                        return codecName(c);
                                    });
    out += ";plane=" +
           joinDim<core::FaultPlane>(planes,
                                     [](const core::FaultPlane &p) {
                                         return planeName(p);
                                     });
    out += ";fault-scale=" +
           joinDim<double>(faultScales, [](const double &s) {
               return formatDouble(s);
           });
    out += ";pes=" + joinDim<unsigned>(peCounts, [](const unsigned &n) {
               return std::to_string(n);
           });
    out += ";dispatch=" +
           joinDim<npu::DispatchPolicy>(
               dispatches, [](const npu::DispatchPolicy &d) {
                   return npu::to_string(d);
               });
    out += ";per-pe-cr=" +
           joinDim<std::string>(perPeCrs, [](const std::string &s) {
               return s.empty() ? std::string("uniform") : s;
           });
    out += ";dvs=" +
           joinDim<npu::DvsMode>(dvsModes, [](const npu::DvsMode &m) {
               return npu::to_string(m);
           });
    out += ";mshrs=" + joinDim<unsigned>(mshrs, [](const unsigned &n) {
               return std::to_string(n);
           });
    out += ";l2=" +
           joinDim<npu::L2Mode>(l2Modes, [](const npu::L2Mode &m) {
               return npu::to_string(m);
           });
    out += ";gap=" +
           joinDim<std::int64_t>(arrivalGaps, [](const std::int64_t &g) {
               return std::to_string(g);
           });
    out += ";chip-jobs=" +
           joinDim<unsigned>(chipJobs, [](const unsigned &j) {
               return std::to_string(j);
           });
    out += ";chips=" + joinDim<unsigned>(chips, [](const unsigned &n) {
               return std::to_string(n);
           });
    out += ";dram-banks=" +
           joinDim<unsigned>(dramBanks, [](const unsigned &n) {
               return std::to_string(n);
           });
    out += ";card-jobs=" +
           joinDim<unsigned>(cardJobs, [](const unsigned &j) {
               return std::to_string(j);
           });
    out += ";flows=" +
           joinDim<std::uint32_t>(flows, [](const std::uint32_t &n) {
               return std::to_string(n);
           });
    out += ";churn=" +
           joinDim<std::uint64_t>(churns, [](const std::uint64_t &n) {
               return std::to_string(n);
           });
    out += ";faultmap=" +
           joinDim<std::string>(faultMaps, [](const std::string &s) {
               return s;
           });
    out += ";retire=" + joinDim<unsigned>(retires, [](const unsigned &n) {
               return std::to_string(n);
           });
    out += ";ctrl=" +
           joinDim<std::uint32_t>(ctrlRates, [](const std::uint32_t &n) {
               return std::to_string(n);
           });
    out += ";updates=" +
           joinDim<ctrl::CtrlMix>(updateMixes, [](const ctrl::CtrlMix &m) {
               return ctrl::to_string(m);
           });
    out += ";packets=" + std::to_string(packets);
    out += ";trials=" + std::to_string(trials);
    out += ";seed=" + std::to_string(traceSeed);
    out += ";fault-seed=" + std::to_string(faultSeed);
    out += ";map-seed=" + std::to_string(mapSeed);
    return out;
}

std::size_t
SweepSpec::cellCount() const
{
    return apps.size() * points.size() * schemes.size() *
           codecs.size() * planes.size() * faultScales.size() *
           peCounts.size() * dispatches.size() * perPeCrs.size() *
           dvsModes.size() * mshrs.size() * l2Modes.size() *
           arrivalGaps.size() * chipJobs.size() * chips.size() *
           dramBanks.size() * cardJobs.size() * flows.size() *
           churns.size() * faultMaps.size() * retires.size() *
           ctrlRates.size() * updateMixes.size();
}

std::string
SweepCell::key() const
{
    std::string k = "app=" + app + ";cr=" + to_string(point) +
                    ";scheme=" + schemeName(scheme) +
                    ";codec=" + codecName(codec) +
                    ";plane=" + planeName(plane) +
                    ";fault-scale=" + formatDouble(faultScale);
    // Chip dimensions appear only when non-default so pre-npu result
    // files keep resuming against the unchanged historical keys; dvs
    // and mshrs elide at their defaults for the same reason (chip
    // result files written before those knobs existed).
    if (isNpu()) {
        k += ";pes=" + std::to_string(peCount) +
             ";dispatch=" + npu::to_string(dispatch) + ";per-pe-cr=" +
             (perPeCr.empty() ? std::string("uniform") : perPeCr);
        if (dvs != npu::DvsMode::Fault)
            k += ";dvs=" + npu::to_string(dvs);
        if (mshrs != 1)
            k += ";mshrs=" + std::to_string(mshrs);
        if (l2 != npu::L2Mode::Private)
            k += ";l2=" + npu::to_string(l2);
        if (arrivalGap != 0)
            k += ";gap=" + std::to_string(arrivalGap);
        if (chipJobs != 1)
            k += ";chip-jobs=" + std::to_string(chipJobs);
    }
    // Line-card dimensions appear only when the cell uses the card
    // tier, so every pre-linecard result file keeps resuming against
    // unchanged keys; within a card key, dram-banks and card-jobs
    // elide at their 0/1 defaults.
    if (isCard()) {
        k += ";chips=" + std::to_string(chips);
        if (dramBanks != 0)
            k += ";dram-banks=" + std::to_string(dramBanks);
        if (cardJobs != 1)
            k += ";card-jobs=" + std::to_string(cardJobs);
    }
    // Traffic dimensions apply to both harnesses; they elide at their
    // 0 (= app default) values so every pre-traffic result file keeps
    // resuming against unchanged keys.
    if (flows != 0)
        k += ";flows=" + std::to_string(flows);
    if (churn != 0)
        k += ";churn=" + std::to_string(churn);
    // Fault-map dimensions elide at their off/0 defaults so every
    // pre-faultmap result file keeps resuming against unchanged keys.
    if (faultMap != "off" && !faultMap.empty())
        k += ";faultmap=" + faultMap;
    if (retire != 0)
        k += ";retire=" + std::to_string(retire);
    // Control-plane dimensions elide entirely at rate 0 (the mix is
    // meaningless without a stream), so every pre-ctrl result file
    // keeps resuming against unchanged keys; the mix also elides at
    // its "all" default.
    if (ctrlRate != 0) {
        k += ";ctrl=" + std::to_string(ctrlRate);
        if (updates != ctrl::CtrlMix::All)
            k += ";updates=" + ctrl::to_string(updates);
    }
    return k;
}

std::vector<SweepCell>
expand(const SweepSpec &spec)
{
    CLUMSY_ASSERT(!spec.apps.empty() && !spec.points.empty() &&
                      !spec.schemes.empty() && !spec.codecs.empty() &&
                      !spec.planes.empty() &&
                      !spec.faultScales.empty() &&
                      !spec.peCounts.empty() &&
                      !spec.dispatches.empty() &&
                      !spec.perPeCrs.empty() &&
                      !spec.dvsModes.empty() && !spec.mshrs.empty() &&
                      !spec.l2Modes.empty() &&
                      !spec.arrivalGaps.empty() &&
                      !spec.chipJobs.empty() && !spec.chips.empty() &&
                      !spec.dramBanks.empty() &&
                      !spec.cardJobs.empty() && !spec.flows.empty() &&
                      !spec.churns.empty() && !spec.faultMaps.empty() &&
                      !spec.retires.empty() && !spec.ctrlRates.empty() &&
                      !spec.updateMixes.empty(),
                  "every grid dimension needs at least one value");
    std::vector<SweepCell> cells;
    cells.reserve(spec.cellCount());
    // Cartesian product in the canonical nesting order (outermost
    // first); the stacked loops keep fourteen dimensions readable.
    // clang-format off
    for (const std::string &app : spec.apps)
    for (const OperatingPoint &point : spec.points)
    for (const mem::RecoveryScheme scheme : spec.schemes)
    for (const mem::CheckCodec codec : spec.codecs)
    for (const core::FaultPlane plane : spec.planes)
    for (const double scale : spec.faultScales)
    for (const unsigned pes : spec.peCounts)
    for (const npu::DispatchPolicy dis : spec.dispatches)
    for (const std::string &ppc : spec.perPeCrs)
    for (const npu::DvsMode dvs : spec.dvsModes)
    for (const unsigned msh : spec.mshrs)
    for (const npu::L2Mode l2m : spec.l2Modes)
    for (const std::int64_t gap : spec.arrivalGaps)
    for (const unsigned cjobs : spec.chipJobs)
    for (const unsigned nchips : spec.chips)
    for (const unsigned banks : spec.dramBanks)
    for (const unsigned kjobs : spec.cardJobs)
    for (const std::uint32_t nflows : spec.flows)
    for (const std::uint64_t life : spec.churns)
    for (const std::string &fmap : spec.faultMaps)
    for (const unsigned ret : spec.retires)
    for (const std::uint32_t crate : spec.ctrlRates)
    for (const ctrl::CtrlMix cmix : spec.updateMixes) {
        SweepCell cell;
        cell.index = cells.size();
        cell.app = app;
        cell.point = point;
        cell.scheme = scheme;
        cell.codec = codec;
        cell.plane = plane;
        cell.faultScale = scale;
        cell.peCount = pes;
        cell.dispatch = dis;
        cell.perPeCr = ppc;
        cell.dvs = dvs;
        cell.mshrs = msh;
        cell.l2 = l2m;
        cell.arrivalGap = gap;
        cell.chipJobs = cjobs;
        cell.chips = nchips;
        cell.dramBanks = banks;
        cell.cardJobs = kjobs;
        cell.flows = nflows;
        cell.churn = life;
        cell.faultMap = fmap;
        cell.retire = ret;
        cell.ctrlRate = crate;
        cell.updates = cmix;
        cells.push_back(std::move(cell));
    }
    // clang-format on
    return cells;
}

core::ExperimentConfig
makeConfig(const SweepSpec &spec, const SweepCell &cell)
{
    core::ExperimentConfig cfg;
    cfg.numPackets = spec.packets;
    cfg.trials = spec.trials;
    cfg.traceSeed = spec.traceSeed;
    cfg.faultSeed = spec.faultSeed;
    cfg.cr = cell.point.cr;
    cfg.dynamicFrequency = cell.point.dynamic;
    cfg.scheme = cell.scheme;
    cfg.plane = cell.plane;
    cfg.faultScale = cell.faultScale;
    cfg.processor.hierarchy.scheme = cell.scheme;
    cfg.processor.hierarchy.codec = cell.codec;
    cfg.traceFlows = cell.flows;
    cfg.churnLifetime = cell.churn;
    cfg.processor.faultMap = fault::faultMapSpecFromString(cell.faultMap);
    cfg.processor.faultMap.seed = spec.mapSeed;
    cfg.processor.hierarchy.wayDisable.retireThreshold = cell.retire;
    cfg.ctrl.rate = cell.ctrlRate;
    cfg.ctrl.mix = cell.updates;
    return cfg;
}

npu::NpuConfig
makeNpuConfig(const SweepCell &cell)
{
    npu::NpuConfig npuCfg;
    npuCfg.peCount = cell.peCount;
    npuCfg.dispatch = cell.dispatch;
    npuCfg.dvs = cell.dvs;
    npuCfg.mshrs = cell.mshrs;
    npuCfg.l2 = cell.l2;
    npuCfg.arrivalGapCycles = cell.arrivalGap;
    npuCfg.chipJobs = cell.chipJobs;
    if (!cell.perPeCr.empty()) {
        for (const std::string &cr : cli::split(cell.perPeCr, ':'))
            npuCfg.perPeCr.push_back(cli::parseDouble("per-pe-cr", cr));
        if (npuCfg.perPeCr.size() != cell.peCount)
            fatal("per-pe-cr '%s' names %zu engines but pes=%u",
                  cell.perPeCr.c_str(), npuCfg.perPeCr.size(),
                  cell.peCount);
    }
    return npuCfg;
}

linecard::CardConfig
makeCardConfig(const SweepCell &cell)
{
    linecard::CardConfig cardCfg;
    cardCfg.chips = cell.chips;
    cardCfg.dram.banks = cell.dramBanks;
    cardCfg.cardJobs = cell.cardJobs;
    return cardCfg;
}

} // namespace clumsy::sweep
