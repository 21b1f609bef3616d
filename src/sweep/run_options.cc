#include "sweep/run_options.hh"

#include <memory>
#include <vector>

#include "apps/app.hh"
#include "common/logging.hh"
#include "ctrl/ctrl.hh"
#include "fault/fault_map.hh"
#include "sweep/json.hh"
#include "sweep/spec.hh"
#include "traffic/traffic.hh"

namespace clumsy::sweep
{

namespace
{

/** A cycle-count option: unsigned text into a signed field. */
void
optCycles(cli::ArgParser &parser, const std::string &name,
          const std::string &help, std::int64_t *target)
{
    parser.option(name, "N", help, [name, target](const std::string &v) {
        *target = cli::parseNonNegI64(name, v);
    });
}

/** A colon-separated Cr list option ("1:0.5:0.25"). */
void
optCrList(cli::ArgParser &parser, const std::string &name,
          const std::string &help, std::vector<double> *target)
{
    parser.option(name, "LIST", help,
                  [name, target](const std::string &v) {
                      target->clear();
                      for (const std::string &piece : cli::split(v, ':'))
                          target->push_back(cli::parseDouble(name, piece));
                  });
}

/** Echo text of a Cr list: "1:0.5", or "uniform" when empty. */
std::string
crListText(const std::vector<double> &crs)
{
    if (crs.empty())
        return "uniform";
    std::string out;
    for (std::size_t i = 0; i < crs.size(); ++i) {
        if (i)
            out += ":";
        out += formatDouble(crs[i]);
    }
    return out;
}

} // namespace

RunOptions::RunOptions()
{
    cfg.numPackets = 2000;
    cfg.trials = 4;
}

void
RunOptions::add(cli::ArgParser &parser, Tier tier)
{
    tier_ = tier;
    core::ExperimentConfig &c = cfg;
    mem::HierarchyConfig &hier = cfg.processor.hierarchy;
    fault::FaultMapSpec &map = cfg.processor.faultMap;
    apps::SessionParams &sess = session;

    parser.section("workload");
    parser.optString("--app", "NAME",
                     "crc tl route drr nat md5 url (paper) + adpcm "
                     "session lpm",
                     &app);

    parser.section("traffic");
    parser.option("--flows", "N",
                  "live flow population override (default: the app's)",
                  [&c](const std::string &v) {
                      c.traceFlows = cli::parseU32("flows", v);
                      if (c.traceFlows == 0)
                          fatal("flows must be >= 1");
                  });
    parser.optU64("--churn", "N",
                  "mean flow lifetime in packets; forces the churn "
                  "traffic model on (default: the app's own setting)",
                  &c.churnLifetime);
    parser.optUnsigned("--ctrl-rate", "N",
                       "control-plane updates per 1000 packets "
                       "(default 0 = no control plane)",
                       &c.ctrl.rate);
    parser.option("--ctrl-mix", "M",
                  "control-plane event mix: fib | nat | session | all "
                  "(default all)",
                  [&c](const std::string &v) {
                      c.ctrl.mix = ctrl::mixFromString(v);
                  });
    parser.option("--flow-zipf", "X",
                  "flow-popularity Zipf exponent (default: the app's)",
                  [&c](const std::string &v) {
                      const double x = cli::parseDouble("flow-zipf", v);
                      if (x < 0.0)
                          fatal("flow-zipf must be >= 0, got %s",
                                v.c_str());
                      c.flowZipf = x;
                  });
    parser.option("--session-capacity", "N",
                  "session app: table slots (default 1024)",
                  [&sess](const std::string &v) {
                      sess.capacity = cli::parseU32("session-capacity", v);
                      if (sess.capacity == 0)
                          fatal("session capacity must be >= 1");
                  });
    parser.option("--session-timeout", "N",
                  "session app: idle timeout in packets (default 4096)",
                  [&sess](const std::string &v) {
                      sess.timeoutPackets =
                          cli::parseU32("session-timeout", v);
                      if (sess.timeoutPackets == 0)
                          fatal("session timeout must be >= 1");
                  });

    parser.section("operating point");
    parser.optDouble("--cr", "X",
                     "relative cycle time (1, 0.75, 0.5, 0.25)", &c.cr);
    parser.flag("--dynamic", "use the dynamic frequency controller",
                &c.dynamicFrequency);
    parser.option("--scheme", "S",
                  "no-detection | one-strike | two-strike | "
                  "three-strike (default: no-detection)",
                  [&c](const std::string &v) {
                      c.scheme = schemeFromName(v);
                  });
    parser.option("--codec", "C", "parity | secded (default: parity)",
                  [&hier](const std::string &v) {
                      hier.codec = codecFromString(v);
                  });
    parser.flag("--subblock", "sub-block strike recovery",
                &hier.subBlockRecovery);
    // The map keeps its seed, so --fault-map and --fault-map-seed
    // compose in either order.
    parser.option("--fault-map", "MAP",
                  "weak-cell map: off | spatial | FILE (default off = "
                  "uniform eq. (4) faults; chips and cards salt the "
                  "generation seed per engine)",
                  [&map](const std::string &v) {
                      const std::uint64_t seed = map.seed;
                      map = fault::faultMapSpecFromString(v);
                      map.seed = seed;
                  });
    parser.optU64("--fault-map-seed", "N",
                  "map generation seed (spatial mode)", &map.seed);
    parser.optUnsigned("--way-retire", "N",
                       "retire an L1D way after N strike-outs "
                       "(default 0 = never)",
                       &hier.wayDisable.retireThreshold);

    parser.section("experiment");
    parser.optU64("--packets", "N",
                  "packets per run, card-wide on a card (default 2000)",
                  &c.numPackets);
    parser.optUnsigned("--trials", "N", "faulty trials (default 4)",
                       &c.trials);
    parser.option("--plane", "P", "both | control | data (default both)",
                  [&c](const std::string &v) {
                      c.plane = planeFromString(v);
                  });
    parser.optDouble("--fault-scale", "X",
                     "fault-rate multiplier (default 1)", &c.faultScale);
    parser.optU64("--seed", "N", "trace seed", &c.traceSeed);
    parser.optU64("--fault-seed", "N", "fault-stream seed", &c.faultSeed);

    if (tier != Tier::Core) {
        npu::NpuConfig &n = npuCfg;
        parser.section("chip");
        parser.optUnsigned("--pes", "N",
                           "processing engines per chip (default 1)",
                           &n.peCount);
        parser.option("--dispatch", "P",
                      "intra-chip dispatch: rr | flow | shortest "
                      "(default rr)",
                      [&n](const std::string &v) {
                          n.dispatch = npu::dispatchFromString(v);
                      });
        parser.optUnsigned("--queue-cap", "N",
                           "per-engine input queue capacity (default 16)",
                           &n.queueCapacity);
        parser.flag("--drop",
                    "drop arrivals when the chosen queue is full "
                    "(default: backpressure)",
                    &n.dropWhenFull);
        optCycles(parser, "--arrival-gap",
                  "inter-arrival gap, base cycles (default 0 = "
                  "saturated)",
                  &n.arrivalGapCycles);
        optCrList(parser, "--per-pe-cr",
                  "colon-separated per-engine Cr list "
                  "(e.g. 1:0.5:0.5:0.25; default: uniform)",
                  &n.perPeCr);
        parser.option("--dvs", "M",
                      "per-engine frequency adaptation: static | fault "
                      "| queue (default fault)",
                      [&n](const std::string &v) {
                          n.dvs = npu::dvsFromString(v);
                      });
        parser.optUnsigned("--mshrs", "K",
                           "shared-L2 port MSHRs: transfers that overlap "
                           "before the port serializes (default 1)",
                           &n.mshrs);
        parser.option("--l2", "M",
                      "L2 contents: private per engine | shared one "
                      "array chip-wide (default private)",
                      [&n](const std::string &v) {
                          n.l2 = npu::l2ModeFromString(v);
                      });
        parser.flag("--flow-rehash",
                    "flow dispatch: rehash flows off dead engines "
                    "instead of dropping their packets",
                    &n.flowRehash);
    }

    if (tier == Tier::Card) {
        linecard::CardConfig &k = cardCfg;
        parser.section("card");
        parser.optUnsigned("--chips", "N", "chips on the card (default 1)",
                           &k.chips);
        parser.option("--card-dispatch", "P",
                      "inter-chip dispatch: rr | flow | shortest "
                      "(default rr)",
                      [&k](const std::string &v) {
                          k.dispatch = npu::dispatchFromString(v);
                      });
        parser.optUnsigned("--dram-banks", "N",
                           "shared-DRAM banks (default 8; 0 = flat "
                           "penalty, byte-identical to clumsy_npu)",
                           &k.dram.banks);
        parser.optUnsigned("--dram-row-bytes", "N",
                           "DRAM row-buffer size, bytes, power of two "
                           "(default 2048)",
                           &k.dram.rowBytes);
        optCycles(parser, "--dram-hit",
                  "row-buffer hit latency, cycles (default 60; also "
                  "the flat penalty the model replaces)",
                  &k.dram.rowHitCycles);
        optCycles(parser, "--dram-miss",
                  "closed-row miss latency, cycles (default 90)",
                  &k.dram.rowMissCycles);
        optCycles(parser, "--dram-conflict",
                  "row-conflict latency, cycles (default 135)",
                  &k.dram.rowConflictCycles);
        parser.optUnsigned("--card-jobs", "N",
                           "worker threads for the golden run and "
                           "trials; results are byte-identical for "
                           "every value (default 1 = serial, 0 = "
                           "hardware)",
                           &k.cardJobs);
        parser.optUnsigned("--ingress-cap", "N",
                           "per-chip ingress FIFO capacity, packets "
                           "(default 0 = unbounded)",
                           &k.ingressCapacity);
        optCrList(parser, "--per-chip-cr",
                  "colon-separated per-chip Cr list "
                  "(e.g. 1:0.5:0.5:0.25; default: uniform)",
                  &k.perChipCr);
    }

    parser.section("output");
    parser.flag("--csv", "CSV tables", &csv);
    parser.flag("--json",
                "machine-readable JSON: this run's config, then the "
                "result schema shared with clumsy_sweep",
                &json);
}

void
RunOptions::finish()
{
    if (app.empty())
        fatal("--app is required (try --help)");
    cfg.validate();
    if (tier_ != Tier::Core) {
        npuCfg.validate(cfg.processor.hierarchy);
        traffic::checkArrivalSpan("--arrival-gap", npuCfg.arrivalGapCycles,
                                  cfg.numPackets);
    }
    if (tier_ == Tier::Card)
        cardCfg.validate();
}

core::AppFactory
RunOptions::factory() const
{
    // The session app is the one workload with CLI-tunable knobs; all
    // others come from the stock factory.
    if (app != "session")
        return apps::appFactory(app);
    return [params = session] {
        return std::make_unique<apps::SessionApp>(params);
    };
}

std::string
RunOptions::configEcho() const
{
    std::string out = "{\n";
    auto put = [&out](const char *key, const std::string &value) {
        out += std::string("  \"") + key + "\": " + value + ",\n";
    };
    auto str = [](const std::string &s) {
        std::string quoted = "\"";
        quoted += jsonEscape(s);
        quoted += '"';
        return quoted;
    };
    auto boolean = [](bool b) {
        return std::string(b ? "true" : "false");
    };
    using std::to_string;
    const mem::HierarchyConfig &hier = cfg.processor.hierarchy;
    const fault::FaultMapSpec &map = cfg.processor.faultMap;

    put("app", str(app));
    put("cr", jsonNumber(cfg.cr));
    put("dynamic", boolean(cfg.dynamicFrequency));
    put("scheme", str(schemeName(cfg.scheme)));
    put("codec", str(codecName(hier.codec)));
    put("plane", str(planeName(cfg.plane)));
    put("fault_scale", jsonNumber(cfg.faultScale));
    if (map.enabled()) {
        put("fault_map", str(map.mode == fault::FaultMapMode::File
                                 ? map.path
                                 : fault::to_string(map.mode)));
        put("map_seed", to_string(map.seed));
    }
    if (hier.wayDisable.enabled())
        put("way_retire", to_string(hier.wayDisable.retireThreshold));

    // CardConfig::cardJobs and NpuConfig::chipJobs are deliberately
    // not echoed: they are host scheduling knobs, not part of the
    // modeled machine, and output must not depend on them.
    if (tier_ == Tier::Card) {
        const linecard::CardConfig &k = cardCfg;
        put("chips", to_string(k.chips));
        put("card_dispatch", str(npu::to_string(k.dispatch)));
        put("per_chip_cr", str(crListText(k.perChipCr)));
        put("dram_banks", to_string(k.dram.banks));
        if (k.dram.banks > 0) {
            put("dram_row_bytes", to_string(k.dram.rowBytes));
            put("dram_hit_cycles", to_string(k.dram.rowHitCycles));
            put("dram_miss_cycles", to_string(k.dram.rowMissCycles));
            put("dram_conflict_cycles",
                to_string(k.dram.rowConflictCycles));
        }
        put("ingress_cap", to_string(k.ingressCapacity));
    }
    if (tier_ != Tier::Core) {
        const npu::NpuConfig &n = npuCfg;
        put("pes", to_string(n.peCount));
        put("dispatch", str(npu::to_string(n.dispatch)));
        put("per_pe_cr", str(crListText(n.perPeCr)));
        put("dvs", str(npu::to_string(n.dvs)));
        put("mshrs", to_string(n.mshrs));
        put("l2", str(npu::to_string(n.l2)));
        put("flow_rehash", boolean(n.flowRehash));
        put("queue_cap", to_string(n.queueCapacity));
        put("drop_when_full", boolean(n.dropWhenFull));
        put("arrival_gap_cycles", to_string(n.arrivalGapCycles));
    }

    // Traffic and session overrides elide at their defaults, as in
    // the sweep cell key.
    const apps::SessionParams defaultSession;
    if (cfg.traceFlows != 0)
        put("flows", to_string(cfg.traceFlows));
    if (cfg.churnLifetime != 0)
        put("churn", to_string(cfg.churnLifetime));
    if (cfg.flowZipf >= 0.0)
        put("flow_zipf", jsonNumber(cfg.flowZipf));
    if (hier.subBlockRecovery)
        put("subblock", "true");
    if (session.capacity != defaultSession.capacity)
        put("session_capacity", to_string(session.capacity));
    if (session.timeoutPackets != defaultSession.timeoutPackets)
        put("session_timeout", to_string(session.timeoutPackets));
    if (cfg.ctrl.rate != 0) {
        put("ctrl", to_string(cfg.ctrl.rate));
        put("updates", str(ctrl::to_string(cfg.ctrl.mix)));
    }
    put("packets", to_string(cfg.numPackets));
    put("trials", to_string(cfg.trials));
    put("seed", to_string(cfg.traceSeed));
    put("fault_seed", to_string(cfg.faultSeed));
    return out;
}

} // namespace clumsy::sweep
