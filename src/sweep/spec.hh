/**
 * @file
 * Declarative experiment-grid specification for the sweep engine.
 *
 * A SweepSpec is the cartesian product of its grid axes (application,
 * operating point, recovery scheme, check codec, fault plane, fault
 * scale, the chip, line-card, traffic, fault-map and control-plane
 * axes) plus the scalar knobs shared by every cell (packets, trials,
 * seeds). It round-trips through a compact grid string:
 *
 *   app=route,md5;cr=1,0.5,dynamic;scheme=two-strike;trials=8
 *
 * Axes omitted from the string keep their single-value defaults, so
 * the paper's full Table I / Figures 9-12 grids and a one-cell smoke
 * run are expressed in the same language.
 *
 * Each axis is declared once, as one row of the axis table in
 * spec.cc: grid parsing, the grid string, expansion, cell keys,
 * the config builders and the sink's JSON and CSV columns all walk
 * it. Expansion order is the table order, which gives every cell a
 * stable index and canonical key — the anchor for the deterministic
 * reduction and for --resume.
 */

#ifndef CLUMSY_SWEEP_SPEC_HH
#define CLUMSY_SWEEP_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "ctrl/ctrl.hh"
#include "linecard/card.hh"
#include "mem/cache.hh"
#include "mem/recovery.hh"
#include "npu/config.hh"

namespace clumsy::sweep
{

/** One frequency configuration: a static Cr or the dynamic scheme. */
struct OperatingPoint
{
    double cr = 1.0;      ///< relative cycle time (1 when dynamic)
    bool dynamic = false; ///< dynamic frequency adaptation

    bool operator==(const OperatingPoint &) const = default;
};

/** Canonical text for an operating point ("0.5" or "dynamic"). */
std::string to_string(const OperatingPoint &point);

/** The declarative grid. */
struct SweepSpec
{
    // Axis values, in expansion order (outermost first). Each axis's
    // spelling, elision and config target is its row in spec.cc.
    std::vector<std::string> apps; ///< parse() defaults to all apps
    std::vector<OperatingPoint> points = {OperatingPoint{}};
    std::vector<mem::RecoveryScheme> schemes = {
        mem::RecoveryScheme::NoDetection};
    std::vector<mem::CheckCodec> codecs = {mem::CheckCodec::Parity};
    std::vector<core::FaultPlane> planes = {core::FaultPlane::Both};
    std::vector<double> faultScales = {1.0};

    // Chip axes (src/npu/). At their defaults the runner executes the
    // cell through the single-core harness.
    std::vector<unsigned> peCounts = {1};
    std::vector<npu::DispatchPolicy> dispatches = {
        npu::DispatchPolicy::RoundRobin};
    /** Colon-separated per-engine Cr lists; "" (grid "uniform") = none. */
    std::vector<std::string> perPeCrs = {""};
    std::vector<npu::DvsMode> dvsModes = {npu::DvsMode::Fault};
    std::vector<unsigned> mshrs = {1}; ///< shared-L2 port MSHRs
    std::vector<npu::L2Mode> l2Modes = {npu::L2Mode::Private};
    /** Inter-arrival gaps, base cycles (0 = saturated input). */
    std::vector<std::int64_t> arrivalGaps = {0};
    /**
     * Chip-run worker threads, clamped by the runner so sweep jobs
     * times chip jobs never oversubscribes; results are byte-identical
     * across values.
     */
    std::vector<unsigned> chipJobs = {1};

    // Line-card axes (src/linecard/). At their defaults the cell runs
    // through the chip or single-core harness.
    std::vector<unsigned> chips = {1};
    std::vector<unsigned> dramBanks = {0}; ///< 0 = DRAM model off
    /**
     * Only 1 is accepted: the sweep runs every card run as its own
     * job, so other values would only rename a cell. The axis stays so
     * grid strings still name it and older documents still load.
     */
    std::vector<unsigned> cardJobs = {1};

    // Traffic axes (src/traffic/); 0 = the app's own setting.
    std::vector<std::uint32_t> flows = {0};
    std::vector<std::uint64_t> churns = {0}; ///< mean flow lifetimes

    /** Fault maps: "off" (uniform eq. (4)), "spatial" or a map path. */
    std::vector<std::string> faultMaps = {"off"};
    std::vector<unsigned> retires = {0}; ///< way-disable threshold

    /** Control-plane events per 1000 packets (0 = none) and mixes. */
    std::vector<std::uint32_t> ctrlRates = {0};
    std::vector<ctrl::CtrlMix> updateMixes = {ctrl::CtrlMix::All};

    // Scalar knobs shared by every cell.
    std::uint64_t packets = 2000;
    unsigned trials = 4;
    std::uint64_t traceSeed = 1;
    std::uint64_t faultSeed = 0x5eed;

    /**
     * Generation seed for faultmap=spatial cells. A scalar, not an
     * axis: the map is the silicon under test, identical in every
     * cell, while faultSeed varies which weak cells get exercised.
     */
    std::uint64_t mapSeed = 0xfa17;

    /**
     * Parse a grid string (semicolon-separated key=value,value,...
     * pairs; keys are listed by gridKeys()). "app=all" / "scheme=all"
     * expand to the full sets. fatal()s on unknown keys or values,
     * and on gaps whose arrivals would overflow the simulated clock.
     */
    static SweepSpec parse(const std::string &grid);

    /**
     * Canonical grid string listing every dimension and scalar;
     * parse(toGridString()) reproduces the spec exactly.
     */
    std::string toGridString() const;

    /** Total number of grid cells (product of dimension sizes). */
    std::size_t cellCount() const;
};

/** One point of the expanded grid. */
struct SweepCell
{
    std::size_t index = 0; ///< position in expansion order
    std::string app;
    OperatingPoint point;
    mem::RecoveryScheme scheme = mem::RecoveryScheme::NoDetection;
    mem::CheckCodec codec = mem::CheckCodec::Parity;
    core::FaultPlane plane = core::FaultPlane::Both;
    double faultScale = 1.0;
    unsigned peCount = 1;
    npu::DispatchPolicy dispatch = npu::DispatchPolicy::RoundRobin;
    std::string perPeCr; ///< colon-separated Cr list; "" = uniform
    npu::DvsMode dvs = npu::DvsMode::Fault;
    unsigned mshrs = 1;
    npu::L2Mode l2 = npu::L2Mode::Private;
    std::int64_t arrivalGap = 0; ///< inter-arrival gap, base cycles
    unsigned chipJobs = 1;       ///< chip-run worker threads
    unsigned chips = 1;          ///< line-card chip count
    unsigned dramBanks = 0;      ///< shared-DRAM banks (0 = model off)
    unsigned cardJobs = 1;       ///< card run-level worker threads
    std::uint32_t flows = 0;     ///< flow override (0 = app default)
    std::uint64_t churn = 0;     ///< mean flow lifetime (0 = app's own)
    std::string faultMap = "off"; ///< "off", "spatial" or a map path
    unsigned retire = 0;         ///< way-disable threshold (0 = off)
    std::uint32_t ctrlRate = 0;  ///< ctrl events per 1000 pkts (0 = off)
    ctrl::CtrlMix updates = ctrl::CtrlMix::All; ///< event mix at ctrl>0

    /**
     * @return true when the cell needs the chip model: any chip axis
     * (pes through chip-jobs) off its default.
     */
    bool isNpu() const;

    /**
     * @return true when the cell needs the line-card tier: any card
     * axis (chips, dram-banks, card-jobs) off its default.
     */
    bool isCard() const;

    /**
     * Stable identity of the cell within any spec that contains it:
     * "app=crc;cr=0.5;scheme=two-strike;codec=parity;plane=both;
     * fault-scale=1", then each other axis its key elision admits
     * (see the axis table). Plain single-engine cells keep the
     * historical six-axis key, so result files written before the
     * newer axes existed resume cleanly. Used as the JSON result key
     * and by --resume.
     */
    std::string key() const;
};

class JsonWriter;
struct JVal;

/** Write the cell's axis fields into its JSON record, as elided. */
void writeAxisFields(JsonWriter &w, const SweepCell &cell);

/**
 * Read them back. The axes every key spells out must be present; the
 * others keep their defaults when absent, as in older documents.
 */
void readAxisFields(const JVal &record, SweepCell &cell);

// The CSV axis columns: header and a cell's values, each ending in ','.
std::string axisCsvHeader();
std::string axisCsvFields(const SweepCell &cell);

/** Every key a grid string accepts, space-separated. */
std::string gridKeys();

/** Expand the grid in axis-table order (the last axis varies fastest). */
std::vector<SweepCell> expand(const SweepSpec &spec);

/** The ExperimentConfig a cell runs under. */
core::ExperimentConfig makeConfig(const SweepSpec &spec,
                                  const SweepCell &cell);

/**
 * The chip configuration of a cell (meaningful when cell.isNpu()).
 * fatal()s when the per-pe-cr list names a different number of
 * engines than pes.
 */
npu::NpuConfig makeNpuConfig(const SweepCell &cell);

/**
 * The line-card configuration of a cell (meaningful when
 * cell.isCard()): chips behind a round-robin card dispatcher sharing
 * a dramBanks-bank DRAM.
 */
linecard::CardConfig makeCardConfig(const SweepCell &cell);

/** Dash-form scheme name usable inside keys ("no-detection"). */
std::string schemeName(mem::RecoveryScheme scheme);

/** Parse a scheme name (dash or space form); fatal()s on junk. */
mem::RecoveryScheme schemeFromName(const std::string &name);

/** Canonical codec name ("parity" / "secded"). */
std::string codecName(mem::CheckCodec codec);

/** Parse a codec name; fatal()s on junk. */
mem::CheckCodec codecFromString(const std::string &name);

/** Canonical plane name ("both" / "control" / "data"). */
std::string planeName(core::FaultPlane plane);

/** Parse a plane name; fatal()s on junk. */
core::FaultPlane planeFromString(const std::string &name);

/** Shortest round-trip decimal text for a double ("0.5", "1"). */
std::string formatDouble(double v);

} // namespace clumsy::sweep

#endif // CLUMSY_SWEEP_SPEC_HH
