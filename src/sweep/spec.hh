/**
 * @file
 * Declarative experiment-grid specification for the sweep engine.
 *
 * A SweepSpec is the cartesian product of up to six swept dimensions
 * (application, operating point, recovery scheme, check codec, fault
 * plane, fault-rate scale) plus the scalar knobs shared by every cell
 * (packets, trials, trace seed, fault seed). It round-trips through a
 * compact grid string:
 *
 *   app=route,md5;cr=1,0.5,dynamic;scheme=two-strike;trials=8
 *
 * Dimensions omitted from the string keep their single-value
 * defaults, so the paper's full Table I / Figures 9-12 grids and a
 * one-cell smoke run are expressed in the same language. Expansion
 * order is fixed (the nesting order of the fields below), which gives
 * every cell a stable index and canonical key — the anchor for the
 * deterministic reduction and for --resume.
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
    // Swept dimensions, in expansion-nesting order (outermost first).
    std::vector<std::string> apps; ///< parse() defaults to all apps
    std::vector<OperatingPoint> points = {OperatingPoint{}};
    std::vector<mem::RecoveryScheme> schemes = {
        mem::RecoveryScheme::NoDetection};
    std::vector<mem::CheckCodec> codecs = {mem::CheckCodec::Parity};
    std::vector<core::FaultPlane> planes = {core::FaultPlane::Both};
    std::vector<double> faultScales = {1.0};

    // Chip dimensions (src/npu/). The defaults describe a plain
    // single-engine chip, which the runner executes through the
    // single-core harness — identical results to a pre-npu sweep.
    std::vector<unsigned> peCounts = {1};
    std::vector<npu::DispatchPolicy> dispatches = {
        npu::DispatchPolicy::RoundRobin};
    /**
     * Per-engine Cr assignments: each entry is a colon-separated Cr
     * list ("1:0.5:0.5:0.25"), or "" (spelled "uniform" in grid
     * strings) for every engine at the cell's Cr.
     */
    std::vector<std::string> perPeCrs = {""};

    /** Per-engine frequency adaptation modes (static/fault/queue). */
    std::vector<npu::DvsMode> dvsModes = {npu::DvsMode::Fault};

    /** Shared-L2 port MSHR counts. */
    std::vector<unsigned> mshrs = {1};

    /** L2 contents models (private / shared). */
    std::vector<npu::L2Mode> l2Modes = {npu::L2Mode::Private};

    /**
     * Offered-load inter-arrival gaps, base cycles per packet
     * (NpuConfig::arrivalGapCycles). 0 = saturated input. A non-zero
     * gap routes the cell through the chip model.
     */
    std::vector<std::int64_t> arrivalGaps = {0};

    /**
     * Chip-jobs values (NpuConfig::chipJobs): worker threads one chip
     * run may use, clamped by the runner so sweep jobs times chip
     * jobs never oversubscribes. Results are byte-identical across
     * values — this axis moves wall-clock, not physics.
     */
    std::vector<unsigned> chipJobs = {1};

    /**
     * Line-card dimensions (src/linecard/): chip counts behind the
     * inter-chip dispatcher, shared-DRAM bank counts (0 = analytical
     * DRAM model off, the historical flat-penalty behaviour) and
     * card-jobs values (run-level worker threads, byte-identical
     * across values like chip-jobs; the sweep already runs each card
     * run as its own job, so the value only names the cell). The
     * all-default column routes the cell through the chip or
     * single-core harness unchanged.
     */
    std::vector<unsigned> chips = {1};
    std::vector<unsigned> dramBanks = {0};
    std::vector<unsigned> cardJobs = {1};

    /**
     * Traffic-model dimensions (src/traffic/): flow-population
     * overrides (0 = the app's own default) and churn mean flow
     * lifetimes in packets (0 = the app's own churn setting; nonzero
     * forces the churn model on). Orthogonal to the harness choice —
     * both the single-core and chip paths stream from the same
     * traffic::PacketSource.
     */
    std::vector<std::uint32_t> flows = {0};
    std::vector<std::uint64_t> churns = {0};

    /**
     * Fault-map dimensions (src/fault/fault_map.hh): map selections
     * ("off" = uniform eq. (4) faults, "spatial" = the seeded
     * generation model, anything else = a map-file path) and
     * way-disable retire thresholds (0 = off). Both default to the
     * historical uniform/no-retire behaviour so every pre-faultmap
     * result stays byte-identical.
     */
    std::vector<std::string> faultMaps = {"off"};
    std::vector<unsigned> retires = {0};

    /**
     * Control-plane churn dimensions (src/ctrl/): update rates in
     * events per 1000 packets (0 = no control plane, the default that
     * keeps every run bit-identical to a pre-ctrl sweep) and the event
     * mix each rate draws from. Both harnesses interleave the same
     * stream, so the axes compose with every chip dimension.
     */
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
     * pairs). Keys: app, cr, scheme, codec, plane, fault-scale,
     * pes, dispatch, per-pe-cr, dvs, mshrs, l2, gap, chip-jobs,
     * chips, dram-banks, card-jobs, flows, churn, faultmap, retire,
     * ctrl, updates, packets, trials, seed, fault-seed, map-seed.
     * "app=all" / "scheme=all" expand to the full sets. fatal()s on
     * unknown keys or values.
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
     * @return true when the cell needs the chip model: anything but
     * the default single-engine round-robin uniform fault-mode
     * single-MSHR private-L2 saturated-serial configuration.
     */
    bool isNpu() const
    {
        return peCount != 1 ||
               dispatch != npu::DispatchPolicy::RoundRobin ||
               !perPeCr.empty() || dvs != npu::DvsMode::Fault ||
               mshrs != 1 || l2 != npu::L2Mode::Private ||
               arrivalGap != 0 || chipJobs != 1;
    }

    /**
     * @return true when the cell needs the line-card tier: more than
     * one chip, the DRAM model on, or a non-serial card-jobs value.
     */
    bool isCard() const
    {
        return chips != 1 || dramBanks != 0 || cardJobs != 1;
    }

    /**
     * Stable identity of the cell within any spec that contains it:
     * "app=crc;cr=0.5;scheme=two-strike;codec=parity;plane=both;
     * fault-scale=1". Cells using the chip model append
     * ";pes=N;dispatch=D;per-pe-cr=X", plus ";dvs=M", ";mshrs=K",
     * ";l2=shared", ";gap=G" and ";chip-jobs=J" only at non-default
     * values; plain single-engine cells keep the historical
     * six-dimension key. The elisions let result files written before
     * the newer dimensions existed resume cleanly. Used as the JSON
     * result key and by --resume.
     */
    std::string key() const;
};

/** Expand the grid in canonical nesting order. */
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
