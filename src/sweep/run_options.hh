/**
 * @file
 * The option set of the single-run CLIs (clumsy_sim, clumsy_npu,
 * clumsy_card).
 *
 * Every tier runs the same evaluation axes, so every flag is
 * registered, validated and echoed here once. The tier decides which
 * groups a binary takes: the run group (workload, traffic, operating
 * point, experiment, output) on every tier, the chip group on the
 * chip and card tiers, the card group on the card tier only. Host
 * knobs that one binary alone has (clumsy_sim's trace tools,
 * clumsy_npu's --chip-jobs) stay in that binary.
 */

#ifndef CLUMSY_SWEEP_RUN_OPTIONS_HH
#define CLUMSY_SWEEP_RUN_OPTIONS_HH

#include <string>

#include "apps/session.hh"
#include "common/cli.hh"
#include "core/experiment.hh"
#include "linecard/card.hh"
#include "npu/config.hh"

namespace clumsy::sweep
{

/** The simulator tier a binary drives. */
enum class Tier
{
    Core, ///< one clumsy processor (clumsy_sim)
    Chip, ///< N engines behind a shared L2 (clumsy_npu)
    Card, ///< N chips sharing a banked DRAM (clumsy_card)
};

/** Parsed, validated configuration of one single-run CLI invocation. */
struct RunOptions
{
    std::string app;
    apps::SessionParams session;
    core::ExperimentConfig cfg; ///< 2000 packets, 4 trials by default
    npu::NpuConfig npuCfg;
    linecard::CardConfig cardCfg;
    bool csv = false;
    bool json = false;

    RunOptions();

    // The parser's callbacks point into this object.
    RunOptions(const RunOptions &) = delete;
    RunOptions &operator=(const RunOptions &) = delete;

    /** Register the groups @p tier takes. Call once, before parse. */
    void add(cli::ArgParser &parser, Tier tier);

    /**
     * Validate every config of the tier once: fatal()s, exit 1, on
     * bad input. Call after parse, before any simulation.
     */
    void finish();

    /** The workload factory (the session app takes session). */
    core::AppFactory factory() const;

    /**
     * The opening of the JSON document: "{" and one `"key": value,`
     * line per config field, in the order head -> card block -> chip
     * block -> tail. Map, way-retire, ctrl and the traffic/session
     * overrides are echoed only at non-default values, so enabling
     * nothing keeps the output of earlier builds; host thread counts
     * are never echoed. The caller appends its result keys and "}".
     */
    std::string configEcho() const;

  private:
    Tier tier_ = Tier::Core; ///< set by add()
};

} // namespace clumsy::sweep

#endif // CLUMSY_SWEEP_RUN_OPTIONS_HH
