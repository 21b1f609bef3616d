/**
 * @file
 * Result sinks for the sweep engine.
 *
 * The JSON document is the engine's canonical machine-readable
 * output. Layout (one result object per line, so the file diffs and
 * resumes cleanly):
 *
 *   {
 *     "format": "clumsy-sweep-v1",
 *     "spec": "<canonical grid string>",
 *     "cells": N,
 *     "provenance": {"git": "...", "jobs": J, "wall_ms": T},
 *     "results": [
 *       {"key": "app=...;cr=...", ..., "result": {...}, "wall_ms": X},
 *       ...
 *     ]
 *   }
 *
 * Everything outside "provenance" and the per-cell "wall_ms" fields
 * is a pure function of the spec, so rendering with provenance
 * disabled yields byte-identical documents for any worker count —
 * the property the determinism tests pin down.
 *
 * loadCompletedCells() re-parses a previously written document so
 * --resume can skip finished cells and still emit a complete merged
 * file.
 */

#ifndef CLUMSY_SWEEP_SINK_HH
#define CLUMSY_SWEEP_SINK_HH

#include <cstdint>
#include <map>
#include <string>

#include "linecard/card.hh"
#include "sweep/runner.hh"

namespace clumsy::sweep
{

/**
 * Render the full JSON document. @p provenance controls the
 * run-environment fields (git describe, job count, wall times); with
 * it off the document depends only on the spec and the simulation.
 */
std::string renderJson(const SweepOutcome &outcome, bool provenance);

/**
 * Render a flat CSV table, one row per cell, same cell order. With
 * @p provenance off the wall_ms column is left out, so the table, like
 * the JSON, depends only on the spec and the simulation.
 */
std::string renderCsv(const SweepOutcome &outcome, bool provenance = true);

/**
 * Serialize one ExperimentResult as a compact JSON object (golden
 * metrics + trial aggregates). Shared with clumsy_sim --json.
 */
std::string experimentResultJson(const core::ExperimentResult &res);

/**
 * Serialize one ChipMetrics as a compact JSON object. Shared with
 * clumsy_npu --json so both emitters stay field-for-field identical.
 */
std::string chipMetricsJson(const npu::ChipMetrics &metrics);

/**
 * Serialize one CardMetrics as a compact JSON object. Shared with
 * clumsy_card --json so both emitters stay field-for-field identical.
 */
std::string cardMetricsJson(const linecard::CardMetrics &metrics);

/** Zero-padded 16-digit lowercase hex (for value digests). */
std::string hexU64(std::uint64_t v);

/**
 * Parse the "results" entries of a previously written sweep JSON
 * file into outcomes keyed by cell key. Returns an empty map when
 * the file does not exist; fatal()s when it exists but is not a
 * clumsy-sweep document.
 */
std::map<std::string, CellOutcome>
loadCompletedCells(const std::string &path);

/** Write @p content to @p path, fatal()ing on I/O failure. */
void writeFile(const std::string &path, const std::string &content);

/** `git describe --always --dirty`, or "unknown" outside a repo. */
std::string gitDescribe();

} // namespace clumsy::sweep

#endif // CLUMSY_SWEEP_SINK_HH
