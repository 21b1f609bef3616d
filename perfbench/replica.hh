/**
 * @file
 * The replica loop: the single-core golden/faulty run rebuilt from
 * the same public calls core::runOnce makes (PacketApp::initialize,
 * PacketSource::next, applyCtrlEvent, processPacket,
 * ValueRecorder::comparePacket), each wrapped in a host timer, with
 * the modules' public counters read at the end of every run. Each
 * replayed experiment is also run through core::runGolden and
 * core::runFaultyTrial, and the replica must match them exactly.
 */

#ifndef CLUMSY_PERFBENCH_REPLICA_HH
#define CLUMSY_PERFBENCH_REPLICA_HH

#include <cstdint>
#include <string>

#include "core/experiment.hh"
#include "trace.hh"
#include "workloads.hh"

namespace perfbench
{

/** Host time and module counters summed over every replica run. */
struct ReplicaStats
{
    Timer init;    ///< PacketApp::initialize
    Timer next;    ///< traffic::PacketSource::next
    Timer ctrl;    ///< PacketApp::applyCtrlEvent
    Timer process; ///< PacketApp::processPacket
    Timer compare; ///< ValueRecorder::comparePacket
    Timer run;     ///< whole replica runs

    std::uint64_t packets = 0;    ///< packets processed
    std::uint64_t ctrlEvents = 0; ///< control events applied

    double l1dAccesses = 0.0; ///< hierarchy reads + writes
    double l1dReads = 0.0;
    double l1dHits = 0.0;
    double l1dMisses = 0.0;
    double l2Hits = 0.0;
    double l2Misses = 0.0;
    double parityTrips = 0.0;
    double strikeRetries = 0.0;
    double faultyAccesses = 0.0; ///< l1d accesses of faulty runs
    double faultsInjected = 0.0;
    double l1dPj = 0.0; ///< data-plane L1D energy
    double instructions = 0.0;
    double freqSwitches = 0.0;

    /** Host ns per processed packet over whole replica runs. */
    double nsPerPacket() const
    {
        return packets ? run.seconds * 1e9 / static_cast<double>(packets)
                       : 0.0;
    }
};

/**
 * Replay golden + config.trials faulty trials of one experiment
 * through the replica, and check every run against
 * core::runGolden / core::runFaultyTrial (metrics, and the golden
 * recorder digest).
 */
void replicateExperiment(const std::string &label,
                         const clumsy::core::AppFactory &factory,
                         const clumsy::core::ExperimentConfig &config,
                         ReplicaStats &stats, Tracer &tracer,
                         Checks &checks, int parentSpan);

/** Write the replica-derived layer metrics (apps/core/traffic/...). */
void replicaLayers(const ReplicaStats &stats, Layers &layers);

} // namespace perfbench

#endif // CLUMSY_PERFBENCH_REPLICA_HH
