/**
 * @file
 * The paper's comparison metrics (Section 4.1).
 *
 * Because a clumsy processor is allowed to make mistakes, plain delay
 * or energy-delay products are insufficient; the paper introduces the
 * energy^k - delay^m - fallibility^n product with k=1, m=2, n=2.
 * Fallibility is application-level: 1 + the fraction of packets with
 * any erroneous marked value. Fatal errors truncate the run, so all
 * per-packet quantities are computed over the packets successfully
 * processed before the fatal error.
 */

#ifndef CLUMSY_CORE_METRICS_HH
#define CLUMSY_CORE_METRICS_HH

#include <cstdint>
#include <map>
#include <string>
#include <tuple>

#include "common/fields.hh"

namespace clumsy::core
{

/** Exponents of the energy-delay-fallibility product. */
struct MetricWeights
{
    double k = 1.0; ///< energy exponent
    double m = 2.0; ///< delay exponent
    double n = 2.0; ///< fallibility exponent
};

/** Everything measured in one (golden or faulty) run. */
struct RunMetrics
{
    std::uint64_t packetsAttempted = 0;
    std::uint64_t packetsProcessed = 0; ///< completed before any fatal
    std::uint64_t packetsWithError = 0;
    bool fatal = false;
    std::string fatalReason;

    double cyclesPerPacket = 0.0;
    double energyPerPacketPj = 0.0;
    double totalEnergyPj = 0.0;
    double l1dEnergyPj = 0.0;

    std::uint64_t instructions = 0;
    std::uint64_t dcacheAccesses = 0;
    double dcacheMissRate = 0.0;
    std::uint64_t faultsInjected = 0;
    std::uint64_t parityTrips = 0;
    std::uint64_t eccCorrections = 0;
    std::uint64_t freqSwitches = 0;

    /** Control-plane events applied during the data plane (ctrl=). */
    std::uint64_t ctrlEventsApplied = 0;

    /** Packets whose named marked value mismatched the golden run. */
    std::map<std::string, std::uint64_t> errorsByType;
};

/** RunMetrics' fields in document order (common/fields.hh). */
inline constexpr auto kRunMetricsFields = [] {
    using M = RunMetrics;
    return std::tuple{
        Field{"packets_attempted", &M::packetsAttempted},
        Field{"packets_processed", &M::packetsProcessed},
        Field{"packets_with_error", &M::packetsWithError},
        Field{"fatal", &M::fatal},
        Field{"fatal_reason", &M::fatalReason},
        Field{"cycles_per_packet", &M::cyclesPerPacket},
        Field{"energy_per_packet_pj", &M::energyPerPacketPj},
        Field{"total_energy_pj", &M::totalEnergyPj},
        Field{"l1d_energy_pj", &M::l1dEnergyPj},
        Field{"instructions", &M::instructions},
        Field{"dcache_accesses", &M::dcacheAccesses},
        Field{"dcache_miss_rate", &M::dcacheMissRate},
        Field{"faults_injected", &M::faultsInjected},
        Field{"parity_trips", &M::parityTrips},
        Field{"ecc_corrections", &M::eccCorrections},
        Field{"freq_switches", &M::freqSwitches},
        // Elided at zero: pre-ctrl documents and rate-0 runs keep the
        // bytes earlier versions wrote.
        Field{"ctrl_events_applied", &M::ctrlEventsApplied,
              Presence::ElidedAtZero},
        Field{"errors_by_type", &M::errorsByType},
    };
}();

/** Fraction of processed packets with at least one error. */
double anyErrorProb(const RunMetrics &m);

/** The paper's fallibility factor: 1 + anyErrorProb. */
double fallibility(const RunMetrics &m);

/**
 * Per-packet fatal-error hazard: 1/packetsProcessed when the run died,
 * 0 otherwise (matches the paper's packets-until-fatal accounting).
 */
double fatalProb(const RunMetrics &m);

/**
 * energy^k * delay^m * fallibility^n, using per-packet energy and
 * delay so truncated (fatal) runs compare fairly.
 */
double edfProduct(const RunMetrics &m, MetricWeights w = {});

/** edfProduct(m) / edfProduct(baseline) — the paper's relative bars. */
double relativeEdf(const RunMetrics &m, const RunMetrics &baseline,
                   MetricWeights w = {});

} // namespace clumsy::core

#endif // CLUMSY_CORE_METRICS_HH
