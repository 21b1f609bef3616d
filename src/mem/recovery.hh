/**
 * @file
 * Fault detection / recovery schemes (paper Section 4).
 *
 * The paper evaluates four L1 D-cache configurations:
 *  - NoDetection : no parity; corrupted data flows silently.
 *  - OneStrike   : parity; the first detected fault invalidates the
 *                  block and refetches from L2 (assume write fault).
 *  - TwoStrike   : parity; retry the L1 read once, invalidate on the
 *                  second detection.
 *  - ThreeStrike : parity; two retries before invalidating.
 */

#ifndef CLUMSY_MEM_RECOVERY_HH
#define CLUMSY_MEM_RECOVERY_HH

#include <string>

#include "common/logging.hh"

namespace clumsy::mem
{

/** The four detection/recovery configurations of the paper. */
enum class RecoveryScheme
{
    NoDetection,
    OneStrike,
    TwoStrike,
    ThreeStrike,
};

/** All schemes, in the order the paper's figures present them. */
inline constexpr RecoveryScheme kAllRecoverySchemes[] = {
    RecoveryScheme::NoDetection,
    RecoveryScheme::OneStrike,
    RecoveryScheme::TwoStrike,
    RecoveryScheme::ThreeStrike,
};

/**
 * Way-disable recovery (INTERPLAY-style, see PAPERS.md): once a cache
 * frame has exhausted its strikes `retireThreshold` times, the frame
 * is chronically weak — with a spatially correlated fault map the same
 * cells keep failing at the same addresses — so the frame is retired
 * outright instead of being refetched forever. Retired frames never
 * hold lines again; accesses mapping to a fully retired set are
 * served by the L2 through the normal miss path, which is exactly how
 * the capacity loss is charged. Layered on top of the N-strike
 * schemes; inert under NoDetection (nothing ever strikes out).
 */
struct WayDisablePolicy
{
    /** Strike-outs a frame survives before retirement; 0 = off. */
    unsigned retireThreshold = 0;

    bool enabled() const { return retireThreshold != 0; }

    bool operator==(const WayDisablePolicy &o) const
    {
        return retireThreshold == o.retireThreshold;
    }
};

/** @return true when the scheme uses parity detection. */
inline bool
usesParity(RecoveryScheme scheme)
{
    return scheme != RecoveryScheme::NoDetection;
}

/**
 * Number of L1 read attempts (initial + retries) before the block is
 * invalidated and refetched from L2. NoDetection never invalidates.
 */
inline unsigned
readAttempts(RecoveryScheme scheme)
{
    switch (scheme) {
      case RecoveryScheme::NoDetection:
        return 1;
      case RecoveryScheme::OneStrike:
        return 1;
      case RecoveryScheme::TwoStrike:
        return 2;
      case RecoveryScheme::ThreeStrike:
        return 3;
    }
    panic("unreachable recovery scheme");
}

/** Human-readable name ("no detection", "one-strike", ...). */
std::string to_string(RecoveryScheme scheme);

/** Parse a name accepted by to_string(); fatal()s on junk. */
RecoveryScheme recoverySchemeFromString(const std::string &name);

} // namespace clumsy::mem

#endif // CLUMSY_MEM_RECOVERY_HH
