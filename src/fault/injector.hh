/**
 * @file
 * Per-access fault injector for the over-clocked L1 data cache.
 *
 * Every word read from or written to the faulty cache passes through
 * corrupt(): with the probabilities of the closed-form model at the
 * cache's current relative cycle time, 1, 2 or 3 bits of the word are
 * flipped. Two- and three-bit faults flip physically adjacent bits,
 * matching the coupling-noise mechanism of Section 3 — this is what
 * lets a single parity bit per word (odd-weight detection) miss
 * exactly the 2-bit faults.
 */

#ifndef CLUMSY_FAULT_INJECTOR_HH
#define CLUMSY_FAULT_INJECTOR_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "fault/fault_map.hh"
#include "fault/fault_model.hh"

namespace clumsy::fault
{

/** Description of what an injection did to one access. */
struct FaultEvent
{
    unsigned flippedBits = 0; ///< 0 when the access was clean
    std::uint32_t mask = 0;   ///< XOR mask applied to the word
};

/** Samples bit-flip faults for cache accesses at a given cycle time. */
class FaultInjector
{
  public:
    /**
     * @param model fault-probability model (copied).
     * @param seed  RNG seed; distinct from trace-generation seeds so
     *              golden and faulty runs share packet streams.
     */
    FaultInjector(FaultModel model, std::uint64_t seed);

    /**
     * Set the cache's relative cycle time and precompute the per-access
     * fault probabilities used by corrupt().
     */
    void setCycleTime(double cr);

    /** Current relative cycle time. */
    double cycleTime() const { return cr_; }

    /** Enable/disable injection (golden runs disable it). */
    void setEnabled(bool enabled) { enabled_ = enabled; }

    /** @return true when injection is active. */
    bool enabled() const { return enabled_; }

    /**
     * Possibly corrupt a `bits`-wide value (bits in 1..32).
     *
     * @param value the clean word.
     * @param bits  access width in bits.
     * @param ev    optional out-parameter describing the injection.
     * @return the (possibly corrupted) word.
     */
    std::uint32_t corrupt(std::uint32_t value, unsigned bits,
                          FaultEvent *ev = nullptr)
    {
        CLUMSY_ASSERT(bits >= 1 && bits <= 32, "access width %u bits",
                      bits);
        ++accesses_;
        if (ev)
            *ev = FaultEvent{};
        if (!enabled_)
            return value;
        // One uniform draw decides among {clean, 1-bit, 2-bit,
        // 3-bit}. Fault probabilities are ~1e-7..1e-5, so treating the
        // events as mutually exclusive biases results by < 1e-10 per
        // access. The clean test stays inline: it is the outcome of
        // almost every access.
        const double u = rng_.uniform();
        if (u >= p1PerBit_ * bits + p2Word_ + p3Word_)
            return value;
        return injectDrawn(value, bits, u, ev);
    }

    /**
     * @return true when the next uniform-mode corrupt() of a 32-bit
     * word would leave it clean (always, while disabled). Decided from
     * a peek at the generator, so nothing is drawn or counted: the
     * memory hierarchy's inline hit path asks before it commits.
     */
    bool nextDrawClean() const
    {
        return !enabled_ || (peekRaw() >> 11) >= cleanFrom_;
    }

    /**
     * @return true when the next @p draws uniform-mode corrupt() calls
     * on 32-bit words would all leave them clean, were injection
     * enabled. Decided on a copy of the generator, which stops at the
     * first faulty draw; nothing is drawn or counted. The 32-bit
     * threshold is the largest, so a clean answer covers narrower
     * accesses too.
     */
    bool drawsClean(std::uint64_t draws) const;

    /** The generator's next raw output, not consumed (inspection). */
    std::uint64_t peekRaw() const { return rng_.peek(); }

    /**
     * What corrupt() does to a 32-bit word when nextDrawClean() holds:
     * count the access and consume the clean draw.
     */
    void takeCleanDraw()
    {
        ++accesses_;
        if (enabled_)
            rng_.next();
    }

    /**
     * The integer form of the clean test: the smallest k with
     * k * 2^-53 >= @p total, so for every 53-bit draw k,
     * k >= cleanThreshold(total) exactly when uniform() >= total.
     * Scaling by 2^53 is exact and k is an integer, hence the ceil;
     * a total at or above 1 (or NaN) yields 2^53, which no draw reaches.
     */
    static std::uint64_t cleanThreshold(double total);

    /**
     * Attach a weak-cell map (not owned; nullptr detaches): injection
     * switches from the uniform eq. (4) draw to the map mode, where
     * only mapped cells can fail. The map decides *which* bits are
     * weak; the cycle time still decides *when* they are exercised —
     * each active cell of the accessed word fails independently with
     * its Cr-scaled effective probability (corruptMapped()).
     */
    void attachMap(const FaultMap *map);

    /** @return true when a weak-cell map drives injection. */
    bool mapAttached() const { return map_ != nullptr; }

    /** The attached map (nullptr in uniform mode). */
    const FaultMap *map() const { return map_; }

    /**
     * Map-mode variant of corrupt() for the word slot `slot` (as
     * defined by FaultMapGeometry: (set * ways + way) * wordsPerLine
     * + wordIndex). Draws one uniform per *active* mapped cell of the
     * slot — a slot with no active cells consumes no randomness, so
     * the draw sequence is a pure function of the weak cells
     * exercised, never of map-free traffic.
     */
    std::uint32_t corruptMapped(std::uint32_t value, unsigned bits,
                                std::uint32_t slot,
                                FaultEvent *ev = nullptr);

    /** Total accesses that suffered at least one flipped bit. */
    std::uint64_t faultCount() const { return faults_; }

    /** Total accesses processed (clean or not). */
    std::uint64_t accessCount() const { return accesses_; }

    /** Detailed counters (fault.single, fault.double, fault.triple). */
    const StatGroup &stats() const { return stats_; }

    /** Zero all counters. */
    void resetStats();

    /** The model in use. */
    const FaultModel &model() const { return model_; }

  private:
    FaultModel model_;
    Rng rng_;
    StatGroup stats_{"fault"};
    double cr_ = 1.0;
    bool enabled_ = true;
    std::uint64_t faults_ = 0;
    std::uint64_t accesses_ = 0;

    // Cumulative thresholds for a single uniform draw, precomputed per
    // cycle time for a 32-bit access and rescaled for narrower ones.
    double p1PerBit_ = 0.0;
    double p2Word_ = 0.0;
    double p3Word_ = 0.0;
    /** cleanThreshold() of the 32-bit total, for nextDrawClean(). */
    std::uint64_t cleanFrom_ = 0;

    // Map mode: CSR plane over word slots, rebuilt on attach and on
    // every cycle-time change. slotBegin_[s]..slotBegin_[s+1] indexes
    // the slot's cells; cellPEff_ holds each cell's effective
    // per-access probability at the current cycle time (0 = inert).
    const FaultMap *map_ = nullptr;
    std::vector<std::uint32_t> slotBegin_;
    std::vector<std::uint8_t> cellBit_; ///< bit position within word
    std::vector<double> cellPEff_;

    /** Recompute cellPEff_ for the current cycle time. */
    void retuneMapPlane();

    /**
     * The faulty branch of corrupt(): @p u (already drawn, below the
     * total fault probability) picks the multiplicity, one more draw
     * places the flipped bits.
     */
    std::uint32_t injectDrawn(std::uint32_t value, unsigned bits,
                              double u, FaultEvent *ev);
};

} // namespace clumsy::fault

#endif // CLUMSY_FAULT_INJECTOR_HH
