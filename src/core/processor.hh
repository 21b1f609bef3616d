/**
 * @file
 * ClumsyProcessor: the public facade applications program against.
 *
 * It bundles the simulated DRAM, the cache hierarchy with the
 * over-clocked L1 D-cache, the fault injector, the energy account and
 * the dynamic frequency controller, and exposes:
 *
 *  - a timed, *faulty* memory API (read8/16/32, write8/16/32) used for
 *    every application data access, so injected faults corrupt live
 *    application state;
 *  - instruction charging (execute()) driving a synthetic PC walker
 *    through the I-cache, so compute-heavy phases cost cycles and
 *    I-fetch energy;
 *  - DMA for packet arrival (writes DRAM directly and invalidates
 *    stale cached copies, like a NIC);
 *  - untimed peek/poke for harness bookkeeping (never used on the
 *    simulated datapath);
 *  - sticky fatal-error state: wild accesses from corrupted pointers
 *    and exhausted loop budgets raise it, and the experiment harness
 *    turns it into the paper's "fatal error" outcome.
 */

#ifndef CLUMSY_CORE_PROCESSOR_HH
#define CLUMSY_CORE_PROCESSOR_HH

#include <memory>
#include <string>

#include "common/types.hh"
#include "core/config.hh"
#include "core/freq_controller.hh"
#include "energy/chip_energy.hh"
#include "fault/injector.hh"
#include "mem/alloc.hh"
#include "mem/backing_store.hh"
#include "mem/hierarchy.hh"
#include "mem/l2_port.hh"

namespace clumsy::core
{

/** The clumsy packet processor. */
class ClumsyProcessor
{
  public:
    explicit ClumsyProcessor(ProcessorConfig config = {});

    // --- timed, faulty data-memory API ------------------------------
    // Every application data access funnels through these six calls,
    // so they are defined inline: an ordinary L1D hit is decided and
    // committed by the hierarchy's inline head (tryReadHit/
    // tryWriteHit) without a call, and everything else takes the
    // hierarchy's full access path.

    /** Load a 32-bit word (4-aligned) through the D-cache. */
    std::uint32_t read32(SimAddr addr) { return load(addr, 4); }

    /** Load a 16-bit half (2-aligned). */
    std::uint16_t read16(SimAddr addr)
    {
        return static_cast<std::uint16_t>(load(addr, 2));
    }

    /** Load a byte. */
    std::uint8_t read8(SimAddr addr)
    {
        return static_cast<std::uint8_t>(load(addr, 1));
    }

    /** Store a 32-bit word (4-aligned). */
    void write32(SimAddr addr, std::uint32_t value) { store(addr, 4, value); }

    /** Store a 16-bit half (2-aligned). */
    void write16(SimAddr addr, std::uint16_t value) { store(addr, 2, value); }

    /** Store a byte. */
    void write8(SimAddr addr, std::uint8_t value) { store(addr, 1, value); }

    // --- instruction charging ---------------------------------------

    /**
     * Charge n executed instructions (1 base cycle each) and advance
     * the PC walker through the current code region.
     */
    void execute(std::uint32_t n)
    {
        instructions_ += n;
        cycles_ += cyclesToQuanta(n); // in-order core, 1 IPC baseline
        fetchCredit_ += n;
        const SimSize lineBytes = config_.hierarchy.l1i.lineBytes;
        while (fetchCredit_ >= config_.instsPerFetch) {
            fetchCredit_ -= config_.instsPerFetch;
            chargeAccess(hierarchy_.fetch(iRegionBase_ + codeOffset_ +
                                          pcOffset_));
            pcOffset_ += lineBytes;
            if (pcOffset_ >= codeBytes_)
                pcOffset_ = 0;
        }
    }

    /**
     * Declare the executing code's footprint inside the instruction
     * region: fetches walk [offset, offset+bytes) cyclically. Apps
     * switch regions between control-plane and data-plane phases.
     */
    void setCodeRegion(SimSize offset, SimSize bytes);

    // --- allocation and DMA -----------------------------------------

    /** Allocate simulated heap memory (see mem::SimAllocator). */
    SimAddr alloc(SimSize size, SimSize align = 4);

    /**
     * DMA a block into simulated DRAM (packet arrival): bypasses the
     * timed datapath, writes the backing store and invalidates any
     * stale cached copies of the affected lines.
     */
    void dmaWrite(SimAddr addr, const std::uint8_t *src, SimSize len);

    // --- untimed architectural inspection ---------------------------

    /**
     * Read the current architectural value of a word: the L1 copy if
     * present, else L2, else DRAM. No timing, no faults, no stats.
     */
    std::uint32_t peek32(SimAddr addr) const;

    /** Untimed byte variant of peek32(). */
    std::uint8_t peek8(SimAddr addr) const;

    /**
     * peek32() for a host-side walk that follows pointers read out of
     * simulated memory (an app's boot builder or audit). A faulty run
     * can hand such a walk a misaligned or out-of-range address; that
     * raises the run's wild-pointer fatal and reads 0, as the paper
     * counts a wild pointer, instead of stopping the host.
     */
    std::uint32_t hostRead32(SimAddr addr);

    // --- fatal-error state ------------------------------------------

    /** @return true once a fatal error has been raised. */
    bool fatalOccurred() const { return fatal_; }

    /** Why the fatal error fired (empty when none). */
    const std::string &fatalReason() const { return fatalReason_; }

    /** Raise the sticky fatal flag (first reason wins). */
    void raiseFatal(const std::string &reason);

    /**
     * Loop budget helper: an application loop whose trip count
     * depends on in-simulated-memory data constructs a LoopGuard and
     * calls tick() each iteration; when the budget runs out, tick()
     * raises a fatal error ("infinite loop") and returns false.
     */
    class LoopGuard
    {
      public:
        LoopGuard(ClumsyProcessor &proc, std::uint32_t budget,
                  const char *what)
            : proc_(proc), remaining_(budget), what_(what)
        {
        }

        /** @return true while iterations remain and no fatal is set. */
        bool tick()
        {
            if (proc_.fatalOccurred())
                return false;
            if (remaining_ == 0) [[unlikely]] {
                exhausted();
                return false;
            }
            --remaining_;
            return true;
        }

      private:
        ClumsyProcessor &proc_;
        std::uint32_t remaining_;
        const char *what_;

        /** Raise the "infinite loop" fatal (kept out of tick()). */
        [[gnu::cold, gnu::noinline]] void exhausted();
    };

    // --- packet / epoch lifecycle -----------------------------------

    /** Mark the start of one packet's processing. */
    void beginPacket();

    /**
     * Mark the end of one packet's processing; every epochPackets
     * packets the dynamic frequency controller (when enabled) makes
     * its decision. When the controller's epoch cadence is external
     * (FreqControllerConfig::externalEpochs, the chip's per-PE DVS),
     * no epoch closes here — the chip calls closeDvsEpoch() instead.
     */
    void endPacket();

    /**
     * Chip-level epoch hook (src/npu/, dvs=queue): close one
     * controller epoch now, feeding the engine's mean input-queue
     * pressure (depth / capacity over the epoch) into the decision
     * alongside the epoch's observed faults. No-op when the dynamic
     * controller is disabled (e.g. the golden run).
     */
    void closeDvsEpoch(double queuePressure);

    /** Packets completed so far. */
    std::uint64_t packetsCompleted() const { return packets_; }

    // --- time, energy, metrics --------------------------------------

    /** Simulated time so far, in quanta. */
    Quanta now() const { return cycles_; }

    /** Simulated time so far, in base cycles. */
    double nowCycles() const { return quantaToCycles(cycles_); }

    /** Instructions executed so far. */
    std::uint64_t instructions() const { return instructions_; }

    /** Total chip energy so far (events + rest-of-chip), pJ. */
    PicoJoules totalEnergyPj() const;

    /** L1 D-cache energy so far, pJ. */
    PicoJoules l1dEnergyPj() const { return account_.l1dPj(); }

    /** Current relative cycle time of the D-cache. */
    double currentCr() const { return hierarchy_.cycleTime(); }

    /**
     * Faults the processor can observe: parity trips when detection
     * is on; with no detection, the injector's ground truth (an
     * oracle — documented in EXPERIMENTS.md).
     */
    std::uint64_t observedFaults() const;

    /** Master switch for fault injection (golden runs disable). */
    void setInjectionEnabled(bool enabled);

    // --- shared-L2 chip integration (src/npu/) ----------------------

    /**
     * Route this processor's L2 port uses through a shared arbiter
     * (not owned; pass nullptr to detach). Queuing delays returned by
     * the arbiter are folded into the cycle cost of the triggering
     * access. @p requesterId tags requests (the PE index on a chip)
     * and @p origin is subtracted from local time before it reaches
     * the arbiter, so engines whose one-time initialization took
     * different numbers of cycles still share one chip timeline.
     */
    void attachL2Port(mem::L2PortArbiter *port, unsigned requesterId,
                      Quanta origin);

    /**
     * Swap the storage behind this engine's L2 operations (the chip's
     * shared-L2 view; nullptr restores the private array). The chip
     * model migrates the private contents into the shared array
     * before swapping (npu::SharedL2Cache::migrateFrom), so no state
     * is stranded.
     */
    void setL2Backend(mem::L2Backend *backend)
    {
        hierarchy_.setL2Backend(backend);
    }

    /** The simulated DRAM (shared-L2 victim/refill routing). */
    mem::BackingStore &backingStore() { return store_; }
    const mem::BackingStore &backingStore() const { return store_; }

    /** The energy account (shared-L2 writeback energy charging). */
    energy::EnergyAccount &energyAccount() { return account_; }

    /** Quanta spent stalled on the shared L2 port so far. */
    Quanta l2PortWaitQuanta() const { return l2PortWaitQuanta_; }

    /** Accesses that found the shared L2 port busy. */
    std::uint64_t l2PortWaits() const { return l2PortWaits_; }

    /** The simulated heap (inspection: bytes used and left). */
    const mem::SimAllocator &allocator() const { return allocator_; }

    /** The memory hierarchy (stats inspection). */
    const mem::MemHierarchy &hierarchy() const { return hierarchy_; }

    /** The fault injector (stats inspection). */
    const fault::FaultInjector &injector() const { return injector_; }

    /** The weak-cell map driving injection (nullptr = uniform mode). */
    const fault::FaultMap *faultMap() const { return faultMap_.get(); }

    /** The frequency controller, or nullptr when static. */
    const FreqController *freqController() const
    {
        return freqCtl_ ? freqCtl_.get() : nullptr;
    }

    /** The configuration in force. */
    const ProcessorConfig &config() const { return config_; }

    /** The energy model (per-event costs). */
    const energy::EnergyModel &energyModel() const { return model_; }

  private:
    ProcessorConfig config_;
    mem::BackingStore store_;
    mem::SimAllocator allocator_;
    fault::FaultInjector injector_;
    std::unique_ptr<fault::FaultMap> faultMap_;
    energy::EnergyModel model_;
    energy::EnergyAccount account_;
    mem::MemHierarchy hierarchy_;
    std::unique_ptr<FreqController> freqCtl_;

    Quanta cycles_ = 0;
    std::uint64_t instructions_ = 0;
    std::uint64_t packets_ = 0;
    std::uint64_t epochStartFaults_ = 0;

    SimAddr iRegionBase_;
    SimSize codeOffset_ = 0;
    SimSize codeBytes_;
    SimSize pcOffset_ = 0;
    std::uint32_t fetchCredit_ = 0;

    bool fatal_ = false;
    std::string fatalReason_;

    mem::L2PortArbiter *l2Port_ = nullptr;
    unsigned l2PortId_ = 0;
    Quanta l2PortOrigin_ = 0;
    Quanta l2PortWaitQuanta_ = 0;
    std::uint64_t l2PortWaits_ = 0;

    /** Advance time by an access's latency plus any port queuing. */
    void chargeAccess(const mem::Access &acc)
    {
        cycles_ += acc.latency;
        if (!l2Port_ || acc.l2Accesses == 0)
            return;
        chargePortWait(acc);
    }

    /** Fold the shared-port queuing delay into local time (cold). */
    void chargePortWait(const mem::Access &acc);

    /** Close one controller epoch and apply its decision. */
    void closeEpoch(const EpochObservation &obs);

    /** One timed load of `bytes` (1, 2 or 4). */
    std::uint32_t load(SimAddr addr, unsigned bytes)
    {
        mem::L1dProbe probe;
        std::uint32_t value = 0;
        if (hierarchy_.tryReadHit(addr, bytes, value, probe)) [[likely]] {
            cycles_ += hierarchy_.l1dHitQuanta();
            return value;
        }
        const mem::Access acc = hierarchy_.read(addr, bytes, probe);
        chargeAccess(acc);
        return acc.value;
    }

    /** One timed store of the low `bytes` (1, 2 or 4) of value. */
    void store(SimAddr addr, unsigned bytes, std::uint32_t value)
    {
        mem::L1dProbe probe;
        if (hierarchy_.tryWriteHit(addr, bytes, value, probe)) [[likely]] {
            cycles_ += hierarchy_.l1dHitQuanta();
            return;
        }
        chargeAccess(hierarchy_.write(addr, bytes, value, probe));
    }
};

} // namespace clumsy::core

#endif // CLUMSY_CORE_PROCESSOR_HH
