/**
 * @file
 * Whole-chip energy accounting for the clumsy packet processor.
 *
 * Three models are combined, exactly as in the paper (Section 5.4):
 *  - overall processor energy from Montanaro et al.'s StrongARM
 *    measurements (0.5 W at 160 MHz; I-cache 27% and D-cache 16% of
 *    chip power),
 *  - per-access cache energy at full frequency from cacti-lite,
 *    calibrated to the Montanaro budget shares,
 *  - parity energy overheads from Phelan (ARM): +23% on reads and
 *    +36% on writes of the protected cache,
 * plus the voltage-swing scaling of Section 3: when the D-cache is
 * over-clocked its access energy shrinks linearly with the swing
 * (45%/19%/6% savings at Cr = 0.25/0.5/0.75).
 */

#ifndef CLUMSY_ENERGY_CHIP_ENERGY_HH
#define CLUMSY_ENERGY_CHIP_ENERGY_HH

#include <cstdint>

#include "common/types.hh"
#include "energy/cacti_lite.hh"

namespace clumsy::energy
{

/** Word-protection scheme of the L1 D-cache (energy accounting). */
enum class Protection
{
    None,   ///< raw array
    Parity, ///< 1 parity bit per word (the paper's choice)
    Secded, ///< Hamming SEC-DED, 7 check bits per word
};

/** Chip-level energy model parameters (defaults = the paper's setup). */
struct EnergyParams
{
    double chipPowerWatts = 0.5;   ///< Montanaro StrongARM
    double clockHz = 160e6;        ///< Montanaro StrongARM
    double l1iFraction = 0.27;     ///< I-cache share of chip power
    double l1dFraction = 0.16;     ///< D-cache share (paper Section 5.4)
    double parityReadOverhead = 0.23;  ///< Phelan
    double parityWriteOverhead = 0.36; ///< Phelan
    /// SEC-DED overheads: 7 check bits per word plus encode/correct
    /// trees; scaled up from Phelan's single-bit numbers (estimates,
    /// see bench/ablation_ecc).
    double secdedReadOverhead = 0.55;
    double secdedWriteOverhead = 0.80;

    /// Calibration access profile: D-cache accesses per cycle used to
    /// translate the Montanaro power share into per-access energy.
    double l1dAccessesPerCycle = 0.40;
    /// I-cache fetches per cycle in the calibration profile. The
    /// in-order core fetches one 32 B line (8 instructions) per
    /// access, so at ~1 IPC the I-cache is accessed every 8th cycle.
    double l1iAccessesPerCycle = 0.125;
    /// Read fraction of D-cache accesses in the calibration profile.
    double l1dReadFraction = 0.70;

    /// Energy of one L2 access (off the Montanaro budget; cacti raw).
    /// <= 0 means "use the cacti-lite estimate for the L2 geometry".
    double l2AccessPj = -1.0;
    /// Energy of one DRAM access, pJ.
    double memAccessPj = 20000.0;
};

/** Per-event energies derived from the parameters and geometries. */
class EnergyModel
{
  public:
    EnergyModel(EnergyParams params, CacheGeometry l1d, CacheGeometry l1i,
                CacheGeometry l2);

    /** Chip energy per base cycle, pJ (0.5 W / 160 MHz = 3125). */
    PicoJoules chipPerCyclePj() const { return chipPerCycle_; }

    /** Non-cache ("rest of chip") energy per base cycle, pJ. */
    PicoJoules restPerCyclePj() const { return restPerCycle_; }

    /**
     * L1 D-cache read energy at relative cycle time cr, pJ.
     * @param prot adds the codec overhead (Phelan for parity).
     */
    PicoJoules l1dReadPj(double cr, Protection prot) const;

    /** L1 D-cache write energy at relative cycle time cr, pJ. */
    PicoJoules l1dWritePj(double cr, Protection prot) const;

    /** L1 I-cache fetch energy (never over-clocked), pJ. */
    PicoJoules l1iReadPj() const { return l1iRead_; }

    /** Unified L2 access energy, pJ. */
    PicoJoules l2AccessPj() const { return l2Access_; }

    /** DRAM access energy, pJ. */
    PicoJoules memAccessPj() const { return params_.memAccessPj; }

    /** The parameters in use. */
    const EnergyParams &params() const { return params_; }

  private:
    EnergyParams params_;
    PicoJoules chipPerCycle_;
    PicoJoules restPerCycle_;
    PicoJoules l1dRead_;  // full-swing, no parity
    PicoJoules l1dWrite_; // full-swing, no parity
    PicoJoules l1iRead_;
    PicoJoules l2Access_;
};

/** Running energy account for one simulation. */
class EnergyAccount
{
  public:
    explicit EnergyAccount(const EnergyModel *model);

    /** Charge rest-of-chip energy for elapsed base cycles. */
    void addCoreCycles(double cycles);

    /** Charge one I-cache fetch. */
    void addL1iRead() { l1i_ += model_->l1iReadPj(); }

    /**
     * Charge one D-cache access of energy @p pj. The D-cache prices
     * its reads and writes with the model's l1dReadPj()/l1dWritePj()
     * once per cycle-time change, not per access.
     */
    void addL1d(PicoJoules pj) { l1d_ += pj; }

    /** Charge one L2 access. */
    void addL2Access();

    /** Charge one DRAM access. */
    void addMemAccess();

    /** Total energy so far, pJ. */
    PicoJoules totalPj() const;

    /** D-cache-only energy so far, pJ (for the 41%-saving headline). */
    PicoJoules l1dPj() const { return l1d_; }

    /** Rest-of-chip energy so far, pJ. */
    PicoJoules restPj() const { return rest_; }

    /** L2 energy so far, pJ. */
    PicoJoules l2Pj() const { return l2_; }

    /** Zero the account. */
    void reset();

    /** The model pricing each event. */
    const EnergyModel &model() const { return *model_; }

  private:
    const EnergyModel *model_;
    PicoJoules rest_ = 0, l1i_ = 0, l1d_ = 0, l2_ = 0, mem_ = 0;
};

} // namespace clumsy::energy

#endif // CLUMSY_ENERGY_CHIP_ENERGY_HH
