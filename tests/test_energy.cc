/**
 * @file
 * Tests of cacti-lite and the chip energy model.
 */

#include <gtest/gtest.h>

#include "energy/cacti_lite.hh"
#include "energy/chip_energy.hh"
#include "fault/swing.hh"

using namespace clumsy;
using namespace clumsy::energy;

namespace
{

const CacheGeometry kL1{4096, 1, 32, 22};
const CacheGeometry kL1i{4096, 1, 32, 22};
const CacheGeometry kL2{131072, 4, 128, 15};

} // namespace

TEST(CactiLite, GeometryDerivation)
{
    const CactiLite l1(kL1);
    EXPECT_EQ(l1.geometry().sets(), 128u);
    EXPECT_LE(l1.subarrayRows(), 128u);
    EXPECT_LE(l1.subarrayCols(), 512u);
    EXPECT_EQ(l1.activeSubarrays(), 1u);

    const CactiLite l2(kL2);
    EXPECT_EQ(l2.geometry().sets(), 256u);
    EXPECT_EQ(l2.activeSubarrays(), 4u);
}

TEST(CactiLite, BiggerCacheCostsMore)
{
    const CactiLite l1(kL1);
    const CactiLite l2(kL2);
    EXPECT_GT(l2.readEnergy().total(), l1.readEnergy().total());
    EXPECT_GT(l2.accessTimeNs(), l1.accessTimeNs());
}

TEST(CactiLite, WritesCostMoreThanReads)
{
    const CactiLite l1(kL1);
    EXPECT_GT(l1.writeEnergy().total(), l1.readEnergy().total());
    EXPECT_EQ(l1.writeEnergy().senseAmp, 0.0);
}

TEST(CactiLite, BreakdownSumsToTotal)
{
    const AccessEnergy e = CactiLite(kL1).readEnergy();
    EXPECT_DOUBLE_EQ(e.total(), e.decoder + e.wordline + e.bitline +
                                    e.senseAmp + e.output);
    EXPECT_GT(e.bitline, e.wordline); // bitlines dominate SRAM energy
}

TEST(CactiLiteDeath, RejectsBadGeometry)
{
    EXPECT_DEATH(CactiLite(CacheGeometry{0, 1, 32, 22}),
                 "non-degenerate");
    EXPECT_DEATH(CactiLite(CacheGeometry{4096, 3, 32, 22}), "");
}

TEST(ChipEnergy, MontanaroBudget)
{
    const EnergyModel model(EnergyParams{}, kL1, kL1i, kL2);
    // 0.5 W / 160 MHz = 3125 pJ per cycle.
    EXPECT_NEAR(model.chipPerCyclePj(), 3125.0, 1e-9);
    // rest = (1 - 0.27 - 0.16) of the chip.
    EXPECT_NEAR(model.restPerCyclePj(), 3125.0 * 0.57, 1e-9);
}

TEST(ChipEnergy, L1dShareCalibration)
{
    const EnergyParams params;
    const EnergyModel model(params, kL1, kL1i, kL2);
    // At the calibration profile, D-cache energy per cycle equals its
    // Montanaro share: accesses/cycle * mixed access energy.
    const double mixed =
        params.l1dReadFraction * model.l1dReadPj(1.0, Protection::None) +
        (1 - params.l1dReadFraction) * model.l1dWritePj(1.0, Protection::None);
    EXPECT_NEAR(params.l1dAccessesPerCycle * mixed,
                params.l1dFraction * model.chipPerCyclePj(), 1e-6);
}

TEST(ChipEnergy, SwingScalingMatchesPaper)
{
    const EnergyModel model(EnergyParams{}, kL1, kL1i, kL2);
    const double base = model.l1dReadPj(1.0, Protection::None);
    EXPECT_NEAR(model.l1dReadPj(0.25, Protection::None) / base, 0.555, 0.01);
    EXPECT_NEAR(model.l1dReadPj(0.50, Protection::None) / base, 0.818, 0.01);
    EXPECT_NEAR(model.l1dReadPj(0.75, Protection::None) / base, 0.941, 0.01);
}

TEST(ChipEnergy, PhelanParityOverheads)
{
    const EnergyModel model(EnergyParams{}, kL1, kL1i, kL2);
    EXPECT_NEAR(model.l1dReadPj(1.0, Protection::Parity) /
                    model.l1dReadPj(1.0, Protection::None),
                1.23, 1e-9);
    EXPECT_NEAR(model.l1dWritePj(1.0, Protection::Parity) /
                    model.l1dWritePj(1.0, Protection::None),
                1.36, 1e-9);
}

TEST(EnergyAccount, AccumulatesByEvent)
{
    const EnergyModel model(EnergyParams{}, kL1, kL1i, kL2);
    EnergyAccount account(&model);
    EXPECT_DOUBLE_EQ(account.totalPj(), 0.0);
    account.addCoreCycles(10.0);
    EXPECT_NEAR(account.restPj(), 10.0 * model.restPerCyclePj(),
                1e-9);
    account.addL1d(model.l1dReadPj(1.0, Protection::None));
    account.addL1d(model.l1dWritePj(1.0, Protection::None));
    EXPECT_NEAR(account.l1dPj(),
                model.l1dReadPj(1.0, Protection::None) +
                    model.l1dWritePj(1.0, Protection::None),
                1e-9);
    account.addL2Access();
    EXPECT_NEAR(account.l2Pj(), model.l2AccessPj(), 1e-9);
    account.addL1iRead();
    account.addMemAccess();
    EXPECT_GT(account.totalPj(),
              account.restPj() + account.l1dPj() + account.l2Pj());
    account.reset();
    EXPECT_DOUBLE_EQ(account.totalPj(), 0.0);
}

TEST(ChipEnergy, OverClockingSavesCacheEnergy)
{
    // The headline direction: at Cr = 0.25 the D-cache spends less
    // even with parity on.
    const EnergyModel model(EnergyParams{}, kL1, kL1i, kL2);
    EXPECT_LT(model.l1dReadPj(0.25, Protection::Parity),
              model.l1dReadPj(1.0, Protection::Parity));
    EXPECT_LT(model.l1dWritePj(0.25, Protection::None),
              model.l1dWritePj(1.0, Protection::None));
}
