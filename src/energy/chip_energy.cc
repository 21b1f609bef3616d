#include "energy/chip_energy.hh"

#include "common/logging.hh"
#include "fault/swing.hh"

namespace clumsy::energy
{

EnergyModel::EnergyModel(EnergyParams params, CacheGeometry l1d,
                         CacheGeometry l1i, CacheGeometry l2)
    : params_(params)
{
    CLUMSY_ASSERT(params_.chipPowerWatts > 0 && params_.clockHz > 0,
                  "bad chip power parameters");
    chipPerCycle_ = params_.chipPowerWatts / params_.clockHz * 1e12;

    // cacti-lite provides the *shape* (read/write ratio, L1-vs-L2
    // ratio); the Montanaro budget shares pin the absolute scale.
    const CactiLite l1dModel(l1d);
    const CactiLite l1iModel(l1i);
    const CactiLite l2Model(l2);

    const double rawRead = l1dModel.readEnergy().total();
    const double rawWrite = l1dModel.writeEnergy().total();
    const double rawMix = params_.l1dReadFraction * rawRead +
                          (1.0 - params_.l1dReadFraction) * rawWrite;
    const double l1dBudget = params_.l1dFraction * chipPerCycle_ /
                             params_.l1dAccessesPerCycle;
    const double dScale = l1dBudget / rawMix;
    l1dRead_ = rawRead * dScale;
    l1dWrite_ = rawWrite * dScale;

    const double l1iBudget = params_.l1iFraction * chipPerCycle_ /
                             params_.l1iAccessesPerCycle;
    l1iRead_ = l1iBudget; // one fetch per profile access

    l2Access_ = params_.l2AccessPj > 0
                    ? params_.l2AccessPj
                    : l2Model.readEnergy().total() * dScale;

    restPerCycle_ =
        chipPerCycle_ * (1.0 - params_.l1iFraction - params_.l1dFraction);
    CLUMSY_ASSERT(restPerCycle_ > 0, "cache fractions exceed chip budget");
}

PicoJoules
EnergyModel::l1dReadPj(double cr, Protection prot) const
{
    double e = l1dRead_ * fault::energyScale(cr);
    if (prot == Protection::Parity)
        e *= 1.0 + params_.parityReadOverhead;
    else if (prot == Protection::Secded)
        e *= 1.0 + params_.secdedReadOverhead;
    return e;
}

PicoJoules
EnergyModel::l1dWritePj(double cr, Protection prot) const
{
    double e = l1dWrite_ * fault::energyScale(cr);
    if (prot == Protection::Parity)
        e *= 1.0 + params_.parityWriteOverhead;
    else if (prot == Protection::Secded)
        e *= 1.0 + params_.secdedWriteOverhead;
    return e;
}

EnergyAccount::EnergyAccount(const EnergyModel *model) : model_(model)
{
    CLUMSY_ASSERT(model_ != nullptr, "energy account needs a model");
}

void
EnergyAccount::addCoreCycles(double cycles)
{
    rest_ += cycles * model_->restPerCyclePj();
}

void
EnergyAccount::addL2Access()
{
    l2_ += model_->l2AccessPj();
}

void
EnergyAccount::addMemAccess()
{
    mem_ += model_->memAccessPj();
}

PicoJoules
EnergyAccount::totalPj() const
{
    return rest_ + l1i_ + l1d_ + l2_ + mem_;
}

void
EnergyAccount::reset()
{
    rest_ = l1i_ = l1d_ = l2_ = mem_ = 0;
}

} // namespace clumsy::energy
