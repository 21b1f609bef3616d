#include "fault/injector.hh"

#include <algorithm>
#include <cmath>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace clumsy::fault
{

FaultInjector::FaultInjector(FaultModel model, std::uint64_t seed)
    : model_(model), rng_(seed)
{
    setCycleTime(1.0);
}

void
FaultInjector::setCycleTime(double cr)
{
    CLUMSY_ASSERT(cr > 0.0, "relative cycle time must be positive");
    cr_ = cr;
    p1PerBit_ = model_.bitFaultProb(cr);
    p2Word_ = model_.multiBitFaultProb(2, cr);
    p3Word_ = model_.multiBitFaultProb(3, cr);
    // The same double corrupt() compares a 32-bit draw against.
    cleanFrom_ = cleanThreshold(p1PerBit_ * 32 + p2Word_ + p3Word_);
    if (map_)
        retuneMapPlane();
}

std::uint64_t
FaultInjector::cleanThreshold(double total)
{
    constexpr double kDraws = 0x1.0p53;
    const double scaled = total * kDraws;
    if (!(scaled < kDraws))
        return std::uint64_t{1} << 53;
    if (scaled <= 0.0)
        return 0;
    return static_cast<std::uint64_t>(std::ceil(scaled));
}

void
FaultInjector::attachMap(const FaultMap *map)
{
    map_ = map;
    slotBegin_.clear();
    cellBit_.clear();
    cellPEff_.clear();
    if (!map_)
        return;
    const FaultMapGeometry &geom = map_->geometry();
    const auto &cells = map_->cells();
    // Cells are sorted by (set, way, bit), so their slots are
    // nondecreasing and the CSR builds in one pass.
    slotBegin_.assign(std::size_t{geom.slots()} + 1, 0);
    cellBit_.reserve(cells.size());
    for (const WeakCell &c : cells) {
        const std::uint32_t slot =
            (c.set * geom.ways + c.way) * geom.wordsPerLine() +
            c.wordIndex();
        ++slotBegin_[std::size_t{slot} + 1];
        cellBit_.push_back(static_cast<std::uint8_t>(c.bitInWord()));
    }
    for (std::size_t s = 1; s < slotBegin_.size(); ++s)
        slotBegin_[s] += slotBegin_[s - 1];
    retuneMapPlane();
}

void
FaultInjector::retuneMapPlane()
{
    const auto &cells = map_->cells();
    cellPEff_.resize(cells.size());
    const double scale = model_.params().scale;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const WeakCell &c = cells[i];
        if (cr_ > c.vth) {
            cellPEff_[i] = 0.0; // inert above its activation threshold
            continue;
        }
        // Below threshold the cell's rate grows by the same eq. (4)
        // exponential as the uniform model, relative to its strength
        // at activation — the map sharpens as the voltage drops.
        const double sharpen =
            model_.scaleFactor(cr_) / model_.scaleFactor(c.vth);
        cellPEff_[i] = std::min(1.0, c.pFail * sharpen * scale);
    }
}

std::uint32_t
FaultInjector::injectDrawn(std::uint32_t value, unsigned bits, double u,
                           FaultEvent *ev)
{
    const double p1 = p1PerBit_ * bits;
    const double p2 = p2Word_;
    unsigned nflips;
    if (u < p1) {
        nflips = 1;
        stats_.inc("single");
    } else if (u < p1 + p2) {
        nflips = 2;
        stats_.inc("double");
    } else {
        nflips = 3;
        stats_.inc("triple");
    }
    ++faults_;

    // Multi-bit faults hit adjacent bits (coupling noise).
    const auto pos = static_cast<unsigned>(rng_.below(bits));
    std::uint32_t mask = 0;
    for (unsigned i = 0; i < nflips; ++i)
        mask |= std::uint32_t{1} << ((pos + i) % bits);

    if (ev) {
        ev->flippedBits = nflips;
        ev->mask = mask;
    }
    return value ^ mask;
}

std::uint32_t
FaultInjector::corruptMapped(std::uint32_t value, unsigned bits,
                             std::uint32_t slot, FaultEvent *ev)
{
    CLUMSY_ASSERT(bits >= 1 && bits <= 32, "access width %u bits", bits);
    CLUMSY_ASSERT(map_ != nullptr, "no fault map attached");
    CLUMSY_ASSERT(std::size_t{slot} + 1 < slotBegin_.size(),
                  "slot %u outside the mapped array", slot);
    ++accesses_;
    if (ev)
        *ev = FaultEvent{};
    if (!enabled_)
        return value;

    // Each active weak cell of this word fails independently. Inert
    // cells (and empty slots) take no draw, so the RNG consumption is
    // deterministic per (map, cycle time) and independent of the
    // surrounding traffic mix.
    std::uint32_t mask = 0;
    unsigned nflips = 0;
    for (std::uint32_t i = slotBegin_[slot]; i < slotBegin_[slot + 1];
         ++i) {
        const double p = cellPEff_[i];
        if (p <= 0.0)
            continue;
        if (rng_.uniform() >= p)
            continue;
        if (cellBit_[i] >= bits)
            continue; // weak bit outside a narrow access: not sensed
        mask |= std::uint32_t{1} << cellBit_[i];
        ++nflips;
    }
    if (nflips == 0)
        return value;

    stats_.inc(nflips == 1 ? "single"
                           : (nflips == 2 ? "double" : "triple"));
    stats_.inc("mapped");
    ++faults_;
    if (ev) {
        ev->flippedBits = nflips;
        ev->mask = mask;
    }
    return value ^ mask;
}

void
FaultInjector::resetStats()
{
    stats_.reset();
    faults_ = 0;
    accesses_ = 0;
}

} // namespace clumsy::fault
