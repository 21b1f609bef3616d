#include "mem/hierarchy.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "mem/secded.hh"

namespace clumsy::mem
{

MemHierarchy::MemHierarchy(const HierarchyConfig &config,
                           BackingStore *store,
                           fault::FaultInjector *injector,
                           energy::EnergyAccount *energy)
    : config_(config),
      store_(store),
      injector_(injector),
      energy_(energy),
      l1d_("l1d", config.l1d, config.codec),
      l1i_("l1i", config.l1i),
      l2_("l2", config.l2, config.codec)
{
    CLUMSY_ASSERT(store_ != nullptr && injector_ != nullptr,
                  "hierarchy needs a store and an injector");
    CLUMSY_ASSERT(store_->size() % config_.l2.lineBytes == 0,
                  "DRAM size must be a multiple of the L2 line size");
    CLUMSY_ASSERT(config_.l2.lineBytes >= config_.l1d.lineBytes,
                  "L2 lines must contain whole L1 lines");
    privateL2_.bind(&l2_, store_, energy_, &stats_);
    l2b_ = &privateL2_;
    l2LineScratch_.resize(config_.l2.lineBytes);
    l1LineScratch_.resize(
        std::max(config_.l1d.lineBytes, config_.l1i.lineBytes));
    if (config_.wayDisable.enabled())
        frameStrikes_.assign(
            std::size_t{config_.l1d.sets()} * config_.l1d.assoc, 0);
    reads_ = stats_.slot("reads");
    writes_ = stats_.slot("writes");
    senses_ = stats_.slot("l1d_senses");
    readFaults_ = stats_.slot("read_faults");
    writeFaults_ = stats_.slot("write_faults");
    parityTripStat_ = stats_.slot("parity_trips");
    l1dWritebacks_ = stats_.slot("l1d_writebacks_to_l2");
    setCycleTime(1.0);
}

void
MemHierarchy::setCycleTime(double cr)
{
    CLUMSY_ASSERT(cr > 0.0 && cr <= 1.0,
                  "relative cycle time must be in (0, 1]");
    cr_ = cr;
    l1dQuanta_ = static_cast<Quanta>(
        std::llround(static_cast<double>(config_.l1dHitCycles) *
                     kQuantaPerCycle * cr));
    // Load-use floor: the synchronous core consumes load data at its
    // own clock boundaries, so an over-clocked cache can never appear
    // faster than one core cycle. This is why the paper finds Cr=0.5
    // "almost always performs better" than 0.25: beyond the floor,
    // extra frequency buys only energy savings while the error rates
    // rise sharply.
    if (l1dQuanta_ < kQuantaPerCycle)
        l1dQuanta_ = kQuantaPerCycle;
    // The access energies depend only on (cr, protection): price them
    // here, so an access adds a stored double instead of re-evaluating
    // the swing model. Same expression, so the sums are bit-identical.
    if (energy_) {
        l1dReadPj_ = energy_->model().l1dReadPj(cr, protection());
        l1dWritePj_ = energy_->model().l1dWritePj(cr, protection());
    }
    injector_->setCycleTime(cr);
}

void
MemHierarchy::ensureL2(SimAddr addr, Access &acc)
{
    const SimAddr base = l2LineBase(addr);
    if (l2b_->lookup(addr)) {
        acc.latency += cyclesToQuanta(config_.l2HitCycles);
        ++acc.l2Accesses;
        acc.noteL2Line(base, false, l2b_->sharedFrame(addr));
        if (energy_)
            energy_->addL2Access();
        return;
    }
    store_->readBlock(base, l2LineScratch_.data(), config_.l2.lineBytes);
    l2b_->fill(base, l2LineScratch_.data());
    acc.latency +=
        cyclesToQuanta(config_.l2HitCycles + config_.memCycles);
    ++acc.l2Accesses;
    ++acc.l2Misses;
    acc.noteL2Line(base, true, l2b_->sharedFrame(addr));
    if (energy_) {
        energy_->addL2Access();
        energy_->addMemAccess();
    }
}

void
MemHierarchy::writebackToL2(const Cache::Evicted &evicted)
{
    if (!evicted.valid || !evicted.dirty)
        return;
    // Writebacks are buffered: charge energy and occupancy statistics
    // but no latency on the demand access's critical path. The wb
    // Access is discarded, so buffered transfers also generate no
    // port-arbiter line events.
    Access wb;
    ensureL2(evicted.base, wb);
    l2b_->writeRange(evicted.base, evicted.data.data(),
                     static_cast<SimSize>(evicted.data.size()), true);
    ++*l1dWritebacks_;
}

void
MemHierarchy::corruptFilledLine(std::size_t line, SimAddr lineBase)
{
    if (!config_.injectOnFill || !injector_->enabled())
        return;
    for (SimAddr off = 0; off < config_.l1d.lineBytes; off += 4) {
        const SimAddr wordAddr = lineBase + off;
        const std::uint32_t intended = l1d_.readWordRaw(line, wordAddr);
        fault::FaultEvent ev;
        const std::uint32_t stored =
            injectL1d(intended, line, wordAddr, ev);
        if (ev.flippedBits) {
            l1d_.writeWordRaw(line, wordAddr, stored,
                              l1d_.computeCheck(intended));
            stats_.inc("fill_faults");
        }
    }
}

std::size_t
MemHierarchy::fillL1D(SimAddr addr, Access &acc)
{
    ensureL2(addr, acc);
    const SimAddr base = l1d_.lineBase(addr);
    // The containing L2 line is now resident; copy our slice of it.
    l2b_->readRange(base, l1LineScratch_.data(), config_.l1d.lineBytes);
    const Cache::Evicted victim = l1d_.fill(base, l1LineScratch_.data());
    if (energy_)
        energy_->addL1d(l1dWritePj_);
    corruptFilledLine(victim.line, base);
    // The writeback only touches the L2, so the filled line stays put.
    writebackToL2(victim);
    return victim.line;
}

MemHierarchy::RetireOutcome
MemHierarchy::noteStrikeAndMaybeRetire(std::size_t line, SimAddr wordAddr)
{
    // frameStrikes_ is indexed like the L1D frames: set * assoc + way.
    if (++frameStrikes_[line] < config_.wayDisable.retireThreshold)
        return RetireOutcome::None;
    // Chronically weak frame: retire it. The caller has already
    // written back any dirty data, so dropping the line loses
    // nothing.
    stats_.inc("ways_retired");
    l1d_.invalidate(line);
    l1d_.disableFrame(line);
    return l1d_.hasEnabledWay(wordAddr) ? RetireOutcome::SetAlive
                                        : RetireOutcome::SetDead;
}

bool
MemHierarchy::decodeSecded(std::uint32_t sensed, std::uint8_t check,
                           std::uint32_t &value)
{
    const secded::Decoded dec = secded::decode(sensed, check);
    switch (dec.status) {
      case secded::DecodeStatus::Ok:
        value = sensed;
        return true;
      case secded::DecodeStatus::Corrected:
        stats_.inc("ecc_corrections");
        value = dec.data;
        return true;
      case secded::DecodeStatus::DoubleError:
        return false;
    }
    panic("unreachable SEC-DED status");
}

Access
MemHierarchy::read(SimAddr addr, unsigned bytes, L1dProbe probe)
{
    CLUMSY_ASSERT(bytes == 1 || bytes == 2 || bytes == 4,
                  "access width must be 1, 2 or 4 bytes");
    if ((addr & (bytes - 1)) != 0) { // bytes is 1, 2 or 4: no divide
        // ARM-style forced alignment for corrupted addresses.
        stats_.inc("unaligned_reads");
        addr &= ~SimAddr{bytes - 1};
    }

    Access acc;
    if (!store_->contains(addr, bytes)) {
        // Lazily-allocated-page semantics (SimpleScalar): loads from
        // never-written memory see zeros.
        acc.wild = true;
        acc.value = 0;
        acc.latency += cyclesToQuanta(config_.memCycles);
        stats_.inc("wild_reads");
        return acc;
    }
    ++*reads_;

    const SimAddr wordAddr = addr & ~SimAddr{3};
    if (retireOn() && !l1d_.hasEnabledWay(wordAddr)) {
        // Every frame of the set is retired: the capacity loss is
        // charged as a permanent L1 miss served by the L2 (assumed
        // correct, so no sensing or recovery applies).
        stats_.inc("retired_reads");
        ensureL2(wordAddr, acc);
        const std::uint32_t word = l2b_->readWordRaw(wordAddr);
        const unsigned shift = (addr & 3u) * 8;
        acc.value =
            bytes == 4 ? word : bitField(word, shift, bytes * 8);
        return acc;
    }
    std::size_t line = ensureL1D(wordAddr, acc, probe);

    const unsigned attempts = readAttempts(config_.scheme);
    std::uint32_t sensed = 0;
    bool resolved = false;
    for (unsigned attempt = 1; attempt <= attempts; ++attempt) {
        sensed = senseWord(line, wordAddr, acc);
        if (checkSensedWord(sensed, line, wordAddr, sensed)) {
            resolved = true;
            break;
        }
        ++acc.parityTrips;
        ++*parityTripStat_;
        if (attempt < attempts)
            stats_.inc("strike_retries");
    }

    if (!resolved) {
        // All strikes used: assume a write fault corrupted the block
        // and refetch it from the L2 (paper Section 4). A dirty line
        // is written back first — the detected fault may equally have
        // been a read-sense fault, in which case the stored data is
        // the only valid copy of recent stores. The writeback
        // regenerates L2 parity from the stored bits, so a genuine
        // write fault comes back parity-consistent and turns into a
        // silently corrupted value: the residual undetected-fault
        // channel the paper describes for protected configurations.
        stats_.inc("strike_invalidations");
        if (l1d_.isDirty(line)) {
            stats_.inc("strike_writebacks");
            l1d_.readLine(line, l1LineScratch_.data());
            ensureL2(wordAddr, acc);
            l2b_->writeRange(l1d_.lineBase(wordAddr),
                             l1LineScratch_.data(), config_.l1d.lineBytes,
                             true);
        }
        RetireOutcome retired = RetireOutcome::None;
        if (retireOn())
            retired = noteStrikeAndMaybeRetire(line, wordAddr);
        if (retired == RetireOutcome::SetDead) {
            // The strike-out retired the set's last frame: serve the
            // word from the L2 directly, like every future access to
            // this set will be.
            stats_.inc("retired_reads");
            ensureL2(wordAddr, acc);
            sensed = l2b_->readWordRaw(wordAddr);
        } else {
            if (retired == RetireOutcome::SetAlive) {
                // The line went down with its retired frame; refill
                // into one of the set's surviving ways.
                line = ensureL1D(wordAddr, acc);
            } else if (config_.subBlockRecovery) {
                // Refetch only the faulted word (paper footnote 2):
                // the rest of the line — including its other dirty
                // words — stays put.
                stats_.inc("subblock_refetches");
                ensureL2(wordAddr, acc);
                const std::uint32_t fresh = l2b_->readWordRaw(wordAddr);
                l1d_.writeWordRaw(line, wordAddr, fresh,
                                  l1d_.computeCheck(fresh));
            } else {
                l1d_.invalidate(line);
                line = ensureL1D(wordAddr, acc);
            }
            sensed = senseWord(line, wordAddr, acc);
            if (!checkSensedWord(sensed, line, wordAddr, sensed)) {
                // The refetched copy also sensed faulty: bypass the L1
                // and serve the L2's word directly.
                stats_.inc("l2_bypasses");
                acc.latency += cyclesToQuanta(config_.l2HitCycles);
                ++acc.l2Accesses;
                acc.noteL2Line(l2LineBase(wordAddr), false,
                               l2b_->sharedFrame(wordAddr));
                if (energy_)
                    energy_->addL2Access();
                sensed = l2b_->readWordRaw(wordAddr);
            }
        }
    }

    // Extract the requested bytes from the (possibly corrupted) word.
    const unsigned shift = (addr & 3u) * 8;
    acc.value = bytes == 4 ? sensed : bitField(sensed, shift, bytes * 8);
    return acc;
}

Access
MemHierarchy::write(SimAddr addr, unsigned bytes, std::uint32_t value,
                    L1dProbe probe)
{
    CLUMSY_ASSERT(bytes == 1 || bytes == 2 || bytes == 4,
                  "access width must be 1, 2 or 4 bytes");
    if ((addr & (bytes - 1)) != 0) { // bytes is 1, 2 or 4: no divide
        stats_.inc("unaligned_writes");
        addr &= ~SimAddr{bytes - 1};
    }

    Access acc;
    if (!store_->contains(addr, bytes)) {
        // Absorbed by a lazily-allocated page outside the modeled
        // DRAM (never read back through the timed path).
        acc.wild = true;
        acc.latency += cyclesToQuanta(config_.memCycles);
        stats_.inc("wild_writes");
        return acc;
    }
    ++*writes_;

    const SimAddr wordAddr = addr & ~SimAddr{3};
    if (retireOn() && !l1d_.hasEnabledWay(wordAddr)) {
        // Fully retired set: write through to the L2 via the normal
        // miss path (sub-word stores merge against the L2's copy).
        stats_.inc("retired_writes");
        ensureL2(wordAddr, acc);
        const std::uint32_t intended =
            bytes == 4 ? value
                       : mergeSubWord(l2b_->readWordRaw(wordAddr), addr,
                                      bytes, value);
        std::uint8_t buf[4];
        std::memcpy(buf, &intended, 4);
        l2b_->writeRange(wordAddr, buf, 4, true);
        return acc;
    }
    const std::size_t line = ensureL1D(wordAddr, acc, probe);

    // Sub-word stores are a masked read-modify-write of the stored
    // word; the merge path is internal and not subject to sensing
    // faults (only the array write is injected).
    const std::uint32_t intended =
        bytes == 4 ? value
                   : mergeSubWord(l1d_.readWordRaw(line, wordAddr), addr,
                                  bytes, value);

    fault::FaultEvent ev;
    const std::uint32_t stored = injectL1d(intended, line, wordAddr, ev);
    if (ev.flippedBits) {
        ++acc.faultsInjected;
        ++*writeFaults_;
    }
    // The check-bit generator sits before the array: the stored check
    // bits reflect the intended value even when the array write
    // faulted, which is what makes write faults detectable (and, for
    // SEC-DED, single-bit-correctable) on a later read.
    l1d_.writeWordRaw(line, wordAddr, stored, l1d_.computeCheck(intended));
    l1d_.setDirty(line);

    acc.latency += l1dHitQuanta();
    if (energy_)
        energy_->addL1d(l1dWritePj_);
    return acc;
}

void
MemHierarchy::fillL1I(SimAddr lineAddr, Access &acc)
{
    ensureL2(lineAddr, acc);
    const SimAddr base = l1i_.lineBase(lineAddr);
    l2b_->readRange(base, l1LineScratch_.data(), config_.l1i.lineBytes);
    // Instruction lines are clean; evictions never write back.
    (void)l1i_.fill(base, l1LineScratch_.data());
}

void
MemHierarchy::flushRange(SimAddr addr, SimSize len)
{
    CLUMSY_ASSERT(len > 0, "empty flush range");
    // Flush L2 before L1: when both hold a line dirty, the L1 copy is
    // the more recent, so it must reach DRAM last. The L1 copies go
    // through l1LineScratch_: flushRange never reaches ensureL2.
    const SimAddr first2 = l2LineBase(addr);
    for (SimAddr a = first2; a < addr + len;
         a += config_.l2.lineBytes)
        l2b_->flushLine(a);
    const SimAddr first1 = l1d_.lineBase(addr);
    for (SimAddr a = first1; a < addr + len;
         a += config_.l1d.lineBytes) {
        const LineRef line = l1d_.find(a);
        if (!line)
            continue;
        if (l1d_.isDirty(*line)) {
            l1d_.readLine(*line, l1LineScratch_.data());
            store_->writeBlock(l1d_.lineBase(a), l1LineScratch_.data(),
                               config_.l1d.lineBytes);
        }
        l1d_.invalidate(*line);
    }
}

std::uint32_t
MemHierarchy::peekWord(SimAddr addr) const
{
    const SimAddr wordAddr = addr & ~SimAddr{3};
    if (const LineRef line = l1d_.find(wordAddr))
        return l1d_.readWordRaw(*line, wordAddr);
    if (l2b_->contains(wordAddr))
        return l2b_->readWordRaw(wordAddr);
    return store_->read32(wordAddr);
}

void
MemHierarchy::reset()
{
    l1d_.reset();
    l1i_.reset();
    l2_.reset();
    l1d_.resetStats();
    l1i_.resetStats();
    l2_.resetStats();
    stats_.reset();
    std::fill(frameStrikes_.begin(), frameStrikes_.end(),
              std::uint16_t{0});
}

} // namespace clumsy::mem
