#include "linecard/fabric.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace clumsy::linecard
{

DramFabric::DramFabric(const dram::DramConfig &config, unsigned chips,
                       Quanta flatQuanta)
    : flat_(flatQuanta),
      bound_(chips, 0),
      lastCommit_(chips, 0),
      state_(chips, ChipState::Unstarted),
      handOffTo_(chips)
{
    CLUMSY_ASSERT(chips >= 1, "fabric needs at least one chip");
    if (config.banks > 0)
        model_.emplace(config);
}

bool
DramFabric::safe(unsigned chip, Quanta p) const
{
    for (unsigned j = 0; j < bound_.size(); ++j) {
        if (j == chip || state_[j] == ChipState::Done)
            continue;
        if (bound_[j] < p || (bound_[j] == p && j < chip))
            return false;
    }
    return true;
}

unsigned
DramFabric::pick() const
{
    const auto chips = static_cast<unsigned>(bound_.size());
    unsigned next = chips;
    for (unsigned c = 0; c < chips; ++c) {
        if (state_[c] != ChipState::Done &&
            (next == chips || bound_[c] < bound_[next]))
            next = c;
    }
    return next;
}

void
DramFabric::run(const std::function<void(unsigned)> &chipBody)
{
    const auto chips = static_cast<unsigned>(bound_.size());
    for (unsigned c = 0; c < chips; ++c)
        fibers_.push_back(
            std::make_unique<Fiber>([&chipBody, c] { chipBody(c); }));

    while (true) {
        // A stream hand-off's target, else the unfinished chip with
        // the smallest (bound, chip).
        unsigned next = std::exchange(handOffTo_, chips);
        if (next == chips)
            next = pick();
        if (next == chips)
            break;

        // Deadlock freedom: the pick is unstarted, parked on the
        // stream, or parked at its bound with its commit globally
        // next — so it can always run. A hand-off only ever names one
        // of the first two.
        CLUMSY_ASSERT(state_[next] == ChipState::Unstarted ||
                          state_[next] == ChipState::StreamParked ||
                          (state_[next] == ChipState::Parked &&
                           lastCommit_[next] == bound_[next] &&
                           safe(next, bound_[next])),
                      "fabric picked chip %u, which cannot run", next);
        state_[next] = ChipState::Running;
        fibers_[next]->resume();
        if (fibers_[next]->finished()) {
            state_[next] = ChipState::Done;
            fibers_[next].reset();
        }
        CLUMSY_ASSERT(state_[next] != ChipState::Running,
                      "chip %u left the scheduler while running", next);
    }
}

Quanta
DramFabric::request(unsigned chip, std::uint64_t addr, Quanta reqTime)
{
    // The commit point. Clamping to the chip's own previous commit
    // keeps the per-chip sequence monotone (port slot times are not:
    // with MSHRs > 1 a later access can land on an earlier slot), so
    // the global (p, chip) order below is a genuine total order.
    CLUMSY_ASSERT(state_[chip] == ChipState::Running,
                  "DRAM request from chip %u outside its fiber", chip);
    const Quanta p = std::max(reqTime, lastCommit_[chip]);
    CLUMSY_ASSERT(p >= bound_[chip],
                  "DRAM request earlier than the chip's published bound");
    bound_[chip] = p;
    lastCommit_[chip] = p;

    // Not yet next: park. The scheduler resumes this chip only once
    // its (p, chip) is the smallest (bound, chip) left, i.e. once the
    // commit is next.
    if (!safe(chip, p)) {
        state_[chip] = ChipState::Parked;
        fibers_[chip]->yield();
    }

    const Quanta done = model_->access(addr, p);
    const Quanta extra = done - reqTime - flat_;
    CLUMSY_ASSERT(extra >= 0, "DRAM completed before the flat penalty");
    return extra;
}

void
DramFabric::handOff(unsigned from, unsigned to)
{
    CLUMSY_ASSERT(state_[from] == ChipState::Running,
                  "stream hand-off from chip %u outside its fiber", from);
    if (state_[to] != ChipState::Unstarted &&
        state_[to] != ChipState::StreamParked)
        return;
    handOffTo_ = to;
    state_[from] = ChipState::StreamParked;
    fibers_[from]->yield();
}

} // namespace clumsy::linecard
