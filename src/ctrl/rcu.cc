#include "ctrl/rcu.hh"

#include <algorithm>

namespace clumsy::ctrl
{

SimAddr
RcuDomain::takeFree(SimSize size)
{
    if (size >= free_.size() || free_[size].empty())
        return 0;
    const SimAddr addr = free_[size].back();
    free_[size].pop_back();
    ++reused_;
    return addr;
}

void
RcuDomain::retire(SimAddr addr, SimSize size)
{
    retiredCurr_.push_back({addr, size});
    ++retired_;
}

void
RcuDomain::quiesce()
{
    // Blocks retired two epochs ago have now outlived every reader
    // that could have seen them: move them to the free lists.
    for (const Block &b : retiredPrev_) {
        if (b.size >= free_.size())
            free_.resize(b.size + 1);
        free_[b.size].push_back(b.addr);
        ++reclaimed_;
    }
    // Rotate the epochs; swapping keeps both lists' capacity.
    retiredPrev_.swap(retiredCurr_);
    retiredCurr_.clear();
    ++epoch_;
}

bool
RcuDomain::isReclaimed(SimAddr addr) const
{
    return std::any_of(free_.begin(), free_.end(), [addr](const auto &l) {
        return std::find(l.begin(), l.end(), addr) != l.end();
    });
}

} // namespace clumsy::ctrl
