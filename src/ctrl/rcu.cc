#include "ctrl/rcu.hh"

namespace clumsy::ctrl
{

SimAddr
RcuDomain::takeFree(SimSize size)
{
    auto it = free_.find(size);
    if (it == free_.end() || it->second.empty())
        return 0;
    const SimAddr addr = it->second.back();
    it->second.pop_back();
    freeSet_.erase(addr);
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
        free_[b.size].push_back(b.addr);
        freeSet_.emplace(b.addr, true);
        ++reclaimed_;
    }
    // Rotate the epochs; swapping keeps both lists' capacity.
    retiredPrev_.swap(retiredCurr_);
    retiredCurr_.clear();
    ++epoch_;
}

} // namespace clumsy::ctrl
