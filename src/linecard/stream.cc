#include "linecard/stream.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "linecard/fabric.hh"

namespace clumsy::linecard
{

CardStream::CardStream(const net::TraceConfig &trace,
                       std::int64_t gapCycles, npu::DispatchPolicy policy,
                       unsigned chips, DramFabric &fabric)
    : gapCycles_(gapCycles),
      inner_(traffic::makeSource(trace, gapCycles)),
      disp_(policy, chips),
      depths_(chips, 0),
      alive_(chips, 1),
      fabric_(fabric),
      fifos_(chips)
{
    shares_.reserve(chips);
    for (unsigned c = 0; c < chips; ++c) {
        fifos_[c].ring.resize(kFifoBound);
        shares_.emplace_back(*this, c);
    }
}

bool
CardStream::pending() const
{
    return std::any_of(fifos_.begin(), fifos_.end(),
                       [](const Fifo &f) { return f.size > 0; });
}

unsigned
CardStream::detached() const
{
    return static_cast<unsigned>(
        std::count_if(fifos_.begin(), fifos_.end(),
                      [](const Fifo &f) { return f.replay != nullptr; }));
}

void
CardStream::pop(unsigned c, net::Packet &pkt, std::int64_t &arrival)
{
    Fifo &own = fifos_[c];
    while (own.size == 0) {
        if (own.replay)
            drawReplay(c);
        else
            drawOne(c);
    }
    Slot &slot = own.ring[own.head];
    std::swap(pkt, slot.pkt);
    // Keep the storage the chip handed in for the next draw: left in
    // the slot, it would wait for the ring to wrap.
    if (slot.pkt.payload.capacity() != 0)
        spares_.push_back(std::move(slot.pkt));
    arrival = slot.arrival;
    own.head = (own.head + 1) & (own.ring.size() - 1);
    --own.size;
}

void
CardStream::push(Fifo &f, net::Packet &pkt, std::int64_t arrival)
{
    if (f.size == f.ring.size()) {
        // Only with the DRAM model on: the owner was parked on a DRAM
        // request, not yet next in commit order, when its FIFO filled.
        // Unroll the ring into one twice its size.
        std::vector<Slot> bigger(2 * f.ring.size());
        for (std::size_t i = 0; i < f.size; ++i)
            std::swap(bigger[i],
                      f.ring[(f.head + i) & (f.ring.size() - 1)]);
        f.ring.swap(bigger);
        f.head = 0;
    }
    Slot &slot = f.ring[(f.head + f.size) & (f.ring.size() - 1)];
    std::swap(slot.pkt, pkt);
    slot.arrival = arrival;
    ++f.size;
    peak_ = std::max(peak_, f.size);
}

void
CardStream::refillScratch()
{
    if (scratch_.payload.capacity() == 0 && !spares_.empty()) {
        std::swap(scratch_, spares_.back());
        spares_.pop_back();
    }
}

void
CardStream::drawOne(unsigned self)
{
    refillScratch();
    inner_->nextInto(scratch_);
    ++drawn_;
    const int choice = disp_.choose(scratch_, depths_, alive_);
    CLUMSY_ASSERT(choice >= 0, "card dispatch failed with every chip alive");
    const auto to = static_cast<unsigned>(choice);
    ++depths_[to];

    Fifo &f = fifos_[to];
    if (f.replay)
        return; // the owner draws this one again itself
    push(f, scratch_, inner_->lastArrivalCycles());
    if (f.size == kDetachDepth) {
        // The owner was parked on a DRAM request when its FIFO
        // filled (it would have taken the hand-off otherwise) and has
        // fallen this far behind in the trace: stop buffering for it.
        f.replay = std::make_unique<Replay>(
            Replay{traffic::makeSource(inner_->config(), gapCycles_),
                   disp_, depths_, drawn_});
        return;
    }
    if (to != self && f.size == kFifoBound)
        fabric_.handOff(self, to);
}

void
CardStream::drawReplay(unsigned c)
{
    Replay &r = *fifos_[c].replay;
    refillScratch();
    for (; r.skip > 0; --r.skip)
        r.src->nextInto(scratch_);
    while (true) {
        r.src->nextInto(scratch_);
        const int choice = r.disp.choose(scratch_, r.depths, alive_);
        CLUMSY_ASSERT(choice >= 0,
                      "card dispatch failed with every chip alive");
        ++r.depths[static_cast<unsigned>(choice)];
        if (static_cast<unsigned>(choice) == c) {
            push(fifos_[c], scratch_, r.src->lastArrivalCycles());
            return;
        }
    }
}

} // namespace clumsy::linecard
