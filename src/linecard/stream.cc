#include "linecard/stream.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "linecard/fabric.hh"

namespace clumsy::linecard
{

CardStream::CardStream(const net::TraceConfig &trace,
                       std::int64_t gapCycles, std::uint64_t packets,
                       npu::DispatchPolicy policy, unsigned chips,
                       DramFabric &fabric)
    : packets_(packets),
      card_{traffic::makeSource(trace, gapCycles),
            npu::Dispatcher(policy, chips), std::vector<unsigned>(chips, 0)},
      alive_(chips, 1),
      fabric_(fabric),
      fifos_(chips)
{
    shares_.reserve(chips);
    for (unsigned c = 0; c < chips; ++c)
        shares_.emplace_back(*this, c);
}

std::unique_ptr<traffic::PacketSource>
CardStream::Share::clone() const
{
    panic("a chip's share of the card stream cannot be cloned");
}

bool
CardStream::pending() const
{
    return std::any_of(fifos_.begin(), fifos_.end(),
                       [](const Fifo &f) { return !f.ring.empty(); });
}

unsigned
CardStream::detached() const
{
    return static_cast<unsigned>(
        std::count_if(fifos_.begin(), fifos_.end(),
                      [](const Fifo &f) { return f.detached != nullptr; }));
}

bool
CardStream::fill(unsigned c)
{
    Fifo &mine = fifos_[c];
    while (mine.ring.empty()) {
        if (mine.detached) {
            if (mine.detached->drawn == packets_)
                return false;
            if (draw(*mine.detached) == c)
                push(mine);
            continue;
        }
        if (card_.drawn == packets_)
            return false;
        const unsigned to = draw(card_);
        Fifo &f = fifos_[to];
        if (f.detached)
            continue; // the owner draws this one again itself
        push(f);
        if (f.ring.size() == kDetachDepth) {
            // The owner was parked on a DRAM request when its FIFO
            // filled (it would have taken the hand-off otherwise) and
            // has fallen this far behind in the trace: stop buffering
            // for it.
            f.detached = std::make_unique<Draw>(Draw{
                card_.src->clone(), card_.disp, card_.depths, card_.drawn});
        } else if (to != c && f.ring.size() == kFifoBound) {
            fabric_.handOff(c, to);
        }
    }
    return true;
}

void
CardStream::pop(unsigned c, net::Packet &pkt, std::int64_t &arrival)
{
    const bool more = fill(c);
    CLUMSY_ASSERT(more, "chip %u drew past the end of its share", c);
    Ring<Slot> &ring = fifos_[c].ring;
    Slot &slot = ring.front();
    std::swap(pkt, slot.pkt);
    // Keep the storage the chip handed in for the next draw: left in
    // the slot, it would wait for the ring to wrap.
    if (slot.pkt.payload.capacity() != 0)
        spares_.push_back(std::move(slot.pkt));
    arrival = slot.arrival;
    ring.pop();
}

unsigned
CardStream::draw(Draw &d)
{
    if (scratch_.pkt.payload.capacity() == 0 && !spares_.empty()) {
        std::swap(scratch_.pkt, spares_.back());
        spares_.pop_back();
    }
    d.src->nextInto(scratch_.pkt);
    scratch_.arrival = d.src->lastArrivalCycles();
    ++d.drawn;
    const int choice = d.disp.choose(scratch_.pkt, d.depths, alive_);
    CLUMSY_ASSERT(choice >= 0, "card dispatch failed with every chip alive");
    const auto to = static_cast<unsigned>(choice);
    ++d.depths[to];
    return to;
}

void
CardStream::push(Fifo &f)
{
    // With the DRAM model on the ring may grow: the owner was parked on
    // a DRAM request, not yet next in commit order, when it filled.
    f.ring.push(scratch_);
    peak_ = std::max(peak_, f.ring.size());
}

} // namespace clumsy::linecard
