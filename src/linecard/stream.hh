/**
 * @file
 * The card stream: the line card's one copy of the card-wide packet
 * trace, split across the chips as it is drawn.
 *
 * The card's dispatcher is feedback-free (the "queue depth" its
 * shortest policy sees is each chip's total assigned count), so the
 * split is a pure function of the trace and may be computed by
 * whichever chip happens to draw. A chip that wants a packet pops its
 * own FIFO; when that is empty it draws card packets, in global
 * order, until one lands in its own FIFO, pushing the others' packets
 * into theirs. Packets keep their global sequence numbers and arrival
 * times, and every chip sees exactly the packets, in exactly the
 * order, a private replay of the whole trace would have kept for it.
 * The stream knows the card's packet count: a chip's share ends once
 * its FIFO is empty and the trace is used up, so the card draws its
 * trace once and sizes no chip in advance.
 *
 * The FIFOs are Rings of reused net::Packet slots: a packet is
 * swapped into a slot when drawn and swapped out when popped, never
 * copied. A push that fills another chip's FIFO to kFifoBound hands
 * the thread to that chip through the DRAM fabric (see
 * DramFabric::handOff) if it holds no DRAM request; otherwise the
 * FIFO grows. With the DRAM model off no FIFO ever holds more than
 * kFifoBound packets.
 *
 * With the model on, a chip parked on a DRAM request waits for the
 * other chips' clocks, and under saturated arrivals a chip with a
 * larger share falls ever further behind in the trace, so its FIFO
 * would grow with the run. A FIFO that reaches kDetachDepth detaches
 * instead: the stream stops buffering for its chip, which draws the
 * rest of its share from a clone of the card source and a copy of the
 * dispatcher, taken where the buffer ends. Memory stays bounded, and
 * the detached chip continues the trace from there instead of drawing
 * it again from the start.
 */

#ifndef CLUMSY_LINECARD_STREAM_HH
#define CLUMSY_LINECARD_STREAM_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/ring.hh"
#include "net/packet.hh"
#include "npu/dispatcher.hh"
#include "traffic/traffic.hh"

namespace clumsy::linecard
{

class DramFabric;

/** One card-wide packet stream, split into per-chip FIFOs. */
class CardStream
{
  public:
    /**
     * FIFO depth at which a push hands the thread to the FIFO's owner.
     * Deep enough that hand-offs are rare (one per ~kFifoBound card
     * packets per chip), shallow enough that the slots stay small.
     */
    static constexpr std::size_t kFifoBound = 256;

    /** FIFO depth at which a chip detaches from the stream. */
    static constexpr std::size_t kDetachDepth = 4 * kFifoBound;

    /**
     * @param trace     the card-wide trace (drawn once)
     * @param gapCycles nominal inter-arrival gap, base cycles
     * @param packets   packets in the card trace
     * @param policy    card dispatch policy
     * @param fabric    the scheduler the chips run under; every chip
     *                  must draw from inside DramFabric::run
     */
    CardStream(const net::TraceConfig &trace, std::int64_t gapCycles,
               std::uint64_t packets, npu::DispatchPolicy policy,
               unsigned chips, DramFabric &fabric);

    CardStream(const CardStream &) = delete;
    CardStream &operator=(const CardStream &) = delete;

    /**
     * Chip @p c's share of the stream, as a chip's packet source; it
     * reports atEnd() once the share is used up.
     */
    traffic::PacketSource &chip(unsigned c) { return shares_[c]; }

    /** The deepest any chip's FIFO has been, packets. */
    std::size_t peakDepth() const { return peak_; }

    /** Chips that detached from the stream (see file doc). */
    unsigned detached() const;

    /** Does any chip's FIFO still hold a packet? */
    bool pending() const;

  private:
    /** A drawn packet and its arrival time, base cycles. */
    struct Slot
    {
        net::Packet pkt;
        std::int64_t arrival = 0;
    };

    /**
     * One draw of the card trace: the source, the dispatcher with its
     * per-chip counts, and the card packets drawn so far. The stream
     * owns one; a detached chip owns a copy taken when it detached.
     */
    struct Draw
    {
        std::unique_ptr<traffic::PacketSource> src;
        npu::Dispatcher disp;
        std::vector<unsigned> depths;
        std::uint64_t drawn = 0;
    };

    struct Fifo
    {
        Ring<Slot> ring;
        std::unique_ptr<Draw> detached; ///< set once detached
    };

    /** Chip c's view of the stream: pops its FIFO. */
    class Share final : public traffic::PacketSource
    {
      public:
        Share(CardStream &stream, unsigned chip)
            : stream_(&stream), chip_(chip)
        {
        }

        void nextInto(net::Packet &pkt) override
        {
            stream_->pop(chip_, pkt, arrival_);
        }

        std::int64_t lastArrivalCycles() const override { return arrival_; }

        const net::TraceConfig &config() const override
        {
            return stream_->card_.src->config();
        }

        bool atEnd() override { return !stream_->fill(chip_); }

        /** A share is a view of the stream: there is nothing to copy. */
        std::unique_ptr<traffic::PacketSource> clone() const override;

      private:
        CardStream *stream_;
        unsigned chip_;
        std::int64_t arrival_ = 0;
    };

    /**
     * Draw until chip @p c's FIFO holds a packet or its share is used
     * up. @return false in the second case.
     */
    bool fill(unsigned c);

    /**
     * Pop chip @p c's next packet into @p pkt (swapped, not copied);
     * its share must not be used up.
     */
    void pop(unsigned c, net::Packet &pkt, std::int64_t &arrival);

    /**
     * Draw one card packet from @p d into scratch_. @return the chip
     * the dispatcher gave it to.
     */
    unsigned draw(Draw &d);

    /** Swap scratch_ into @p f. */
    void push(Fifo &f);

    std::uint64_t packets_;
    Draw card_;
    std::vector<char> alive_; ///< all 1: the split is feedback-free
    DramFabric &fabric_;
    std::vector<Fifo> fifos_;
    std::vector<Share> shares_;
    Slot scratch_; ///< draw target, swapped into a FIFO slot
    /** Payload storage the chips handed back, for the next draws. */
    std::vector<net::Packet> spares_;
    std::size_t peak_ = 0;
};

} // namespace clumsy::linecard

#endif // CLUMSY_LINECARD_STREAM_HH
