/**
 * @file
 * Streaming, O(1)-memory traffic models layered on net::TraceGenerator
 * (ROADMAP: "Internet-scale traffic model").
 *
 * A PacketSource produces the packet stream a harness consumes —
 * next() plus the arrival time (base cycles) of the packet it just
 * produced, which feeds the chip's offered-load gap machinery. A
 * source is a value: clone() copies it, and the copy continues the
 * stream exactly where the original stands. Two models implement it:
 *
 *  - StaticSource: the historical static-flow TraceGenerator with
 *    fixed inter-arrival gaps. Bit-identical to driving the generator
 *    directly, so every pre-churn golden trace replays unchanged.
 *
 *  - ChurnSource: a FlowTable-driven churn model. A fixed array of
 *    numFlows *live-flow slots* holds the current population; each
 *    packet picks a slot with Zipf popularity (hot flows dominate),
 *    and a flow that exhausts its seeded geometric lifetime closes,
 *    its slot instantly re-opened by a fresh flow — millions of
 *    distinct flows stream through constant memory. The stream
 *    alternates heavy-tailed (discrete Pareto) ON bursts with OFF
 *    gaps, and an optional linear arrival-rate ramp models a link
 *    warming up. All draws come from a churn RNG separate from the
 *    packet-body stream RNG, so the model stays deterministic per
 *    seed at any packet count: golden and faulty runs, and runs at
 *    different --jobs/--chip-jobs, replay identical sequences.
 *
 * A TraceRecording draws a stream once and keeps it, and a
 * ReplaySource replays the recording as a PacketSource: the chip's
 * golden run records its trace, and every faulty trial replays it
 * instead of redrawing every payload byte.
 */

#ifndef CLUMSY_TRAFFIC_TRAFFIC_HH
#define CLUMSY_TRAFFIC_TRAFFIC_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "net/trace_gen.hh"

namespace clumsy::traffic
{

/** Streaming packet source: the contract every harness consumes. */
class PacketSource
{
  public:
    virtual ~PacketSource() = default;

    /** Produce the next packet of the stream. */
    net::Packet next()
    {
        net::Packet pkt;
        nextInto(pkt);
        return pkt;
    }

    /**
     * Produce the next packet into @p pkt, overwriting every field and
     * reusing its payload storage: a consumer that draws packets only
     * to discard most of them (the line card's per-chip split) makes
     * no heap allocation per discarded packet.
     */
    virtual void nextInto(net::Packet &pkt) = 0;

    /**
     * Arrival time, in base cycles, of the packet the last next() or
     * nextInto() produced (0 before the first call). Non-decreasing.
     */
    virtual std::int64_t lastArrivalCycles() const = 0;

    /** The trace configuration in force. */
    virtual const net::TraceConfig &config() const = 0;

    /**
     * Is the stream used up? A traffic model never is: its consumer
     * stops at its own packet count. A line-card chip's share of the
     * card stream is once the chip has popped all of it; the share
     * may draw ahead to tell, which is why this is not const.
     */
    virtual bool atEnd() { return false; }

    /**
     * A copy of this source that produces, draw for draw, the packets
     * and arrival times this one would produce next; advancing either
     * leaves the other where it stands.
     */
    virtual std::unique_ptr<PacketSource> clone() const = 0;

  protected:
    PacketSource() = default;
    /** Copied only whole, by clone() overrides: never sliced. */
    PacketSource(const PacketSource &) = default;
    PacketSource &operator=(const PacketSource &) = delete;
};

/** The static-flow generator behind the PacketSource contract. */
class StaticSource final : public PacketSource
{
  public:
    StaticSource(const net::TraceConfig &config,
                 std::int64_t nominalGapCycles)
        : gen_(config), gap_(nominalGapCycles)
    {
    }

    void nextInto(net::Packet &pkt) override
    {
        gen_.nextInto(pkt);
        arrival_ = static_cast<std::int64_t>(pkt.seq) * gap_;
    }

    std::int64_t lastArrivalCycles() const override { return arrival_; }

    const net::TraceConfig &config() const override
    {
        return gen_.config();
    }

    std::unique_ptr<PacketSource> clone() const override
    {
        return std::make_unique<StaticSource>(*this);
    }

  private:
    net::TraceGenerator gen_;
    std::int64_t gap_ = 0;
    std::int64_t arrival_ = 0;
};

/** One live-flow slot of the churn population. */
struct FlowSlot
{
    net::FlowTuple tuple;
    std::uint64_t remaining = 0; ///< packets until this flow closes
};

/**
 * The live flow population: a fixed array of slots, each holding one
 * open flow and its remaining lifetime. Slot count never changes —
 * flows churn *through* the slots — so memory is O(numFlows)
 * regardless of how many flows ever existed.
 */
class FlowTable
{
  public:
    /** Open the initial population (one flow per slot). */
    FlowTable(const net::TraceGenerator &gen, Rng &rng,
              const net::ChurnConfig &churn, std::uint32_t slots);

    /** The slot's current flow. */
    const net::FlowTuple &tuple(std::size_t slot) const
    {
        return slots_[slot].tuple;
    }

    /**
     * Account one packet against @p slot; when the flow's lifetime is
     * exhausted, close it and open a fresh flow in place.
     * @return true when the packet closed the flow (churn event).
     */
    bool consume(std::size_t slot, const net::TraceGenerator &gen,
                 Rng &rng, const net::ChurnConfig &churn);

    std::size_t size() const { return slots_.size(); }

    /** Flows opened so far, including the initial population. */
    std::uint64_t flowsOpened() const { return opened_; }

    /** Flows that ran out their lifetime and closed. */
    std::uint64_t flowsClosed() const { return closed_; }

    /**
     * Draw one geometric flow lifetime (mean churn.meanLifetimePackets,
     * support >= 1). Exposed for the distribution property tests.
     */
    static std::uint64_t drawLifetime(Rng &rng,
                                      const net::ChurnConfig &churn);

  private:
    std::vector<FlowSlot> slots_;
    std::uint64_t opened_ = 0;
    std::uint64_t closed_ = 0;
};

/** Stream-level counters a ChurnSource accumulates (all O(1)). */
struct ChurnCounters
{
    std::uint64_t packets = 0;
    std::uint64_t bursts = 0; ///< ON bursts started
};

/** The churn traffic model (see the file comment). */
class ChurnSource final : public PacketSource
{
  public:
    ChurnSource(const net::TraceConfig &config,
                std::int64_t nominalGapCycles);

    void nextInto(net::Packet &pkt) override;

    std::int64_t lastArrivalCycles() const override { return arrival_; }

    const net::TraceConfig &config() const override
    {
        return gen_.config();
    }

    std::unique_ptr<PacketSource> clone() const override
    {
        return std::make_unique<ChurnSource>(*this);
    }

    const FlowTable &flows() const { return flows_; }

    const ChurnCounters &counters() const { return counters_; }

    /**
     * Packets emitted per population slot. Slot ranks are fixed while
     * flows churn through them, so these counts follow the configured
     * Zipf rank-frequency law (the property tests fit its slope).
     */
    const std::vector<std::uint64_t> &slotPackets() const
    {
        return slotPackets_;
    }

    /**
     * Draw one ON-burst length: discrete Pareto with tail exponent
     * churn.burstAlpha and scale churn.minBurst. Exposed for the
     * distribution property tests.
     */
    static std::uint64_t drawBurst(Rng &rng,
                                   const net::ChurnConfig &churn);

    /** The ramp's gap multiplier for packet @p seq (>= 1 decaying). */
    double rampFactor(std::uint64_t seq) const;

  private:
    net::TraceGenerator gen_; ///< packet bodies (stream RNG)
    Rng churnRng_;            ///< slot picks, lifetimes, bursts
    FlowTable flows_;
    std::vector<std::uint64_t> slotPackets_;
    ChurnCounters counters_;
    std::int64_t nominalGap_ = 0;
    std::int64_t arrival_ = 0;
    std::uint64_t burstRemaining_ = 0;
};

/**
 * Build the source a trace configuration asks for: a ChurnSource when
 * config.churn.enabled, else a StaticSource. @p nominalGapCycles is
 * the offered-load inter-arrival gap in base cycles (0 = saturated).
 */
std::unique_ptr<PacketSource> makeSource(const net::TraceConfig &config,
                                         std::int64_t nominalGapCycles);

/**
 * A packet stream drawn once and kept, immutable after construction,
 * so any number of ReplaySources on any threads may read one
 * recording. Every payload lives in one byte arena; each packet keeps
 * its header, ports, sequence number, arrival time and its payload's
 * place in the arena. Memory grows with the packet count: a
 * recording is for runs that keep per-packet state anyway (the chip
 * golden's completion index and frame log), not for streaming runs.
 */
class TraceRecording
{
  public:
    /** Draw @p packets packets and their arrivals from @p source. */
    TraceRecording(PacketSource &source, std::uint64_t packets);

    /** Number of packets recorded. */
    std::size_t size() const { return packets_.size(); }

    /** The configuration of the source the recording was drawn from. */
    const net::TraceConfig &config() const { return config_; }

    /**
     * Write packet @p i into @p pkt, overwriting every field and
     * reusing its payload storage.
     */
    void copyInto(std::size_t i, net::Packet &pkt) const;

    /** Arrival time, in base cycles, of packet @p i. */
    std::int64_t arrivalCycles(std::size_t i) const
    {
        return packets_[i].arrival;
    }

  private:
    /** One recorded packet; its payload is arena_[offset, +length). */
    struct Entry
    {
        std::uint64_t seq = 0;
        net::Ipv4Header ip;
        std::uint16_t srcPort = 0;
        std::uint16_t dstPort = 0;
        std::uint32_t length = 0;
        std::size_t offset = 0;
        std::int64_t arrival = 0;
    };

    net::TraceConfig config_;
    std::vector<Entry> packets_;
    std::vector<std::uint8_t> arena_;
    std::uint32_t maxLength_ = 0; ///< longest payload recorded
};

/**
 * A recorded stream as a PacketSource: packet for packet and arrival
 * for arrival the stream the recording was drawn from, used up once
 * the recording is (atEnd()). Copies share the recording.
 */
class ReplaySource final : public PacketSource
{
  public:
    explicit ReplaySource(std::shared_ptr<const TraceRecording> recording)
        : rec_(std::move(recording))
    {
    }

    void nextInto(net::Packet &pkt) override;

    std::int64_t lastArrivalCycles() const override { return arrival_; }

    const net::TraceConfig &config() const override
    {
        return rec_->config();
    }

    bool atEnd() override { return next_ >= rec_->size(); }

    std::unique_ptr<PacketSource> clone() const override
    {
        return std::make_unique<ReplaySource>(*this);
    }

  private:
    std::shared_ptr<const TraceRecording> rec_;
    std::size_t next_ = 0;
    std::int64_t arrival_ = 0;
};

/**
 * fatal()s, naming @p option, unless @p packets arrivals @p gapCycles
 * apart, each gap stretched as far as the churn model stretches one,
 * end within INT64_MAX quanta. Call before any simulation.
 */
void checkArrivalSpan(const std::string &option, std::int64_t gapCycles,
                      std::uint64_t packets);

} // namespace clumsy::traffic

#endif // CLUMSY_TRAFFIC_TRAFFIC_HH
