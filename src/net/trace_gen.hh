/**
 * @file
 * Deterministic synthetic packet-trace generation.
 *
 * Substitutes for the NetBench input traces the paper used (see
 * DESIGN.md substitution 4). The generator produces repeatable streams
 * with realistic field distributions: a bounded destination-prefix
 * pool with Zipf popularity (routing locality), mixed packet sizes,
 * per-flow port stability, and HTTP GET payloads for the url workload.
 * Golden (fault-free) and faulty runs replay identical traces because
 * generation is seeded independently of fault sampling.
 *
 * The churn traffic model (flows that open, burst and die over a live
 * population — src/traffic/) layers on top: TraceConfig carries its
 * parameters, and the generator exposes emit()/drawFlow() so the
 * churn source builds packets from exactly the same recipe, keeping
 * the static-flow stream bit-identical to what it always was.
 */

#ifndef CLUMSY_NET_TRACE_GEN_HH
#define CLUMSY_NET_TRACE_GEN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.hh"
#include "net/packet.hh"

namespace clumsy::net
{

/** One flow's immutable identity (the classic 5-tuple). */
struct FlowTuple
{
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint16_t srcPort = 0;
    std::uint16_t dstPort = 0;
    std::uint8_t protocol = 0;
};

/**
 * Flow-churn traffic model parameters (consumed by
 * traffic::ChurnSource; ignored by the plain static-flow generator
 * except for flowZipf, which both share). All knobs are validated by
 * TraceConfig::validate().
 */
struct ChurnConfig
{
    /** Static flow set when false (the historical behaviour). */
    bool enabled = false;

    /**
     * Mean flow lifetime, packets (geometric): when a live flow has
     * emitted this many packets on average, it closes and a fresh
     * flow opens in its population slot.
     */
    double meanLifetimePackets = 4096.0;

    /** Pareto tail exponent of ON-burst lengths (heavy tail). */
    double burstAlpha = 1.5;

    /** Smallest ON burst, packets (the Pareto scale parameter). */
    std::uint32_t minBurst = 4;

    /**
     * OFF period between bursts, expressed as a multiple of the
     * nominal inter-arrival gap (0 = bursts abut).
     */
    double offGapFactor = 16.0;

    /** Arrival-rate ramp length, packets (0 = no ramp). */
    std::uint64_t rampPackets = 0;

    /**
     * Gap multiplier at stream start; decays linearly to 1 over
     * rampPackets (values > 1 model a stream ramping up).
     */
    double rampStartFactor = 1.0;
};

/** Trace generator parameters. */
struct TraceConfig
{
    std::uint64_t seed = 1;          ///< stream seed
    /**
     * Seed of the destination-address pool. Kept separate from the
     * stream seed so applications can rebuild the pool (to install
     * routes / NAT bindings for it) independent of which trace replay
     * they are fed.
     */
    std::uint64_t poolSeed = 0xd057;
    std::uint32_t numFlows = 256;    ///< distinct (src,dst,port) flows;
                                     ///< the *live* population under churn
    std::uint32_t numDestinations = 512; ///< destination address pool
    double destZipf = 0.9;           ///< popularity skew of destinations
    double flowZipf = 0.8;           ///< popularity skew of flows
    std::uint32_t minPayload = 16;   ///< payload bytes, inclusive
    std::uint32_t maxPayload = 512;  ///< payload bytes, inclusive
    bool httpPayloads = false;       ///< generate HTTP GET payloads
    std::uint32_t numUrls = 128;     ///< URL pool when httpPayloads

    /** Flow-churn model (see ChurnConfig). */
    ChurnConfig churn;

    /**
     * fatal()s (exit, not abort) with a parameter-naming message when
     * any field is out of range; called by the TraceGenerator
     * constructor and by the CLI front ends before construction.
     */
    void validate() const;
};

/**
 * The flow recipe: the destination pool and its Zipf popularity,
 * which is all drawFlow() reads. Built from a config alone (poolSeed,
 * numDestinations, destZipf), so a consumer that only draws flows
 * (the control-plane stream) holds one without a whole generator.
 */
struct FlowRecipe
{
    explicit FlowRecipe(const TraceConfig &config);

    /**
     * Draw a fresh flow from @p rng: private 10/8 source, Zipf
     * destination from the pool, stable ports, TCP-biased protocol.
     */
    FlowTuple draw(Rng &rng) const;

    std::vector<std::uint32_t> destinations; ///< index -> IPv4 address
    ZipfTable popularity;                   ///< over destinations
};

/** Streaming generator of a deterministic packet sequence. */
class TraceGenerator
{
  public:
    explicit TraceGenerator(TraceConfig config);

    /** Generate the next packet of the stream. */
    Packet next()
    {
        Packet pkt;
        nextInto(pkt);
        return pkt;
    }

    /**
     * Generate the next packet into @p pkt, overwriting every field
     * and reusing its payload storage (no allocation once the
     * capacity suffices). The stream is next()'s, packet for packet.
     */
    void nextInto(Packet &pkt);

    /**
     * Materialize a whole trace of n packets. Test-only convenience:
     * it holds all n packets in memory, so anything that scales with
     * packet count (the harnesses, --dump-trace) must consume the
     * streaming next() / traffic::PacketSource contract instead.
     */
    std::vector<Packet> generate(std::uint64_t n);

    /**
     * Build the next packet of the stream for an externally chosen
     * flow into @p pkt (the churn model's entry point), overwriting
     * every field and reusing the payload storage. Draws TTL, IP id
     * and payload from the stream RNG exactly as next() does; next()
     * is emit() over a Zipf-chosen static flow.
     */
    void emit(const FlowTuple &flow, Packet &pkt);

    /**
     * Draw a fresh flow from @p rng with the constructor's recipe
     * (FlowRecipe::draw). The churn model feeds this its own RNG so
     * flow births never perturb the packet-body stream.
     */
    FlowTuple drawFlow(Rng &rng) const { return recipe_.draw(rng); }

    /** The destination-address pool (index -> IPv4 address). */
    const std::vector<std::uint32_t> &destinations() const
    {
        return recipe_.destinations;
    }

    /** The URL path pool used for HTTP payloads. */
    const std::vector<std::string> &urls() const { return urlPool_; }

    /** Flow popularity: Zipf(numFlows, flowZipf) over flow ranks. */
    const ZipfTable &flowPopularity() const { return flowZipf_; }

    /** The configuration in force. */
    const TraceConfig &config() const { return config_; }

    /**
     * Rebuild the destination pool a TraceGenerator with this config
     * would use (depends only on poolSeed and numDestinations).
     */
    static std::vector<std::uint32_t> makeDestPool(
        const TraceConfig &config);

    /**
     * Rebuild the URL pool (depends only on numUrls; fully
     * deterministic).
     */
    static std::vector<std::string> makeUrlPool(
        const TraceConfig &config);

  private:
    TraceConfig config_;
    Rng rng_;
    FlowRecipe recipe_;
    std::vector<FlowTuple> flows_;
    std::vector<std::string> urlPool_;
    std::uint64_t seq_ = 0;
    ZipfTable flowZipf_; ///< over flows_
    ZipfTable urlZipf_;  ///< over urlPool_ (empty without HTTP)
};

} // namespace clumsy::net

#endif // CLUMSY_NET_TRACE_GEN_HH
