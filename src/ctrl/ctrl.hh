/**
 * @file
 * Deterministic control-plane event stream racing the data plane.
 *
 * Real packet processors forward traffic *while* the control plane
 * inserts and withdraws routes, changes NAT rules and flushes session
 * tables. This subsystem generates that churn as a seeded, repeatable
 * event stream interleaved with packet processing by both harnesses
 * (core::runOnce and the chip step loop): before packet i begins, all
 * events scheduled `beforePacket <= i` are applied to the app's
 * tables through the timed, faulty memory path — so the *update path*
 * itself is a fault surface, distinct from the paper's quiescent-table
 * model.
 *
 * Determinism discipline (same as traffic::ChurnSource):
 *  - The stream is seeded `traceSeed ^ kCtrlSeedSalt`, independent of
 *    the packet-body RNG, so enabling updates never perturbs packet
 *    contents: the rate-0 stream is bit-identical to a run without
 *    the subsystem.
 *  - Event keys are drawn with TraceGenerator::drawFlow()'s recipe,
 *    so updates target addresses the live traffic actually uses.
 *  - CtrlSource is a streaming contract parallel to
 *    traffic::PacketSource: O(1) memory, and every run (golden, each
 *    faulty trial) builds one source whose clones, one per chip
 *    engine, share its immutable key recipe and replay its schedule.
 */

#ifndef CLUMSY_CTRL_CTRL_HH
#define CLUMSY_CTRL_CTRL_HH

#include <cstdint>
#include <memory>
#include <string>

#include "net/trace_gen.hh"

namespace clumsy::ctrl
{

/** Seed salt decorrelating the ctrl stream from the packet stream. */
inline constexpr std::uint64_t kCtrlSeedSalt = 0xc7a1c0defee1deadull;

/** The control-plane operations the stream generates. */
enum class CtrlEventKind
{
    FibInsert,    ///< install prefix -> nexthop (lpm)
    FibWithdraw,  ///< remove a prefix (lpm)
    NatAdd,       ///< pre-install a NAT binding (nat)
    NatRemove,    ///< tombstone a NAT binding (nat)
    SessionFlush, ///< flush a window of session slots (session)
};

/** Human-readable event-kind name (logs/tests). */
std::string to_string(CtrlEventKind kind);

/** Which event kinds the stream generates (CLI --ctrl-mix). */
enum class CtrlMix
{
    Fib,     ///< FIB inserts/withdraws only
    Nat,     ///< NAT adds/removes only
    Session, ///< session flushes only
    All,     ///< everything (the default)
};

/** Human-readable mix name. */
std::string to_string(CtrlMix mix);

/** Parse a mix name; fatal()s listing the valid choices. */
CtrlMix mixFromString(const std::string &name);

/** One scheduled control-plane operation. */
struct CtrlEvent
{
    /** Apply before the packet with this sequence number begins. */
    std::uint64_t beforePacket = 0;

    CtrlEventKind kind = CtrlEventKind::FibInsert;

    /** Prefix / private IP, depending on kind. */
    std::uint32_t key = 0;

    /** FIB prefix length in bits (FibInsert/FibWithdraw). */
    std::uint8_t prefixLen = 0;

    /** Nexthop (FibInsert) or flush-window length (SessionFlush). */
    std::uint32_t value = 0;

    /** Event ordinal within the stream. */
    std::uint64_t seq = 0;
};

/** Control-plane stream knobs (sweep axes ctrl= / updates=). */
struct CtrlConfig
{
    /** Mean events per 1000 packets; 0 disables the stream. */
    std::uint32_t rate = 0;

    CtrlMix mix = CtrlMix::All;
};

/**
 * Streaming source of the control-plane schedule — the contract
 * parallel to traffic::PacketSource. peek() exposes the next pending
 * event; advance() consumes it. Events carry non-decreasing
 * beforePacket values, so a consumer drains with:
 *
 *   while (const CtrlEvent *ev = src.peek()) {
 *       if (ev->beforePacket > pkt.seq) break;
 *       app.applyCtrlEvent(proc, *ev);
 *       src.advance();
 *   }
 */
class CtrlSource
{
  public:
    virtual ~CtrlSource() = default;

    /** The next unconsumed event, or nullptr when exhausted. */
    virtual const CtrlEvent *peek() = 0;

    /** Consume the event peek() exposed. */
    virtual void advance() = 0;

    /**
     * An independent source at this one's position: it yields the same
     * remaining events, and advancing either leaves the other alone.
     */
    virtual std::unique_ptr<CtrlSource> clone() const = 0;
};

/**
 * Build the stream for one run. @p trace must be the run's resolved
 * trace config (resolveTraceConfig): its seed feeds the decorrelated
 * ctrl RNG and its pool/flow recipe supplies the event keys. Returns
 * nullptr when config.rate == 0 — the caller skips the interleave
 * entirely, keeping rate-0 runs bit-identical to pre-subsystem runs.
 */
std::unique_ptr<CtrlSource> makeCtrlSource(const CtrlConfig &config,
                                           const net::TraceConfig &trace);

} // namespace clumsy::ctrl

#endif // CLUMSY_CTRL_CTRL_HH
