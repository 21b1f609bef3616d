/**
 * @file
 * Configuration of the multi-engine network-processor chip model.
 *
 * The paper evaluates one clumsy processor; real packet processors
 * (IXP-class NPUs) replicate the engine N times behind a shared
 * second-level cache. NpuConfig describes that chip: how many
 * processing engines, how arriving packets are spread across them, how
 * deep the per-engine input queues are and what happens when they
 * fill, and the width of the shared L2 port every engine's misses
 * funnel through.
 */

#ifndef CLUMSY_NPU_CONFIG_HH
#define CLUMSY_NPU_CONFIG_HH

#include <string>
#include <vector>

#include "common/types.hh"
#include "mem/hierarchy.hh"

namespace clumsy::npu
{

/** How the dispatcher assigns arriving packets to engines. */
enum class DispatchPolicy
{
    /** Next alive engine in cyclic order. */
    RoundRobin,
    /**
     * Hash of the packet's 5-tuple: every packet of a flow lands on
     * the same engine, so flow state (NAT bindings, DRR deficits)
     * stays engine-local without sharing.
     */
    FlowHash,
    /** Alive engine with the fewest queued packets (ties: lowest id). */
    ShortestQueue,
};

/** Human-readable policy name ("rr", "flow", "shortest"). */
std::string to_string(DispatchPolicy policy);

/** Parse a policy name; fatal()s on an unknown one. */
DispatchPolicy dispatchFromString(const std::string &name);

/** How the chip drives each engine's frequency controller. */
enum class DvsMode
{
    /**
     * Engines are frozen at their launch Cr for the whole run, even
     * when the experiment asked for dynamic frequency (the ablation
     * baseline the adaptive modes are measured against).
     */
    Static,
    /**
     * The paper's per-engine fault-feedback controller, exactly as
     * the single-core harness runs it: each engine closes its own
     * epochs on its own packet count, adapting on fault feedback
     * alone iff the experiment's operating point is dynamic. The
     * default — a one-engine chip stays bit-identical to clumsy_sim.
     */
    Fault,
    /**
     * Per-PE DVS: every engine runs a queue-biased controller and
     * the chip closes epochs for all engines together (chip-level
     * epochs, every epochPackets completed packets), feeding each
     * decision the engine's own mean input-queue pressure. Busy
     * engines clock up toward the fault wall; idle engines back off.
     */
    Queue,
};

/** Human-readable mode name ("static", "fault", "queue"). */
std::string to_string(DvsMode mode);

/** Parse a dvs mode name; fatal()s on an unknown one. */
DvsMode dvsFromString(const std::string &name);

/** What the engines' L2 operations resolve against. */
enum class L2Mode
{
    /**
     * Each engine owns a private L2 array; only the port (timing) is
     * shared. The original chip model, and the default.
     */
    Private,
    /**
     * One L2 array shared by every engine (npu::SharedL2Cache):
     * engine A's refill can hit for engine B, engines evict each
     * other's lines, and concurrent misses on the same shared line
     * merge at the port's MSHRs. Values are provably unchanged from
     * private mode; only hit/miss patterns and port timing move.
     */
    Shared,
};

/** Human-readable mode name ("private", "shared"). */
std::string to_string(L2Mode mode);

/** Parse an L2 mode name; fatal()s on an unknown one. */
L2Mode l2ModeFromString(const std::string &name);

/** Static configuration of one chip. */
struct NpuConfig
{
    /** Number of processing engines. */
    unsigned peCount = 1;

    DispatchPolicy dispatch = DispatchPolicy::RoundRobin;

    /** Per-engine input queue capacity, packets. */
    unsigned queueCapacity = 16;

    /**
     * Queue-full behaviour: true drops the arriving packet (counted);
     * false (default) backpressures — the arrival stalls and engines
     * keep draining until the chosen queue has room.
     */
    bool dropWhenFull = false;

    /**
     * Inter-arrival gap of the offered load, in base cycles per
     * packet (packet s arrives at chip time s*gap). 0 = saturated
     * input: every packet is available immediately.
     */
    std::int64_t arrivalGapCycles = 0;

    /**
     * Chip ingress FIFO capacity, packets. Arrivals that are due
     * while the FIFO's head is backpressured pile up in the FIFO;
     * once it is full, further due arrivals are dropped at the chip
     * edge (ChipMetrics::ingressDrops). 0 (the default) = unbounded
     * ingress, the historical stall-the-wire behaviour, byte-identical
     * to the pre-ingress model. The line card sets this per chip.
     */
    unsigned ingressCapacity = 0;

    /**
     * Per-engine relative cycle time overrides (a heterogeneous chip:
     * some engines clocked clumsier than others). Empty = uniform,
     * every engine runs the experiment's Cr. When non-empty the size
     * must equal peCount.
     */
    std::vector<double> perPeCr;

    /**
     * Shared-L2 port service times, in base cycles per port use. Must
     * not exceed the corresponding embedded L2 latencies
     * (HierarchyConfig::l2HitCycles, +memCycles for misses): the port
     * transfer overlaps the access's own L2 time, so a lone engine
     * never queues and a one-engine chip reproduces the single-core
     * model exactly.
     */
    std::int64_t portHitCycles = 4;
    std::int64_t portMissCycles = 16;

    /**
     * Miss-status holding registers on the shared L2 port: up to this
     * many transfers may be in flight at once before the port
     * serializes. 1 reproduces the fully-serialized FIFO exactly.
     */
    unsigned mshrs = 1;

    /** Per-engine frequency adaptation mode. */
    DvsMode dvs = DvsMode::Fault;

    /** L2 contents model: private per engine, or genuinely shared. */
    L2Mode l2 = L2Mode::Private;

    /**
     * FlowHash only: when a flow's pinned engine dies, rehash the flow
     * onto the first alive engine probed from its hash instead of
     * dropping its packets. Off by default — pinned flows dropping
     * with their engine is the original model's semantics.
     */
    bool flowRehash = false;

    /**
     * Worker threads one chip experiment may use for horizon-stepped
     * parallelism: engine bring-up to the first-arrival horizon,
     * shared-store diffing, and fan-out of independent faulty trials.
     * Results are byte-identical for every value — parallel sections
     * write per-index slots and every cross-engine interaction is
     * applied at a barrier in engine order (DESIGN.md). 1 = fully
     * serial (the default); 0 = this machine's hardware default.
     */
    unsigned chipJobs = 1;

    /** Modeled core clock (SA-110 class), for packets/sec figures. */
    double clockMhz = 233.0;

    /** Sanity-check against the hierarchy the engines will use. */
    void validate(const mem::HierarchyConfig &hier) const;
};

} // namespace clumsy::npu

#endif // CLUMSY_NPU_CONFIG_HH
