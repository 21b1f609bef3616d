/**
 * @file
 * Long-lived application tables in simulated memory: the RouteTable
 * (route/drr/tl/url), the NAT binding table (nat) and the URL table
 * (url). Each is an array of fixed-size records reached via indices
 * stored in the shared radix tree, so a fault in either the radix
 * value or the record itself produces exactly the error classes the
 * paper measures ("RouteTable entry", "NAT table entry", ...).
 */

#ifndef CLUMSY_APPS_TABLES_HH
#define CLUMSY_APPS_TABLES_HH

#include <cstdint>
#include <vector>

#include "apps/radix_tree.hh"
#include "common/f14_table.hh"
#include "core/processor.hh"

namespace clumsy::apps
{

/**
 * IPv4 forwarding table: 16-byte entries {nextHop, iface, metric,
 * flags} indexed by the radix tree on destination address.
 */
class RouteTable
{
  public:
    static constexpr SimSize kEntryBytes = 16;
    static constexpr std::uint32_t kNumInterfaces = 8;

    /**
     * Build the table and radix index over a destination pool.
     *
     * Most of the table arrives by DMA (the control card installs
     * the FIB), keeping the simulated control plane short as in the
     * paper; the last `timedTail` routes are installed through the
     * timed, faulty path — the application's own control-plane code
     * and the fault surface for the paper's control-plane
     * experiments (Figure 6(a)).
     */
    RouteTable(core::ClumsyProcessor &proc,
               const std::vector<std::uint32_t> &destinations,
               std::uint32_t timedTail = 32);

    /** Deterministic next hop installed for a destination. */
    static std::uint32_t nextHopFor(std::uint32_t dst)
    {
        return dst ^ 0x01010101u;
    }

    /** Radix lookup: destination -> entry index (kNoMatch on miss). */
    std::uint32_t lookupIndex(core::ClumsyProcessor &proc,
                              std::uint32_t dst,
                              core::ValueRecorder *rec = nullptr,
                              const char *recKey = "") const;

    /** Simulated address of entry idx (unchecked; wild indices are
     *  caught by the processor's bounds machinery). */
    SimAddr entryAddr(std::uint32_t idx) const
    {
        return base_ + idx * kEntryBytes;
    }

    /** Timed load of an entry's next hop. */
    std::uint32_t loadNextHop(core::ClumsyProcessor &proc,
                              std::uint32_t idx) const;

    /** Timed load of an entry's output interface. */
    std::uint32_t loadIface(core::ClumsyProcessor &proc,
                            std::uint32_t idx) const;

    /** Untimed structural hash of up to maxEntries entries. */
    std::uint64_t auditChecksum(const core::ClumsyProcessor &proc,
                                unsigned maxEntries = 32) const;

    /**
     * Host-side ground truth: the index this destination was given at
     * build time (RadixTree::kNoMatch when never installed). Used by
     * the harness to audit exactly the entry a packet should use.
     */
    std::uint32_t goldenIndex(std::uint32_t dst) const;

    /** Untimed hash of one entry's four words (peek-based). */
    std::uint64_t auditEntry(const core::ClumsyProcessor &proc,
                             std::uint32_t idx) const;

    /** The radix index. */
    const RadixTree &radix() const { return radix_; }

    /** Number of entries. */
    std::uint32_t size() const { return count_; }

  private:
    RadixTree radix_;
    SimAddr base_ = 0;
    std::uint32_t count_ = 0;
    F14Table<std::uint32_t, std::uint32_t> index_;
};

/**
 * NAT binding table: bindings are created on demand by outbound
 * packets (classic NAPT behaviour). 16-byte entries
 * {privIp, pubIp, pubPort, iface}, radix-indexed by private source.
 */
class NatTable
{
  public:
    static constexpr SimSize kEntryBytes = 16;

    /** @param capacity maximum number of bindings. */
    NatTable(core::ClumsyProcessor &proc, std::uint32_t capacity);

    /** The binding radix tree (tests/inspection). */
    const RadixTree &radix() const { return radix_; }

    /**
     * Look up (or create) the binding for a private source address,
     * through timed accesses. @return the entry index, or
     * RadixTree::kNoMatch when the table is full.
     */
    std::uint32_t translate(core::ClumsyProcessor &proc,
                            std::uint32_t privIp,
                            core::ValueRecorder *rec = nullptr,
                            const char *recKey = "");

    /** The public address assigned to binding idx (deterministic). */
    static std::uint32_t publicIpFor(std::uint32_t idx)
    {
        return 0xc6336400u | (idx & 0xffu); // 198.51.100.x
    }

    /** Timed load of the binding's public address. */
    std::uint32_t loadPublicIp(core::ClumsyProcessor &proc,
                               std::uint32_t idx) const;

    /** Timed load of the binding's output interface. */
    std::uint32_t loadIface(core::ClumsyProcessor &proc,
                            std::uint32_t idx) const;

    /** Untimed structural hash of up to maxEntries bindings. */
    std::uint64_t auditChecksum(const core::ClumsyProcessor &proc,
                                unsigned maxEntries = 32) const;

    /** Current binding count (timed read of the counter cell). */
    std::uint32_t loadCount(core::ClumsyProcessor &proc) const;

    /**
     * Host-side ground-truth bookkeeping: tell the table a packet
     * with this (wire-truth) private source arrived. Must be fed the
     * Packet's own field, never a value loaded through the faulty
     * path, so golden and faulty runs assign identical indices.
     */
    void noteArrival(std::uint32_t privIp);

    /**
     * The index this private source *should* have, assigned in
     * first-seen order by noteArrival() (kNoMatch before the
     * source's first packet).
     */
    std::uint32_t goldenIndex(std::uint32_t privIp) const;

    /** Untimed hash of one binding's four words (peek-based). */
    std::uint64_t auditEntry(const core::ClumsyProcessor &proc,
                             std::uint32_t idx) const;

    /**
     * Control-plane rule removal (ctrl::CtrlEventKind::NatRemove):
     * tombstone the radix leaf with kNoMatch through the timed path —
     * a single-word in-place publish — and drop the host-side
     * binding. The source's next packet re-creates a fresh binding
     * under a new index, exactly like a real NAT whose mapping was
     * cleared.
     */
    void removeBinding(core::ClumsyProcessor &proc, std::uint32_t privIp);

  private:
    RadixTree radix_;
    SimAddr base_ = 0;
    SimAddr countAddr_ = 0;
    std::uint32_t capacity_ = 0;
    F14Table<std::uint32_t, std::uint32_t> index_;

    /**
     * Next golden index to assign. Monotone like the simulated
     * counter cell: removals shrink index_ but never recycle indices,
     * keeping host and simulated assignments aligned under churn.
     */
    std::uint32_t nextIdx_ = 0;
};

/**
 * URL switching table: records {strAddr, strLen, destIp, pad}; the
 * URL strings live in simulated memory and are matched byte-by-byte.
 */
class UrlTable
{
  public:
    static constexpr SimSize kEntryBytes = 16;

    /**
     * Build from a URL pool; each URL maps to a destination drawn
     * round-robin from the destination pool. All but the last
     * `timedTail` entries are installed via DMA (see RouteTable);
     * the tail is written through the timed path.
     */
    UrlTable(core::ClumsyProcessor &proc,
             const std::vector<std::string> &urls,
             const std::vector<std::uint32_t> &destinations,
             std::uint32_t timedTail = 8);

    /**
     * Match a URL staged at [urlAddr, urlAddr+urlLen) against the
     * table through timed byte loads. @return the matching entry
     * index or kNoMatch.
     */
    static constexpr std::uint32_t kNoMatch = 0xffffffffu;
    std::uint32_t match(core::ClumsyProcessor &proc, SimAddr urlAddr,
                        std::uint32_t urlLen) const;

    /** Timed load of entry idx's destination IP. */
    std::uint32_t loadDest(core::ClumsyProcessor &proc,
                           std::uint32_t idx) const;

    /** Untimed structural hash of up to maxEntries entries. */
    std::uint64_t auditChecksum(const core::ClumsyProcessor &proc,
                                unsigned maxEntries = 16) const;

    /** Untimed hash of one entry (record + string bytes, peeked). */
    std::uint64_t auditEntry(const core::ClumsyProcessor &proc,
                             std::uint32_t idx) const;

    /** Number of entries. */
    std::uint32_t size() const { return count_; }

  private:
    SimAddr base_ = 0;
    std::uint32_t count_ = 0;
};

/**
 * Bounded connection-tracking session table (the "session" workload):
 * an open-addressed hash table of 32-byte session records in simulated
 * memory, with timeout-driven eviction — the state machinery of a
 * stateful NAT / firewall. Layout per entry (word offsets):
 *   +0  source IP       +4  destination IP
 *   +8  srcPort<<16|dstPort   +12 proto<<16|occupied
 *   +16 assigned NAT port     +20 last-seen packet clock
 *   +24 session packet count  +28 session byte count
 * Lookups probe linearly over at most kMaxProbes slots, creating the
 * session on first sight, evicting in place when the incumbent's
 * last-seen clock has timed out, and dropping the packet when the
 * probe window is full of live strangers. A host-side mirror runs the
 * identical algorithm on wire-truth fields, giving golden slot
 * assignments that corrupted loads cannot skew.
 */
class SessionTable
{
  public:
    static constexpr SimSize kEntryBytes = 32;
    static constexpr std::uint32_t kNoSlot = 0xffffffffu;
    static constexpr std::uint32_t kMaxProbes = 64;

    /** The 5-tuple identifying a session. */
    struct FlowKey
    {
        std::uint32_t src = 0;
        std::uint32_t dst = 0;
        std::uint16_t srcPort = 0;
        std::uint16_t dstPort = 0;
        std::uint8_t proto = 0;
    };

    /** Outcome of one lookup (simulated or mirrored). */
    struct LookupResult
    {
        std::uint32_t slot = kNoSlot;
        bool created = false; ///< installed a fresh session
        bool evicted = false; ///< ... into a timed-out incumbent's slot
    };

    /**
     * @param capacity number of slots; @param timeoutPackets sessions
     * idle longer than this (in arrival-clock ticks) are evictable.
     */
    SessionTable(core::ClumsyProcessor &proc, std::uint32_t capacity,
                 std::uint32_t timeoutPackets);

    /**
     * Find or create the session for @p key at arrival clock @p now,
     * through timed accesses; probed slots are recorded under
     * @p recKey (the session analogue of "radix_node").
     */
    LookupResult lookup(core::ClumsyProcessor &proc, const FlowKey &key,
                        std::uint32_t now,
                        core::ValueRecorder *rec = nullptr,
                        const char *recKey = "");

    /** Charge one packet of @p bytes to the session (timed RMW). */
    void account(core::ClumsyProcessor &proc, std::uint32_t slot,
                 std::uint32_t bytes);

    /** Deterministic NAT port assigned to a slot's session. */
    static std::uint16_t natPortFor(std::uint32_t slot)
    {
        return static_cast<std::uint16_t>(10000u + slot % 50000u);
    }

    /** Deterministic public address for a slot (203.0.113.x). */
    static std::uint32_t publicIpFor(std::uint32_t slot)
    {
        return 0xcb007100u | (slot & 0xffu);
    }

    /** Timed load of the slot's assigned NAT port. */
    std::uint16_t loadNatPort(core::ClumsyProcessor &proc,
                              std::uint32_t slot) const;

    /** Timed load of the slot's packet counter. */
    std::uint32_t loadPktCount(core::ClumsyProcessor &proc,
                               std::uint32_t slot) const;

    /** Timed load of the slot's byte counter. */
    std::uint32_t loadByteCount(core::ClumsyProcessor &proc,
                                std::uint32_t slot) const;

    /** Untimed hash of one slot's eight words (peek-based). */
    std::uint64_t auditEntry(const core::ClumsyProcessor &proc,
                             std::uint32_t slot) const;

    /**
     * Host-side ground truth: run the identical lookup algorithm on
     * the packet's wire-truth key. Must be called exactly once per
     * packet, before the timed lookup, with fields taken from the
     * net::Packet itself.
     */
    LookupResult noteArrival(const FlowKey &key, std::uint32_t now);

    std::uint32_t capacity() const { return capacity_; }
    std::uint32_t timeoutPackets() const { return timeout_; }

    /** Mirror counters (ground truth for the divergence tests). */
    std::uint64_t hostCreated() const { return hostCreated_; }
    std::uint64_t hostEvicted() const { return hostEvicted_; }
    std::uint64_t hostDropped() const { return hostDropped_; }
    std::uint64_t hostFlushed() const { return hostFlushed_; }

    /**
     * Control-plane flush (ctrl::CtrlEventKind::SessionFlush): clear
     * the occupied bit of @p count slots starting at @p start through
     * timed read-modify-writes, mirrored host-side. @return the
     * number of live sessions flushed (host ground truth).
     */
    std::uint32_t flushWindow(core::ClumsyProcessor &proc,
                              std::uint32_t start, std::uint32_t count);

  private:
    SimAddr entryAddr(std::uint32_t slot) const
    {
        return base_ + slot * kEntryBytes;
    }

    std::uint32_t hashKey(const FlowKey &key) const;

    struct HostEntry
    {
        FlowKey key;
        std::uint32_t lastSeen = 0;
        bool used = false;
    };

    SimAddr base_ = 0;
    std::uint32_t capacity_ = 0;
    std::uint32_t timeout_ = 0;
    std::vector<HostEntry> mirror_;
    std::uint64_t hostCreated_ = 0;
    std::uint64_t hostEvicted_ = 0;
    std::uint64_t hostDropped_ = 0;
    std::uint64_t hostFlushed_ = 0;
};

} // namespace clumsy::apps

#endif // CLUMSY_APPS_TABLES_HH
