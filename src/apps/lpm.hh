/**
 * @file
 * lpm: longest-prefix-match forwarding over a tree-bitmap FIB
 * (Eatherton/Dittia-style multibit trie, stride 4) living entirely in
 * simulated, faultable memory — the 10th workload.
 *
 * Unlike route's exact-match radix table, the FIB here is updated
 * *while the data plane forwards*: control-plane FibInsert/FibWithdraw
 * events (src/ctrl/) rebuild the root-to-leaf path read-copy-update
 * style — new nodes are written in faultable memory, made visible by
 * a single root-pointer store, and the replaced nodes are reclaimed
 * through ctrl::RcuDomain only after a grace period. The update path
 * is the interesting fault surface: a bit-flip during the path copy
 * publishes a corrupted subtree that every later packet routed
 * through it will observe.
 *
 * Node layout (16 bytes, 4-aligned):
 *   +0  bitmaps: internalBitmap(15) << 16 | externalBitmap(16)
 *   +4  childBase  — popcount-packed array of child node addresses
 *   +8  resultBase — popcount-packed array of nexthop words
 *   +12 tag: 0x1b700000 | node ordinal (audit canary)
 *
 * The internal bitmap indexes prefixes of length 0..3 within the
 * node's stride: a prefix with r remaining bits of value v occupies
 * bit (1<<r)-1+v, exactly the classic tree-bitmap numbering.
 *
 * Marked values: "checksum", "ttl", the traversed "lpm_node" bitmap
 * words, the final "lpm_nexthop", and "initialization" (untimed audit
 * of the path the destination should take).
 */

#ifndef CLUMSY_APPS_LPM_HH
#define CLUMSY_APPS_LPM_HH

#include <array>
#include <cstdint>
#include <memory>

#include "apps/app.hh"
#include "common/f14_table.hh"
#include "ctrl/ctrl.hh"
#include "ctrl/rcu.hh"

namespace clumsy::apps
{

/** Tree-bitmap FIB in simulated memory with RCU-disciplined updates. */
class LpmFib
{
  public:
    static constexpr std::uint32_t kNoMatch = 0xffffffffu;
    static constexpr SimSize kNodeBytes = 16;
    static constexpr unsigned kStride = 4;
    static constexpr unsigned kMaxDepth = 32 / kStride;

    /** Allocates the root-pointer cell (FIB starts empty). */
    explicit LpmFib(core::ClumsyProcessor &proc);

    /**
     * Insert (or update) prefix -> nexthop through timed accesses:
     * path-copy from the root, single-store publish, retire of the
     * replaced nodes into the RCU domain.
     */
    void insert(core::ClumsyProcessor &proc, std::uint32_t prefix,
                std::uint8_t len, std::uint32_t nexthop);

    /**
     * Install the lpm workload's boot table (the first 96 addresses
     * of its destination pool) over DMA: untimed, unfaultable stores,
     * per the DMA-installed-FIB convention (DESIGN §4b.3) — the
     * control card ships the boot table; only *runtime* updates run
     * through the timed faulty path. Keeps a rare boot-build fault
     * from flagging every packet of a trial.
     *
     * The table is the same in every engine, so the first clean build
     * is stored once per process and every later boot whose key
     * matches (same root-cell address, the allocator ending right
     * after it, a root value of 0, no fatal raised and enough arena
     * for the image) installs the stored image and host state with
     * one alloc and one dmaWrite. Any other boot runs buildBoot().
     */
    void boot(core::ClumsyProcessor &proc);

    /**
     * The boot builder boot() falls back to: runs the unchanged
     * insert() path for every boot prefix against a host image of
     * simulated memory that starts at the root cell (a word not yet
     * written reads through peek32()), then installs the words it
     * wrote with one dmaWrite. A clean build (see boot()) publishes
     * its result as the process-wide boot image.
     */
    void buildBoot(core::ClumsyProcessor &proc);

    /**
     * Withdraw a prefix (same RCU path-copy discipline; empty nodes
     * are pruned bottom-up). A prefix the timed walk cannot find is a
     * no-op — in a faulty run that decision itself can be skewed by a
     * corrupted load, which is the point.
     */
    void withdraw(core::ClumsyProcessor &proc, std::uint32_t prefix,
                  std::uint8_t len);

    /**
     * Longest-prefix match through timed accesses. Traversed node
     * bitmap words are recorded under @p recKey.
     * @return the nexthop, or kNoMatch.
     */
    std::uint32_t lookup(core::ClumsyProcessor &proc, std::uint32_t dst,
                         core::ValueRecorder *rec = nullptr,
                         const char *recKey = "");

    /** Host-side ground-truth LPM over the mirrored prefix set. */
    std::uint32_t goldenLookup(std::uint32_t dst) const;

    /**
     * Untimed audit hash over the node path @p dst traverses (the
     * "initialization error" marked value: it changes iff the
     * structure this packet depends on was corrupted). A pointer that
     * leaves simulated memory mixes a marker; one whose address wraps
     * past the end raises the run's wild-pointer fatal
     * (ClumsyProcessor::hostRead32).
     */
    std::uint64_t auditPath(core::ClumsyProcessor &proc,
                            std::uint32_t dst) const;

    /** Untimed structural hash of up to maxNodes nodes (BFS). */
    std::uint64_t auditChecksum(core::ClumsyProcessor &proc,
                                unsigned maxNodes = 64) const;

    /** The reclamation domain (tests/inspection). */
    const ctrl::RcuDomain &rcu() const { return rcu_; }

    /** One reader quiescent point (called per completed packet). */
    void quiesce() { rcu_.quiesce(); }

    /** Host-side prefix count. */
    std::size_t prefixCount() const { return prefixes_; }

    /** Nodes allocated so far (fresh + reused). */
    std::uint64_t nodeCount() const { return nodes_; }

    /** Simulated address of the root pointer cell. */
    SimAddr rootPtrAddr() const { return rootPtr_; }

  private:
    /** A decoded node header read through the timed path. */
    struct NodeView
    {
        std::uint32_t ext = 0;   ///< external (child) bitmap
        std::uint32_t intb = 0;  ///< internal (prefix) bitmap
        SimAddr childBase = 0;
        SimAddr resultBase = 0;
    };

    static std::uint32_t nibbleAt(std::uint32_t key, unsigned depth)
    {
        return (key >> (28 - kStride * depth)) & 0xfu;
    }

    /** Tree-bitmap internal index for r remaining bits of value v. */
    static std::uint32_t intIndex(unsigned r, std::uint32_t v)
    {
        return (1u << r) - 1 + v;
    }

    NodeView readNode(core::ClumsyProcessor &proc, SimAddr addr) const;

    /** Host image of simulated memory written by buildBoot(). */
    struct HostImage;

    /**
     * Update-path memory primitives: timed faulty accesses normally,
     * the untimed host image during buildBoot(). The lookup path
     * never switches — it is always timed.
     */
    std::uint32_t ld32(core::ClumsyProcessor &proc, SimAddr addr) const;
    void st32(core::ClumsyProcessor &proc, SimAddr addr,
              std::uint32_t value) const;
    void exec(core::ClumsyProcessor &proc, unsigned ops) const;

    /** Reclaimed-or-fresh block allocation (see ctrl::RcuDomain). */
    SimAddr allocBlock(core::ClumsyProcessor &proc, SimSize size);

    /**
     * Rebuild one node with new bitmaps/arrays; returns the new node
     * address. Copies the surviving child/result words from the old
     * node through timed loads and retires the old blocks.
     */
    SimAddr rebuildNode(core::ClumsyProcessor &proc, SimAddr oldAddr,
                        const NodeView &oldView, std::uint32_t newExt,
                        std::uint32_t newInt, std::uint32_t replaceNib,
                        SimAddr replaceChild, int resultIdx,
                        std::uint32_t nexthop);

    SimAddr rootPtr_ = 0;
    HostImage *image_ = nullptr; ///< buildBoot() in flight
    ctrl::RcuDomain rcu_;
    std::uint64_t nodes_ = 0;
    std::size_t prefixes_ = 0;

    /** Host mirror: per-length prefix -> nexthop maps. */
    std::array<F14Table<std::uint32_t, std::uint32_t>, 33> mirror_;
};

/** The lpm workload. */
class LpmApp : public BaseApp
{
  public:
    std::string name() const override { return "lpm"; }

    net::TraceConfig traceConfig() const override;

    void initialize(ClumsyProcessor &proc) override;

    void processPacket(ClumsyProcessor &proc, const net::Packet &pkt,
                       ValueRecorder &rec) override;

    bool applyCtrlEvent(ClumsyProcessor &proc,
                        const ctrl::CtrlEvent &event) override;

    /** The FIB (tests/inspection). */
    LpmFib &fib() { return *fib_; }

  protected:
    /** Boot the FIB (LpmFib::boot(); tests force the builder). */
    virtual void bootFib(ClumsyProcessor &proc) { fib_->boot(proc); }

  private:
    std::unique_ptr<LpmFib> fib_;
};

} // namespace clumsy::apps

#endif // CLUMSY_APPS_LPM_HH
