/**
 * @file
 * FreeBSD-style radix (crit-bit / Patricia) routing table living
 * entirely in simulated memory.
 *
 * This is the lookup structure shared by tl, route, drr, nat and url,
 * corresponding to the BSD radix code NetBench's TL extracts. Nodes
 * are 20-byte simulated-memory records; every traversal step loads
 * the discriminating bit index and a child pointer through the timed,
 * faulty D-cache path, so an injected fault can send a lookup down
 * the wrong subtree (application error), into a cycle (fatal via loop
 * budget) or through a wild pointer (fatal via bounds check).
 *
 * Node layout (simulated addresses, 4-aligned):
 *   +0  bitIndex: 0..31 for internal nodes (bit counted from the
 *       MSB), kLeafMarker for leaves
 *   +4  left child  (bit == 0)   | +12 key   (leaf)
 *   +8  right child (bit == 1)   | +16 value (leaf)
 */

#ifndef CLUMSY_APPS_RADIX_TREE_HH
#define CLUMSY_APPS_RADIX_TREE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/processor.hh"

namespace clumsy::apps
{

/** Crit-bit routing table over 32-bit keys in simulated memory. */
class RadixTree
{
  public:
    /**
     * bitIndex value written for leaf nodes. Mirroring the BSD code
     * (rn_bit < 0 marks a leaf), any kind word with the sign bit set
     * is *treated* as a leaf: when a corrupted pointer walks the
     * lookup into junk memory, roughly half of all junk kind words
     * terminate the walk immediately — producing a wrong-result
     * application error rather than an endless traversal.
     */
    static constexpr std::uint32_t kLeafMarker = 0xffffffffu;

    /** @return true when a kind word denotes a leaf (sign bit). */
    static constexpr bool isLeaf(std::uint32_t kind)
    {
        return (kind & 0x80000000u) != 0;
    }

    /** lookup() result when no exact match exists. */
    static constexpr std::uint32_t kNoMatch = 0xffffffffu;

    /** Allocates the root-pointer cell in simulated memory. */
    explicit RadixTree(core::ClumsyProcessor &proc);

    /**
     * Insert (or update) key -> value through timed accesses. Faults
     * during control-plane insertion corrupt the tree being built —
     * the paper's "nonvolatile" error class.
     */
    void insert(core::ClumsyProcessor &proc, std::uint32_t key,
                std::uint32_t value);

    /**
     * Bulk-install a key set via DMA (the tree must be empty).
     *
     * Models how network processors actually receive their FIB: the
     * control card computes the table and writes it into the data
     * processor's memory over DMA, generating no D-cache traffic.
     * This keeps the simulated control plane short — the paper notes
     * its control planes are much shorter than the data planes —
     * while the installed working set stays large. The tree is built
     * host-side with the same crit-bit algorithm insert() uses.
     */
    void bulkInstall(core::ClumsyProcessor &proc,
                     const std::vector<std::uint32_t> &keys,
                     const std::vector<std::uint32_t> &values);

    /**
     * Exact-match lookup through timed accesses.
     *
     * @param rec    when non-null, each traversed node address is
     *               recorded under recKey (the paper's "radix tree
     *               entries traversed" marked value).
     * @return the stored value, or kNoMatch.
     */
    std::uint32_t lookup(core::ClumsyProcessor &proc, std::uint32_t key,
                         core::ValueRecorder *rec = nullptr,
                         const char *recKey = "") const;

    /** Simulated address of the root pointer cell. */
    SimAddr rootPtrAddr() const { return rootPtr_; }

    /** Nodes allocated so far (host-side bookkeeping). */
    std::uint32_t nodeCount() const { return nodes_; }

    /**
     * Untimed structural hash of up to maxNodes tree nodes (BFS from
     * the root, via peeks). Used as the "initialization error" marked
     * value: it changes iff the built structure was corrupted.
     */
    std::uint64_t auditChecksum(const core::ClumsyProcessor &proc,
                                unsigned maxNodes = 64) const;

  private:
    SimAddr rootPtr_ = 0;
    std::uint32_t nodes_ = 0;

    SimAddr newLeaf(core::ClumsyProcessor &proc, std::uint32_t key,
                    std::uint32_t value);
};

} // namespace clumsy::apps

#endif // CLUMSY_APPS_RADIX_TREE_HH
