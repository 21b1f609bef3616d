/**
 * @file
 * RCU-style epoch/grace-period reclamation for simulated-memory
 * structures updated while the data plane is forwarding.
 *
 * The simulator's bump allocator (mem/alloc.hh) never frees, so a
 * structure that is rebuilt on every control-plane update would leak
 * simulated memory until the arena ran out. RcuDomain gives updaters
 * the classic read-copy-update lifecycle instead:
 *
 *   1. build   — new nodes are written in fresh (or *reclaimed*)
 *                simulated memory while readers still traverse the old
 *                version;
 *   2. publish — a single root-pointer store makes the new version
 *                visible; readers never observe a half-applied update;
 *   3. retire  — the replaced blocks enter the current epoch's retire
 *                list;
 *   4. reclaim — after a grace period (two quiescent points: every
 *                reader that could hold a reference to the old version
 *                has passed a packet boundary) the blocks move to
 *                size-keyed free lists and may be handed out again.
 *
 * The domain is pure host-side bookkeeping over simulated addresses:
 * it never touches the processor, so golden and faulty runs make
 * identical reclamation decisions and the chip stays byte-identical at
 * every --chip-jobs value. Reuse order is LIFO per size class, which
 * is deterministic given a deterministic update schedule.
 *
 * The steady state allocates nothing: quiesce() rotates the two epoch
 * lists by swapping them (both keep their capacity), and the free
 * lists, one per block size in a vector indexed by the size (blocks
 * are at most 64 bytes), only grow to their high-water mark.
 */

#ifndef CLUMSY_CTRL_RCU_HH
#define CLUMSY_CTRL_RCU_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace clumsy::ctrl
{

/** Epoch-based reclamation domain for one updatable structure. */
class RcuDomain
{
  public:
    /**
     * Take a reclaimed block of exactly @p size bytes off the free
     * list, or return 0 when none is available (the caller then
     * bump-allocates fresh simulated memory).
     */
    SimAddr takeFree(SimSize size);

    /**
     * Retire a block that was just unlinked by a publish. It becomes
     * reusable only after two quiesce() calls — the grace period.
     */
    void retire(SimAddr addr, SimSize size);

    /**
     * A quiescent point: every reader that started before this call
     * has finished (the harnesses sit at a packet boundary). Advances
     * the epoch and reclaims blocks retired two epochs ago.
     */
    void quiesce();

    /**
     * @return true when @p addr currently sits on a free list — a
     * reader dereferencing such an address has violated the grace
     * period (the invariant the epoch tests assert never happens).
     * A scan of every free list: for tests, not the packet path.
     */
    bool isReclaimed(SimAddr addr) const;

    /** Blocks retired so far (lifetime counter). */
    std::uint64_t retired() const { return retired_; }

    /** Blocks that completed their grace period. */
    std::uint64_t reclaimed() const { return reclaimed_; }

    /** Reclaimed blocks handed back out by takeFree(). */
    std::uint64_t reused() const { return reused_; }

    /** Quiescent points passed. */
    std::uint64_t epoch() const { return epoch_; }

    /** Blocks currently waiting out their grace period. */
    std::size_t inGrace() const
    {
        return retiredCurr_.size() + retiredPrev_.size();
    }

  private:
    struct Block
    {
        SimAddr addr = 0;
        SimSize size = 0;
    };

    std::vector<Block> retiredCurr_; ///< retired this epoch
    std::vector<Block> retiredPrev_; ///< retired last epoch
    /** LIFO free list per block size, indexed by the size in bytes. */
    std::vector<std::vector<SimAddr>> free_;
    /** quiesce()'s per-size block counts (zero between calls). */
    std::vector<std::size_t> incoming_;
    std::uint64_t epoch_ = 0;
    std::uint64_t retired_ = 0;
    std::uint64_t reclaimed_ = 0;
    std::uint64_t reused_ = 0;
};

} // namespace clumsy::ctrl

#endif // CLUMSY_CTRL_RCU_HH
