/**
 * @file
 * Arbitration interface for a shared L2 port.
 *
 * A single-core hierarchy owns its L2 outright and never waits for it.
 * On a multi-engine chip (src/npu/) every processing engine funnels
 * its L1 misses, refills and bypass reads through one fixed-width L2
 * port, so an access can find the port busy with another engine's
 * transfer and must queue. How many transfers may overlap before that
 * happens is the arbiter's business (the chip's port keeps a pool of
 * miss-status holding registers; see npu::SharedL2Port). This
 * interface decouples the memory system from the chip model: the
 * hierarchy reports how many L2 port uses an access performed, the
 * processor asks the arbiter (when one is attached) how long those
 * uses had to wait, and the chip supplies the port model. With no
 * arbiter attached, behaviour is exactly the private-L2 single-core
 * model.
 */

#ifndef CLUMSY_MEM_L2_PORT_HH
#define CLUMSY_MEM_L2_PORT_HH

#include "common/types.hh"

namespace clumsy::mem
{

/**
 * One L2 line a memory access touched, reported alongside the access's
 * port-use counts. The arbiter needs line identity to model MSHR
 * merging on a *shared* L2: when engine B hits a line whose transfer
 * engine A started and which is still in flight at the port, B's
 * request folds into A's MSHR and waits for that transfer to end
 * rather than starting its own. `shareable` marks lines whose contents
 * other engines can legitimately consume (the shared-frame lines of
 * npu::SharedL2Cache); a private L2 backend marks nothing shareable,
 * so the arbiter's merge machinery never engages and private timing is
 * unchanged.
 *
 * No default member initializers: the struct stays trivial, so the
 * per-access record array in mem::Access is not zero-filled on every
 * load and store. Build one with all three fields.
 */
struct L2LineUse
{
    SimAddr base;   ///< L2 line base address
    bool miss;      ///< the use transferred the line from DRAM
    bool shareable; ///< other engines may hit this transfer
};

/** Contention model for a shared L2 access port. */
class L2PortArbiter
{
  public:
    virtual ~L2PortArbiter() = default;

    /**
     * Account one access's L2 port uses and return the queuing delay
     * they suffered, in quanta.
     *
     * @param requester  stable id of the requesting engine.
     * @param endTime    the requester's local time at the end of the
     *                   access, with every port use's service time
     *                   already included (the port-use window ends at
     *                   or before endTime).
     * @param l2Accesses number of L2 port uses in the access.
     * @param l2Misses   how many of those also transferred a line
     *                   from DRAM (longer port occupancy).
     * @param lines      the distinct line uses behind those counts
     *                   (may be fewer than l2Accesses when an access
     *                   re-touches a line; never more).
     * @param lineCount  entries in @p lines.
     * @return extra quanta the requester must stall; 0 when the port
     *         was free, which is always the case for a lone requester.
     */
    virtual Quanta requestPort(unsigned requester, Quanta endTime,
                               unsigned l2Accesses, unsigned l2Misses,
                               const L2LineUse *lines,
                               unsigned lineCount) = 0;
};

} // namespace clumsy::mem

#endif // CLUMSY_MEM_L2_PORT_HH
