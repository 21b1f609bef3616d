/**
 * @file
 * The card-wide DRAM fabric: one analytical dram::DramModel shared by
 * every chip on the line card, and the scheduler that runs the chips
 * so they touch the model in one deterministic global order.
 *
 * Determinism contract. Every DRAM request is committed at a point
 * p = max(request time, the chip's previous commit point), and the
 * fabric admits commits in strictly increasing (p, chip index) order:
 * a chip may apply its access only once every other unfinished chip's
 * published bound lies strictly above p — or at p with a larger chip
 * index. Published bounds are monotone lower bounds on each chip's
 * future request times (the chip step loop publishes the minimum
 * alive-engine data time every step, and any request an engine issues
 * mid-packet is at or after the time its packet started), so the
 * admitted order is a total order fixed by the commits themselves:
 * the DramModel's bank state evolves identically however the chips
 * are scheduled, which is the whole byte-identity argument.
 *
 * Scheduling. Every chip runs as a Fiber on the calling thread. A
 * chip whose commit is not yet next parks (switches back to the
 * scheduler) instead of blocking a thread; the scheduler then resumes
 * the unfinished chip with the smallest (bound, chip). That chip is
 * unstarted, parked on the card stream (linecard/stream.hh), or
 * parked at a commit point equal to its bound, and a parked chip
 * holding the smallest (bound, chip) is exactly a chip whose commit is
 * next, so every pick makes progress and the fabric cannot deadlock.
 *
 * Stream hand-offs. A chip drawing the card stream that fills another
 * chip's FIFO hands the thread to that chip (handOff()) when it holds
 * no DRAM request — it is unstarted or itself parked on the stream —
 * so the FIFO drains instead of growing. A hand-off never resumes a
 * chip parked inside request(): commits stay in (p, chip) order
 * whoever runs. With the DRAM model off no chip ever requests, so the
 * chips run in hand-off order and every FIFO stays within its bound.
 */

#ifndef CLUMSY_LINECARD_FABRIC_HH
#define CLUMSY_LINECARD_FABRIC_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/fiber.hh"
#include "common/types.hh"
#include "dram/dram.hh"

namespace clumsy::linecard
{

/** The shared DRAM model plus the chip scheduler (see file doc). */
class DramFabric
{
  public:
    /**
     * @param config     bank model behind every chip's L2 (banks = 0:
     *                   model off; chips then never request).
     * @param chips      chips on the card (one fiber each).
     * @param flatQuanta the flat DRAM penalty already inside every
     *                   L2 miss's latency (the row-hit time), which
     *                   request() subtracts so its return value is
     *                   pure extra stall.
     */
    DramFabric(const dram::DramConfig &config, unsigned chips,
               Quanta flatQuanta);

    /**
     * Run @p chipBody(c) for every chip c to completion, each on its
     * own fiber on the calling thread, in (bound, chip) order.
     */
    void run(const std::function<void(unsigned)> &chipBody);

    /**
     * Raise @p chip's published bound: a monotone lower bound (chip
     * quanta) on the time of any DRAM request it can still make.
     * Calls with a bound at or below the current one are no-ops.
     */
    void publish(unsigned chip, Quanta bound)
    {
        if (bound > bound_[chip])
            bound_[chip] = bound;
    }

    /**
     * Commit one DRAM line transfer for @p chip at
     * p = max(@p reqTime, the chip's previous commit point), parking
     * the chip until the commit is globally next in (p, chip) order.
     * Returns the stall beyond the flat penalty: completion - reqTime
     * - flatQuanta, always >= 0 because the model's cheapest access
     * is the row hit the flat penalty equals. Only a chip body inside
     * run() may call this, for its own chip.
     */
    Quanta request(unsigned chip, std::uint64_t addr, Quanta reqTime);

    /**
     * Chip @p from, running, has filled chip @p to's stream FIFO. If
     * @p to holds no DRAM request (unstarted, or parked on the stream
     * itself), park @p from on the stream, run @p to next, and return
     * once @p from is resumed; else return at once (the FIFO grows).
     */
    void handOff(unsigned from, unsigned to);

    /** The shared model (DRAM on; stable once run() returns). */
    const dram::DramModel &model() const { return *model_; }

  private:
    enum class ChipState : char
    {
        Unstarted,
        Running,
        Parked,       ///< inside request(), waiting for its commit turn
        StreamParked, ///< inside handOff(), runnable at any time
        Done,
    };

    /** The unfinished chip with the smallest (bound, chip), or chips. */
    unsigned pick() const;

    /** Is @p chip's commit at @p p globally next? */
    bool safe(unsigned chip, Quanta p) const;

    std::optional<dram::DramModel> model_;
    Quanta flat_;

    std::vector<Quanta> bound_;      ///< published lower bounds
    std::vector<Quanta> lastCommit_; ///< per-chip last commit point
    std::vector<ChipState> state_;
    unsigned handOffTo_; ///< the chip handOff() named, else chips
    std::vector<std::unique_ptr<Fiber>> fibers_; ///< live during run()
};

/** One chip's handle on the fabric, behind the DramGateway seam. */
class ChipDramPort final : public dram::DramGateway
{
  public:
    ChipDramPort(DramFabric &fabric, unsigned chip)
        : fabric_(fabric), chip_(chip)
    {
    }

    Quanta request(std::uint64_t addr, Quanta reqTime) override
    {
        return fabric_.request(chip_, addr, reqTime);
    }

  private:
    DramFabric &fabric_;
    unsigned chip_;
};

} // namespace clumsy::linecard

#endif // CLUMSY_LINECARD_FABRIC_HH
