/**
 * @file
 * A stackful coroutine on the calling thread, built on glibc's
 * makecontext/swapcontext: the line card runs each chip as one so
 * that chips waiting on each other cost a stack switch, not a thread
 * hand-off.
 *
 * resume() switches from the caller into the fiber's body until the
 * body calls yield() or returns; yield() switches back. A fiber keeps
 * its own context and its resumer's and nothing else, so threads may
 * each drive their own fibers at the same time.
 *
 * The stack is mmap()ed with a PROT_NONE guard page below it and is
 * never pre-touched: a fiber costs memory only for the pages its body
 * reaches, and an overflow faults at the guard instead of corrupting
 * whatever lies below. ASan and TSan are told about every switch.
 */

#ifndef CLUMSY_COMMON_FIBER_HH
#define CLUMSY_COMMON_FIBER_HH

#include <ucontext.h>

#include <cstddef>
#include <functional>

namespace clumsy
{

/** One stackful coroutine (see file doc). */
class Fiber
{
  public:
    /**
     * Usable stack per fiber. A line-card chip peaks at ~10 KiB in an
     * optimized build and ~19 KiB in a Debug ASan build; untouched
     * pages cost nothing, so the reservation is generous.
     */
    static constexpr std::size_t kStackBytes = 256 * 1024;

    /** Prepare @p body to run on a fresh stack; nothing runs yet. */
    explicit Fiber(std::function<void()> body);
    ~Fiber();

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;

    /**
     * Run the body until it yields or returns. Must not be called on a
     * finished fiber or from inside this fiber.
     */
    void resume();

    /** From inside the body: switch back to resume()'s caller. */
    void yield();

    /** Has the body returned? */
    bool finished() const { return finished_; }

  private:
    /**
     * makecontext trampoline; `this` arrives split into two ints. An
     * exception escaping the body terminates the program.
     */
    static void entry(unsigned hi, unsigned lo) noexcept;

    /** Switch from the fiber back to its resumer. */
    void switchOut(bool final);

    std::function<void()> body_;
    bool finished_ = false;

    void *map_ = nullptr;       ///< guard page + stack
    std::size_t mapBytes_ = 0;
    ucontext_t self_{};
    ucontext_t caller_{};

    // Sanitizer bookkeeping (unused in plain builds).
    const void *callerStack_ = nullptr; ///< resumer's stack, for ASan
    std::size_t callerStackBytes_ = 0;
    void *tsanSelf_ = nullptr;
    void *tsanCaller_ = nullptr;
};

} // namespace clumsy

#endif // CLUMSY_COMMON_FIBER_HH
