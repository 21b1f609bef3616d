/**
 * @file
 * A stackful coroutine on the calling thread: the line card runs each
 * chip as one so that chips waiting on each other cost a stack
 * switch, not a thread hand-off.
 *
 * On x86-64 a switch is a few instructions of assembly that save the
 * callee-saved registers (rbx, rbp, r12-r15), the stack pointer, MXCSR
 * and the x87 control word, and load the other side's: no signal
 * mask, so no syscall. A fresh fiber's stack is laid out as if it had
 * switched out once, with a return address into a trampoline that
 * calls the body — a return address no call ever pushed, so the
 * switch's translation unit is built without CET marking (see
 * src/CMakeLists.txt) and no binary linking it claims shadow-stack
 * compatibility. Other architectures use glibc's
 * makecontext/swapcontext.
 *
 * resume() switches from the caller into the fiber's body until the
 * body calls yield() or returns; yield() switches back. A fiber keeps
 * its own context and its resumer's and nothing else, so threads may
 * each drive their own fibers at the same time.
 *
 * The stack is mmap()ed with a PROT_NONE guard page below it and is
 * never pre-touched: a fiber costs memory only for the pages its body
 * reaches, and an overflow faults at the guard instead of corrupting
 * whatever lies below. A destroyed fiber hands its mapping, guard
 * page still PROT_NONE, to a per-thread free list, and the next fiber
 * made on that thread takes it from there, so a line card that runs
 * again makes no mmap, mprotect or munmap call. ASan and TSan are told
 * about every switch.
 */

#ifndef CLUMSY_COMMON_FIBER_HH
#define CLUMSY_COMMON_FIBER_HH

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#include <cstddef>
#include <cstdint>
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

    /**
     * Stack mappings made on the calling thread so far; a fiber that
     * reuses a released stack makes none.
     */
    static std::uint64_t stacksMapped();

  private:
    /**
     * First code on the fiber's stack: runs the body, then switches
     * out for good. An exception escaping the body terminates the
     * program.
     */
    static void start(Fiber *f) noexcept;

    /** Switch from the fiber back to its resumer. */
    void switchOut(bool final);

    /** Lowest address of the usable stack (above the guard page). */
    void *stackBottom() const;

    std::function<void()> body_;
    bool finished_ = false;

    void *map_ = nullptr; ///< guard page + stack
#if defined(__x86_64__)
    void *sp_ = nullptr;       ///< the fiber's stack pointer, switched out
    void *callerSp_ = nullptr; ///< the resumer's, while the fiber runs
#else
    /** makecontext entry; `this` arrives split into two ints. */
    static void entry(unsigned hi, unsigned lo) noexcept;

    ucontext_t self_{};
    ucontext_t caller_{};
#endif

    // Sanitizer bookkeeping (unused in plain builds).
    const void *callerStack_ = nullptr; ///< resumer's stack, for ASan
    std::size_t callerStackBytes_ = 0;
    void *tsanSelf_ = nullptr;
    void *tsanCaller_ = nullptr;
};

} // namespace clumsy

#endif // CLUMSY_COMMON_FIBER_HH
