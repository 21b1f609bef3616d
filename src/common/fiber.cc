#include "common/fiber.hh"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hh"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace clumsy
{

namespace
{

/** Bytes of one stack mapping: the guard page and the stack. */
std::size_t
mapBytes()
{
    static const std::size_t bytes =
        static_cast<std::size_t>(sysconf(_SC_PAGESIZE)) +
        Fiber::kStackBytes;
    return bytes;
}

/**
 * This thread's guarded stack mappings: how many it has made, and the
 * ones its fibers have released, which the next fiber takes instead
 * of mapping its own. The mappings are unmapped when the thread ends.
 */
struct StackPool
{
    std::vector<void *> free;
    std::uint64_t mapped = 0;

    ~StackPool()
    {
        for (void *map : free)
            munmap(map, mapBytes());
    }
};

thread_local StackPool tStacks;

// ASan keeps per-stack state (shadow bounds, fake frames): it must be
// told which stack is about to run before a switch (start) and which
// one was left once the new one runs (finish). TSan keeps one
// happens-before context per fiber and must be told which one runs
// next, immediately before the switch.

void
asanStart(void **fakeStack, const void *bottom, std::size_t bytes)
{
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_start_switch_fiber(fakeStack, bottom, bytes);
#else
    (void)fakeStack;
    (void)bottom;
    (void)bytes;
#endif
}

void
asanFinish(void *fakeStack, const void **bottom, std::size_t *bytes)
{
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(fakeStack, bottom, bytes);
#else
    (void)fakeStack;
    (void)bottom;
    (void)bytes;
#endif
}

void *
tsanCurrent()
{
#if defined(__SANITIZE_THREAD__)
    return __tsan_get_current_fiber();
#else
    return nullptr;
#endif
}

void
tsanSwitch(void *fiber)
{
#if defined(__SANITIZE_THREAD__)
    __tsan_switch_to_fiber(fiber, 0);
#else
    (void)fiber;
#endif
}

} // namespace

#if defined(__x86_64__)

// clumsy_fiber_switch(saveSp, loadSp): push the callee-saved state
// onto the current stack, store the stack pointer to *saveSp, load
// loadSp and pop the state saved there. Everything else is
// caller-saved in the SysV ABI, so the C++ caller has already spilled
// it. The control words travel in one 8-byte slot: MXCSR at +0, the
// x87 control word at +4.
//
// clumsy_fiber_trampoline is where a fresh fiber's first switch
// returns to: its frame (Fiber::Fiber) holds the Fiber in r12 and
// Fiber::start in r13, and the stack pointer is 16-byte aligned, as
// it is just before a call.
extern "C" void clumsy_fiber_switch(void **saveSp, void *loadSp);
extern "C" void clumsy_fiber_trampoline();

asm(R"(
    .pushsection .text
    .p2align 4
    .globl clumsy_fiber_switch
    .hidden clumsy_fiber_switch
    .type clumsy_fiber_switch, @function
clumsy_fiber_switch:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq $8, %rsp
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
    .size clumsy_fiber_switch, .-clumsy_fiber_switch

    .p2align 4
    .globl clumsy_fiber_trampoline
    .hidden clumsy_fiber_trampoline
    .type clumsy_fiber_trampoline, @function
clumsy_fiber_trampoline:
    movq %r12, %rdi
    callq *%r13
    ud2
    .size clumsy_fiber_trampoline, .-clumsy_fiber_trampoline
    .popsection
)");

#endif

Fiber::Fiber(std::function<void()> body) : body_(std::move(body))
{
    if (!tStacks.free.empty()) {
        map_ = tStacks.free.back();
        tStacks.free.pop_back();
#if defined(__SANITIZE_ADDRESS__)
        // Frames of the last body that never returned (its final
        // switch out) may have left poisoned redzones behind.
        ASAN_UNPOISON_MEMORY_REGION(stackBottom(), kStackBytes);
#endif
    } else {
        map_ = mmap(nullptr, mapBytes(), PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (map_ == MAP_FAILED)
            fatal("cannot map a %zu-byte fiber stack", mapBytes());
        // The stack grows down, so the guard is the lowest page.
        CLUMSY_ASSERT(
            mprotect(map_, mapBytes() - kStackBytes, PROT_NONE) == 0,
            "cannot protect a fiber stack's guard page");
        ++tStacks.mapped;
    }

#if defined(__x86_64__)
    // The frame clumsy_fiber_switch pops on the first resume, lowest
    // address first: control words, r15, r14, r13, r12, rbx, rbp and
    // the return address. The fiber inherits this thread's current
    // control words, as getcontext would hand them on; rbp = 0 ends
    // frame-pointer walks at the trampoline.
    std::uint32_t mxcsr = 0;
    std::uint16_t fpcw = 0;
    asm volatile("stmxcsr %0" : "=m"(mxcsr));
    asm volatile("fnstcw %0" : "=m"(fpcw));
    auto *const top = reinterpret_cast<std::uint64_t *>(
        static_cast<char *>(stackBottom()) + kStackBytes);
    std::uint64_t *const frame = top - 8;
    frame[0] = mxcsr | (static_cast<std::uint64_t>(fpcw) << 32);
    frame[1] = 0; // r15
    frame[2] = 0; // r14
    frame[3] = reinterpret_cast<std::uint64_t>(&Fiber::start); // r13
    frame[4] = reinterpret_cast<std::uint64_t>(this);          // r12
    frame[5] = 0; // rbx
    frame[6] = 0; // rbp
    frame[7] = reinterpret_cast<std::uint64_t>(&clumsy_fiber_trampoline);
    sp_ = frame;
#else
    CLUMSY_ASSERT(getcontext(&self_) == 0, "getcontext failed");
    self_.uc_stack.ss_sp = stackBottom();
    self_.uc_stack.ss_size = kStackBytes;
    self_.uc_link = nullptr; // entry() never returns
    const auto self = reinterpret_cast<std::uintptr_t>(this);
    makecontext(&self_, reinterpret_cast<void (*)()>(&Fiber::entry), 2,
                static_cast<unsigned>(self >> 32),
                static_cast<unsigned>(self));
#endif

#if defined(__SANITIZE_THREAD__)
    tsanSelf_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber()
{
#if defined(__SANITIZE_THREAD__)
    __tsan_destroy_fiber(tsanSelf_);
#endif
    tStacks.free.push_back(map_);
}

std::uint64_t
Fiber::stacksMapped()
{
    return tStacks.mapped;
}

void *
Fiber::stackBottom() const
{
    return static_cast<char *>(map_) + (mapBytes() - kStackBytes);
}

void
Fiber::resume()
{
    CLUMSY_ASSERT(!finished_, "resuming a finished fiber");
    void *fakeStack = nullptr;
    asanStart(&fakeStack, stackBottom(), kStackBytes);
    tsanCaller_ = tsanCurrent();
    tsanSwitch(tsanSelf_);
#if defined(__x86_64__)
    clumsy_fiber_switch(&callerSp_, sp_);
#else
    CLUMSY_ASSERT(swapcontext(&caller_, &self_) == 0,
                  "swapcontext into a fiber failed");
#endif
    asanFinish(fakeStack, nullptr, nullptr);
}

void
Fiber::yield()
{
    switchOut(false);
}

void
Fiber::switchOut(bool final)
{
    // A final switch passes no fake-stack slot: ASan then frees this
    // fiber's fake frames, which nothing will return to.
    void *fakeStack = nullptr;
    asanStart(final ? nullptr : &fakeStack, callerStack_,
              callerStackBytes_);
    tsanSwitch(tsanCaller_);
#if defined(__x86_64__)
    clumsy_fiber_switch(&sp_, callerSp_);
#else
    CLUMSY_ASSERT(swapcontext(&self_, &caller_) == 0,
                  "swapcontext out of a fiber failed");
#endif
    asanFinish(fakeStack, &callerStack_, &callerStackBytes_);
}

void
Fiber::start(Fiber *f) noexcept
{
    asanFinish(nullptr, &f->callerStack_, &f->callerStackBytes_);
    f->body_();
    f->finished_ = true;
    f->switchOut(true);
    panic("a finished fiber was resumed");
}

#if !defined(__x86_64__)
void
Fiber::entry(unsigned hi, unsigned lo) noexcept
{
    start(reinterpret_cast<Fiber *>(
        (static_cast<std::uintptr_t>(hi) << 32) | lo));
}
#endif

} // namespace clumsy
